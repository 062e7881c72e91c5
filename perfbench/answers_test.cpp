//===- perfbench/answers_test.cpp - The expected-answer file is right -----===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-derives the direct, semantic, syntactic and dup rows of the
/// expected-answer file from the seed reference analyzers under
/// tests/reference/, so the file is not vouched for only by the code the
/// benchmark times. Also checks that the file covers every leg of every
/// corpus and scaling program and nothing else. (Pushdown postdates the
/// seed and has no reference analyzer; its rows are checked by the
/// benchmark against the analyzer itself.)
///
/// usage: perfbench_answers_test EXPECTED_FILE POOL_FILE REPO_ROOT
///
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "analysis/Compare.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "reference/RefDirectAnalyzer.h"
#include "reference/RefDupAnalyzer.h"
#include "reference/RefSemanticCpsAnalyzer.h"
#include "reference/RefSyntacticCpsAnalyzer.h"
#include "syntax/Analysis.h"
#include "syntax/Sugar.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iterator>
#include <set>

using namespace cpsflow;
using namespace perfbench;
using D = domain::ConstantDomain;

namespace {

unsigned Failures = 0;

void check(const Expected &E, const std::string &Program, const char *Leg,
           const std::string &Got) {
  auto It = E.find({Program, Leg});
  if (It == E.end()) {
    std::printf("FAIL %s %s: no expected answer\n", Program.c_str(), Leg);
    ++Failures;
  } else if (It->second != Got) {
    std::printf("FAIL %s %s: reference %s, file %s\n", Program.c_str(), Leg,
                Got.c_str(), It->second.c_str());
    ++Failures;
  }
}

/// Runs the four reference analyzers on \p P, bound as the batch driver
/// binds free inputs (numeric top), and compares their answers.
void checkProgram(const Expected &E, const NamedProgram &P) {
  Context Ctx;
  Result<const syntax::Term *> Parsed =
      syntax::parseSugaredProgram(Ctx, P.Source);
  if (!Parsed) {
    std::printf("FAIL %s: %s\n", P.Name.c_str(), Parsed.error().str().c_str());
    ++Failures;
    return;
  }
  const syntax::Term *Anf = anf::normalizeProgram(Ctx, *Parsed);
  Result<cps::CpsProgram> Cps = cps::cpsTransform(Ctx, Anf);
  if (!Cps) {
    std::printf("FAIL %s: %s\n", P.Name.c_str(), Cps.error().str().c_str());
    ++Failures;
    return;
  }
  std::vector<analysis::DirectBinding<D>> Init;
  for (Symbol X : syntax::freeVars(Anf))
    Init.push_back({X, domain::AbsVal<D>::number(D::top())});
  std::vector<analysis::CpsBinding<D>> CInit;
  for (const analysis::DirectBinding<D> &B : Init)
    CInit.push_back({B.Var, analysis::deltaE<D>(B.Value, *Cps)});

  check(E, P.Name, "direct",
        refimpl::RefDirectAnalyzer<D>(Ctx, Anf, Init).run().Answer.Value.str(
            Ctx));
  check(E, P.Name, "semantic",
        refimpl::RefSemanticCpsAnalyzer<D>(Ctx, Anf, Init)
            .run()
            .Answer.Value.str(Ctx));
  check(E, P.Name, "syntactic",
        refimpl::RefSyntacticCpsAnalyzer<D>(Ctx, *Cps, CInit)
            .run()
            .Answer.Value.str(Ctx));
  check(E, P.Name, "dup",
        refimpl::RefDupAnalyzer<D>(Ctx, Anf, Init, /*Budget=*/2)
            .run()
            .Answer.Value.str(Ctx));
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 4) {
    std::fprintf(stderr, "usage: perfbench_answers_test EXPECTED_FILE "
                         "POOL_FILE REPO_ROOT\n");
    return 2;
  }
  try {
    const Expected E = readExpected(Argv[1]);
    std::vector<NamedProgram> Programs = corpusPrograms(Argv[3]);
    for (NamedProgram &P : scalingFamilies())
      Programs.push_back(std::move(P));
    for (const std::vector<std::string> &Stratum : readPool(Argv[2])) {
      if (Stratum.empty()) {
        std::printf("FAIL: empty pool stratum\n");
        ++Failures;
      }
      for (const std::string &Name : Stratum)
        Programs.push_back(generatedProgram(Name));
    }

    std::set<std::string> Known;
    for (const NamedProgram &P : Programs) {
      Known.insert(P.Name);
      checkProgram(E, P);
      if (!E.count({P.Name, "pushdown"})) {
        std::printf("FAIL %s pushdown: no expected answer\n", P.Name.c_str());
        ++Failures;
      }
    }
    for (const auto &[Key, Answer] : E)
      if (!Known.count(Key.first) ||
          std::find(std::begin(Legs), std::end(Legs), Key.second) ==
              std::end(Legs)) {
        std::printf("FAIL: stray row %s %s\n", Key.first.c_str(),
                    Key.second.c_str());
        ++Failures;
      }
    std::printf("%zu programs, %zu rows, %u failures\n", Programs.size(),
                E.size(), Failures);
  } catch (const std::exception &Ex) {
    std::printf("FAIL: %s\n", Ex.what());
    return 1;
  }
  return Failures ? 1 : 0;
}
