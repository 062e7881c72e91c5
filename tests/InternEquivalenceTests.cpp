//===- tests/InternEquivalenceTests.cpp - Interned == seed ------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash-consed-store analyzers are a pure representation change: on
/// every program they must produce bitwise-identical answers, stores, and
/// run statistics (everything except wall time) to the seed
/// implementations, which are preserved verbatim under tests/reference/
/// as refimpl::Ref* oracles. Checked bounded-exhaustively over the
/// two-let universe and on the paper's workload families.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Compare.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/DupAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "cps/Transform.h"
#include "gen/Enumerate.h"
#include "gen/Generator.h"
#include "gen/Workloads.h"
#include "reference/RefDirectAnalyzer.h"
#include "reference/RefDupAnalyzer.h"
#include "reference/RefSemanticCpsAnalyzer.h"
#include "reference/RefSyntacticCpsAnalyzer.h"
#include "syntax/Analysis.h"
#include "syntax/Printer.h"

#include <gtest/gtest.h>

using namespace cpsflow;
using namespace cpsflow::analysis;
using CD = domain::ConstantDomain;

namespace {

void expectStatsEq(const AnalyzerStats &New, const AnalyzerStats &Ref,
                   const std::string &What) {
  EXPECT_EQ(New.Goals, Ref.Goals) << What;
  EXPECT_EQ(New.CacheHits, Ref.CacheHits) << What;
  EXPECT_EQ(New.Cuts, Ref.Cuts) << What;
  EXPECT_EQ(New.MaxDepth, Ref.MaxDepth) << What;
  EXPECT_EQ(New.DeadPaths, Ref.DeadPaths) << What;
  EXPECT_EQ(New.PrunedBranches, Ref.PrunedBranches) << What;
  EXPECT_EQ(New.BudgetExhausted, Ref.BudgetExhausted) << What;
  EXPECT_EQ(New.LoopBounded, Ref.LoopBounded) << What;
}

template <typename R>
void expectResultEq(const R &New, const R &Ref, const std::string &What) {
  EXPECT_TRUE(New.Answer == Ref.Answer) << What;
  expectStatsEq(New.Stats, Ref.Stats, What);
}

/// Runs all four (new, reference) analyzer pairs on one program and
/// asserts equality. \p Init/\p CInit seed the stores; the dup leg uses
/// \p Budget.
void checkProgram(const Context &Ctx, const syntax::Term *Anf,
                  const cps::CpsProgram &Cps,
                  const std::vector<DirectBinding<CD>> &Init,
                  const std::vector<CpsBinding<CD>> &CInit,
                  uint32_t Budget, const std::string &What) {
  expectResultEq(DirectAnalyzer<CD>(Ctx, Anf, Init).run(),
                 refimpl::RefDirectAnalyzer<CD>(Ctx, Anf, Init).run(),
                 "direct: " + What);
  expectResultEq(SemanticCpsAnalyzer<CD>(Ctx, Anf, Init).run(),
                 refimpl::RefSemanticCpsAnalyzer<CD>(Ctx, Anf, Init).run(),
                 "semantic: " + What);
  auto SynRef = refimpl::RefSyntacticCpsAnalyzer<CD>(Ctx, Cps, CInit).run();
  expectResultEq(SyntacticCpsAnalyzer<CD>(Ctx, Cps, CInit).run(), SynRef,
                 "syntactic: " + What);
  // Continuation summarization is answer-exact: the summarized run must
  // agree bitwise on the answer (work counters legitimately differ).
  AnalyzerOptions SumOpts;
  SumOpts.UseSummaries = true;
  EXPECT_TRUE(SyntacticCpsAnalyzer<CD>(Ctx, Cps, CInit, SumOpts)
                  .run()
                  .Answer == SynRef.Answer)
      << "summarized syntactic: " << What;
  expectResultEq(
      DupAnalyzer<CD>(Ctx, Anf, Init, Budget).run(),
      refimpl::RefDupAnalyzer<CD>(Ctx, Anf, Init, Budget).run(),
      "dup: " + What);
}

TEST(InternEquivalence, EveryTwoLetProgram) {
  Context Ctx;
  gen::EnumOptions Opts;
  Opts.Lets = 2;
  size_t Checked = 0;
  gen::enumeratePrograms(Ctx, Opts, [&](const syntax::Term *T) {
    Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
    ASSERT_TRUE(P.hasValue());
    std::vector<DirectBinding<CD>> Init;
    for (Symbol S : syntax::freeVars(T))
      Init.push_back({S, domain::AbsVal<CD>::number(CD::top())});
    std::vector<CpsBinding<CD>> CInit;
    for (const DirectBinding<CD> &B : Init)
      CInit.push_back({B.Var, deltaE<CD>(B.Value, *P)});
    checkProgram(Ctx, T, *P, Init, CInit, 2, syntax::print(Ctx, T));
    ++Checked;
  });
  EXPECT_EQ(Checked, 1326u);
}

void checkWitness(const Context &Ctx, const Witness &W) {
  checkProgram(Ctx, W.Anf, W.Cps, directBindings<CD>(W),
               cpsBindings<CD>(W), 2, W.Name);
}

TEST(InternEquivalence, TheoremWitnesses) {
  Context Ctx;
  checkWitness(Ctx, theorem51(Ctx));
  checkWitness(Ctx, theorem52a(Ctx));
  checkWitness(Ctx, theorem52b(Ctx));
}

TEST(InternEquivalence, WorkloadFamilies) {
  Context Ctx;
  checkWitness(Ctx, gen::conditionalChain(Ctx, 6));
  checkWitness(Ctx, gen::convergingChain(Ctx, 8));
  checkWitness(Ctx, gen::callMergeChain(Ctx, 4));
  checkWitness(Ctx, gen::closureTower(Ctx, 8));
  checkWitness(Ctx, gen::loopProbe(Ctx, 3));
  checkWitness(Ctx, gen::omega(Ctx));
  checkWitness(Ctx, gen::counterLoop(Ctx, 5));
}

/// The syntactic leg switches from Bits128 to WideBits sets once a
/// closure or continuation universe passes 128 elements. These programs
/// sit past that line (the generated one has 165 continuations), so the
/// reference comparison covers the wide set type too.
TEST(InternEquivalence, WideUniverseWorkloads) {
  Context Ctx;
  auto expectWide = [&](const cps::CpsProgram &Cps,
                        const std::vector<CpsBinding<CD>> &CInit) {
    SyntacticCpsAnalyzer<CD> A(Ctx, Cps, CInit);
    EXPECT_FALSE(domain::Bits128::holds(A.closureUniverse().size()) &&
                 domain::Bits128::holds(A.kontUniverse().size()));
  };
  for (Witness W :
       {gen::closureTower(Ctx, 130), gen::convergingChain(Ctx, 200)}) {
    expectWide(W.Cps, cpsBindings<CD>(W));
    checkWitness(Ctx, W);
  }

  gen::GenOptions Opts;
  Opts.Seed = 72;
  Opts.ChainLength = 10;
  Opts.WellTyped = true;
  const syntax::Term *T = gen::ProgramGenerator(Ctx, Opts).generate();
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue());
  std::vector<DirectBinding<CD>> Init;
  for (Symbol S : syntax::freeVars(T))
    Init.push_back({S, domain::AbsVal<CD>::number(CD::top())});
  std::vector<CpsBinding<CD>> CInit;
  for (const DirectBinding<CD> &B : Init)
    CInit.push_back({B.Var, deltaE<CD>(B.Value, *P)});
  expectWide(*P, CInit);
  checkProgram(Ctx, T, *P, Init, CInit, 2, "generated seed 72 chain 10");
}

/// Budget sweep on a duplication workload: the dup analyzer's credit
/// dimension multiplies the key space, the place where a key
/// representation bug would most likely show.
TEST(InternEquivalence, DupBudgetSweep) {
  Context Ctx;
  Witness W = gen::conditionalChain(Ctx, 5);
  for (uint32_t Budget : {0u, 1u, 2u, 4u, 8u}) {
    auto New = DupAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Budget)
                   .run();
    auto Ref = refimpl::RefDupAnalyzer<CD>(Ctx, W.Anf,
                                           directBindings<CD>(W), Budget)
                   .run();
    expectResultEq(New, Ref, "budget " + std::to_string(Budget));
  }
}

} // namespace
