//===- perfbench/Programs.cpp - Benchmark inputs --------------------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "gen/Generator.h"
#include "gen/Workloads.h"
#include "support/Rng.h"
#include "syntax/Printer.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using namespace cpsflow;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The rendered source of a gen::Workloads family member.
template <typename Family>
NamedProgram family(const char *Name, uint32_t N, Family Make) {
  Context Ctx;
  analysis::Witness W = Make(Ctx, N);
  return {std::string(Name) + "-" + std::to_string(N),
          syntax::print(Ctx, W.Anf)};
}

} // namespace

std::vector<NamedProgram> corpusPrograms(const std::string &Root) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::path(Root) / "examples" / "corpus";
  std::error_code Ec;
  std::vector<NamedProgram> Out;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec))
    if (It->path().extension() == ".scm")
      Out.push_back(
          {It->path().filename().string(), readFile(It->path().string())});
  if (Ec || Out.empty())
    throw std::runtime_error("no corpus programs under '" + Dir.string() +
                             "'");
  std::sort(Out.begin(), Out.end(),
            [](const NamedProgram &A, const NamedProgram &B) {
              return A.Name < B.Name;
            });
  return Out;
}

std::vector<NamedProgram> scalingFamilies() {
  // conditionalChain: stores all differ, so the CPS legs duplicate and
  // the memo mostly writes. convergingChain: stores reconverge, so the
  // memo mostly reads. closureTower: per-goal store cost grows with n.
  // loopProbe: the CPS legs' bounded loop join. callMergeChain is left
  // out: its callee is bound to closures the batch path cannot express.
  return {family("conditionalChain", 10, gen::conditionalChain),
          family("conditionalChain", 11, gen::conditionalChain),
          family("conditionalChain", 12, gen::conditionalChain),
          family("convergingChain", 256, gen::convergingChain),
          family("closureTower", 128, gen::closureTower),
          family("closureTower", 256, gen::closureTower),
          family("loopProbe", 32, gen::loopProbe)};
}

std::string generatedName(uint64_t GenSeed, uint32_t Chain) {
  return "gen-s" + std::to_string(GenSeed) + "-c" + std::to_string(Chain);
}

NamedProgram generatedProgram(const std::string &Name) {
  unsigned long long Seed = 0;
  unsigned Chain = 0;
  char Tail = 0;
  if (std::sscanf(Name.c_str(), "gen-s%llu-c%u%c", &Seed, &Chain, &Tail) !=
          2 ||
      Chain == 0 || Chain > 12 || generatedName(Seed, Chain) != Name)
    throw std::runtime_error("malformed generator program name '" + Name +
                             "'");
  gen::GenOptions Opts;
  Opts.Seed = Seed;
  Opts.ChainLength = Chain;
  Opts.WellTyped = true;
  Context Ctx;
  gen::ProgramGenerator G(Ctx, Opts);
  return {Name, syntax::print(Ctx, G.generate())};
}

Expected readExpected(const std::string &Path) {
  std::istringstream In(readFile(Path));
  Expected E;
  std::string Line;
  for (size_t LineNo = 1; std::getline(In, Line); ++LineNo) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t T1 = Line.find('\t');
    size_t T2 = T1 == std::string::npos ? T1 : Line.find('\t', T1 + 1);
    if (T2 == std::string::npos)
      throw std::runtime_error(Path + ":" + std::to_string(LineNo) +
                               ": expected program<TAB>leg<TAB>answer");
    E[{Line.substr(0, T1), Line.substr(T1 + 1, T2 - T1 - 1)}] =
        Line.substr(T2 + 1);
  }
  if (E.empty())
    throw std::runtime_error("no expected answers in '" + Path + "'");
  return E;
}

std::string renderExpected(const Expected &E) {
  std::string Out =
      "# Expected answers for the perfbench corpus and scaling workloads:\n"
      "# program<TAB>leg<TAB>rendered answer (constant domain, default\n"
      "# batch options). Regenerate with `perfbench --write-data DIR`.\n";
  for (const auto &[Key, Answer] : E)
    Out += Key.first + "\t" + Key.second + "\t" + Answer + "\n";
  return Out;
}

Pool readPool(const std::string &Path) {
  std::istringstream In(readFile(Path));
  Pool P;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Names(Line);
    P.emplace_back();
    for (std::string Name; Names >> Name;)
      P.back().push_back(Name);
  }
  if (P.empty())
    throw std::runtime_error("no pool strata in '" + Path + "'");
  return P;
}

std::string renderPool(const Pool &P) {
  std::string Out =
      "# The scaling workload's ProgramGenerator pool: one stratum per\n"
      "# line, in increasing order of wall time when the file was written.\n"
      "# A run draws one program from each line. Regenerate with\n"
      "# `perfbench --write-data DIR`.\n";
  for (const std::vector<std::string> &Stratum : P) {
    for (size_t I = 0; I < Stratum.size(); ++I)
      Out += (I ? " " : "") + Stratum[I];
    Out += "\n";
  }
  return Out;
}

std::vector<NamedProgram> scalingPrograms(const Pool &P, uint64_t Seed) {
  std::vector<NamedProgram> Out = scalingFamilies();
  Rng R(Seed ^ 0x5ca1ab1eull);
  for (const std::vector<std::string> &Stratum : P) {
    if (Stratum.empty())
      throw std::runtime_error("empty scaling pool stratum");
    Out.push_back(generatedProgram(Stratum[R.below(Stratum.size())]));
  }
  return Out;
}

std::vector<Leaf> numericLeaves(const std::string &Source) {
  std::vector<Leaf> Out;
  size_t I = 0;
  while (I < Source.size()) {
    char C = Source[I];
    if (C == ';') {
      while (I < Source.size() && Source[I] != '\n')
        ++I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C)) || C == '(' ||
        C == ')') {
      ++I;
      continue;
    }
    size_t Start = I;
    bool Digits = true;
    while (I < Source.size() && Source[I] != '(' && Source[I] != ')' &&
           Source[I] != ';' &&
           !std::isspace(static_cast<unsigned char>(Source[I]))) {
      Digits = Digits && std::isdigit(static_cast<unsigned char>(Source[I]));
      ++I;
    }
    if (Digits)
      Out.push_back({Start, I - Start});
  }
  return Out;
}

std::string withLeaf(const std::string &Source, const Leaf &L,
                     uint64_t Value) {
  return Source.substr(0, L.Offset) + std::to_string(Value) +
         Source.substr(L.Offset + L.Length);
}

} // namespace perfbench
