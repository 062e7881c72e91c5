//===- bench/throughput.cpp - E10: pipeline throughput ----------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E10 — engineering throughput of the whole pipeline on random programs
/// of growing size: A-normalization, CPS transformation, the concrete
/// machines, and the three analyzers. The argument is the generator's
/// chain length (program size scales roughly linearly with it).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "gen/Generator.h"
#include "interp/Direct.h"
#include "syntax/Analysis.h"

#include <benchmark/benchmark.h>

using namespace cpsflow;
using namespace cpsflow::bench;
using namespace cpsflow::analysis;

namespace {

const syntax::Term *makeProgram(Context &Ctx, int64_t Size) {
  gen::GenOptions Opts;
  Opts.Seed = 1010;
  Opts.ChainLength = static_cast<uint32_t>(Size);
  Opts.MaxDepth = 2;
  Opts.WellTyped = true; // so analyses traverse the whole program
  gen::ProgramGenerator Gen(Ctx, Opts);
  return Gen.generate();
}

void BM_Normalize(benchmark::State &State) {
  Context Ctx;
  const syntax::Term *T = makeProgram(Ctx, State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(anf::normalize(Ctx, T));
}

void BM_CpsTransform(benchmark::State &State) {
  Context Ctx;
  const syntax::Term *T = makeProgram(Ctx, State.range(0));
  for (auto _ : State) {
    Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
    benchmark::DoNotOptimize(P.hasValue());
  }
}

void BM_DirectInterp(benchmark::State &State) {
  Context Ctx;
  const syntax::Term *T = makeProgram(Ctx, State.range(0));
  std::vector<interp::InitialBinding> Init;
  for (Symbol S : syntax::freeVars(T))
    Init.push_back({S, interp::RtValue::number(1)});
  for (auto _ : State) {
    interp::DirectInterp I;
    benchmark::DoNotOptimize(I.run(T, Init).Steps);
  }
}

template <typename AnalyzerRunner>
void analyzeLoop(benchmark::State &State, AnalyzerRunner Run) {
  Context Ctx;
  const syntax::Term *T = makeProgram(Ctx, State.range(0));
  std::vector<DirectBinding<CD>> Init;
  for (Symbol S : syntax::freeVars(T))
    Init.push_back({S, domain::AbsVal<CD>::number(CD::top())});
  uint64_t Goals = 0;
  for (auto _ : State)
    Goals = Run(Ctx, T, Init);
  State.counters["goals"] = static_cast<double>(Goals);
  State.counters["nodes"] = static_cast<double>(syntax::countNodes(T));
}

void BM_DirectAnalysis(benchmark::State &State) {
  analyzeLoop(State, [](Context &Ctx, const syntax::Term *T,
                        const std::vector<DirectBinding<CD>> &Init) {
    auto R = DirectAnalyzer<CD>(Ctx, T, Init).run();
    benchmark::DoNotOptimize(R.Answer.Value);
    return R.Stats.Goals;
  });
}

void BM_SemanticAnalysis(benchmark::State &State) {
  analyzeLoop(State, [](Context &Ctx, const syntax::Term *T,
                        const std::vector<DirectBinding<CD>> &Init) {
    auto R = SemanticCpsAnalyzer<CD>(Ctx, T, Init).run();
    benchmark::DoNotOptimize(R.Answer.Value);
    return R.Stats.Goals;
  });
}

void BM_SyntacticAnalysis(benchmark::State &State) {
  Context Ctx;
  const syntax::Term *T = makeProgram(Ctx, State.range(0));
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  std::vector<CpsBinding<CD>> Init;
  for (Symbol S : syntax::freeVars(T))
    Init.push_back({S, domain::CpsAbsVal<CD>::number(CD::top())});
  uint64_t Goals = 0;
  for (auto _ : State) {
    auto R = SyntacticCpsAnalyzer<CD>(Ctx, *P, Init).run();
    benchmark::DoNotOptimize(R.Answer.Value);
    Goals = R.Stats.Goals;
  }
  State.counters["goals"] = static_cast<double>(Goals);
}

} // namespace

BENCHMARK(BM_Normalize)->RangeMultiplier(2)->Range(8, 64);
BENCHMARK(BM_CpsTransform)->RangeMultiplier(2)->Range(8, 64);
BENCHMARK(BM_DirectInterp)->RangeMultiplier(2)->Range(8, 64);
BENCHMARK(BM_DirectAnalysis)->RangeMultiplier(2)->Range(8, 64);
// The CPS analyzers pay the duplication cost even on random programs;
// cap their sweep so the full bench run stays in CI-friendly time.
BENCHMARK(BM_SemanticAnalysis)->RangeMultiplier(2)->Range(8, 32);
BENCHMARK(BM_SyntacticAnalysis)->RangeMultiplier(2)->Range(8, 32);

BENCHMARK_MAIN();
