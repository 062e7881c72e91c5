//===- tests/SoundnessTests.cpp - Abstract vs concrete ----------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4.3 correctness criterion as a property test: whenever a
/// concrete run completes, the corresponding abstract run approximates its
/// answer and every store cell it allocated. Checked for all three
/// analyzers, across numeric domains, on random ANF corpora and on the
/// workload families. Also checks the Theorem 5.4/5.5 orderings on the
/// random corpus.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Compare.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "analysis/Witnesses.h"
#include "gen/Generator.h"
#include "gen/Workloads.h"
#include "interp/Delta.h"
#include "syntax/Printer.h"

#include <gtest/gtest.h>

using namespace cpsflow;
using namespace cpsflow::analysis;
using namespace cpsflow::interp;
using cpsflow::test::intBindings;
using cpsflow::test::intCpsBindings;

namespace {

/// Abstraction of a direct run-time value.
template <typename D> domain::AbsVal<D> alpha(const RtValue &V) {
  using Val = domain::AbsVal<D>;
  switch (V.Tag) {
  case RtValue::Kind::Num:
    return Val::number(D::constant(V.Num));
  case RtValue::Kind::Inc:
    return Val::closures(domain::CloSet::single(domain::CloRef::inc()));
  case RtValue::Kind::Dec:
    return Val::closures(domain::CloSet::single(domain::CloRef::dec()));
  case RtValue::Kind::Closure:
    return Val::closures(
        domain::CloSet::single(domain::CloRef::lam(V.Lam)));
  }
  return Val::bot();
}

/// Abstraction of a CPS run-time value.
template <typename D> domain::CpsAbsVal<D> alphaCps(const CpsRtValue &V) {
  using Val = domain::CpsAbsVal<D>;
  switch (V.Tag) {
  case CpsRtValue::Kind::Num:
    return Val::number(D::constant(V.Num));
  case CpsRtValue::Kind::Inck:
    return Val::closures(
        domain::CpsCloSet::single(domain::CpsCloRef::inck()));
  case CpsRtValue::Kind::Deck:
    return Val::closures(
        domain::CpsCloSet::single(domain::CpsCloRef::deck()));
  case CpsRtValue::Kind::Closure:
    return Val::closures(
        domain::CpsCloSet::single(domain::CpsCloRef::lam(V.Lam)));
  case CpsRtValue::Kind::Cont:
    return Val::konts(domain::KontSet::single(domain::KontRef::cont(V.Cont)));
  case CpsRtValue::Kind::Stop:
    return Val::konts(domain::KontSet::single(domain::KontRef::stop()));
  }
  return Val::bot();
}

/// Abstract initial bindings matching the concrete integer bindings.
template <typename D>
std::vector<DirectBinding<D>>
absBindings(const syntax::Term *T, const std::vector<int64_t> &Ints) {
  std::vector<DirectBinding<D>> Out;
  size_t I = 0;
  for (Symbol S : syntax::freeVars(T)) {
    int64_t V = Ints.empty() ? 0 : Ints[I++ % Ints.size()];
    Out.push_back(DirectBinding<D>{
        S, domain::AbsVal<D>::number(D::constant(V))});
  }
  return Out;
}

template <typename D>
std::vector<CpsBinding<D>>
absCpsBindings(const syntax::Term *T, const std::vector<int64_t> &Ints) {
  std::vector<CpsBinding<D>> Out;
  size_t I = 0;
  for (Symbol S : syntax::freeVars(T)) {
    int64_t V = Ints.empty() ? 0 : Ints[I++ % Ints.size()];
    Out.push_back(CpsBinding<D>{
        S, domain::CpsAbsVal<D>::number(D::constant(V))});
  }
  return Out;
}

/// Runs all the soundness checks for one program under domain D.
template <typename D>
void checkSoundness(Context &Ctx, const syntax::Term *T,
                    const std::vector<int64_t> &Ints) {
  RunLimits Limits;
  Limits.MaxSteps = 200000;

  // --- Concrete runs.
  DirectInterp CI(Limits);
  RunResult CR = CI.run(T, intBindings(T, Ints));

  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue());
  SyntacticCpsInterp CCI(Limits);
  CpsRunResult CCR = CCI.run(*P, intCpsBindings(T, Ints));

  // --- Abstract runs.
  AnalyzerOptions Opts;
  Opts.MaxGoals = 2'000'000;
  DirectResult<D> AD =
      DirectAnalyzer<D>(Ctx, T, absBindings<D>(T, Ints), Opts).run();
  SemanticResult<D> AS =
      SemanticCpsAnalyzer<D>(Ctx, T, absBindings<D>(T, Ints), Opts).run();
  SyntacticResult<D> AC =
      SyntacticCpsAnalyzer<D>(Ctx, *P, absCpsBindings<D>(T, Ints), Opts)
          .run();

  if (AD.Stats.BudgetExhausted || AS.Stats.BudgetExhausted ||
      AC.Stats.BudgetExhausted)
    return;

  std::string Prog = syntax::print(Ctx, T);

  // --- Value soundness.
  if (CR.ok()) {
    EXPECT_TRUE(domain::AbsVal<D>::leq(alpha<D>(CR.Value), AD.Answer.Value))
        << Prog << "\n direct value " << str(Ctx, CR.Value) << " not below "
        << AD.Answer.Value.str(Ctx);
    EXPECT_TRUE(domain::AbsVal<D>::leq(alpha<D>(CR.Value), AS.Answer.Value))
        << Prog << " (semantic)";
  }
  if (CCR.ok()) {
    EXPECT_TRUE(
        domain::CpsAbsVal<D>::leq(alphaCps<D>(CCR.Value), AC.Answer.Value))
        << Prog << " (syntactic)";
  }

  // --- Store soundness: every concrete cell is covered by the final
  // abstract store entry of its variable.
  if (CR.ok()) {
    for (const auto &Cell : CI.store().cells()) {
      EXPECT_TRUE(
          domain::AbsVal<D>::leq(alpha<D>(Cell.Value), AD.valueOf(Cell.Var)))
          << Prog << "\n direct store at " << Ctx.spelling(Cell.Var);
      EXPECT_TRUE(
          domain::AbsVal<D>::leq(alpha<D>(Cell.Value), AS.valueOf(Cell.Var)))
          << Prog << "\n semantic store at " << Ctx.spelling(Cell.Var);
    }
  }
  if (CCR.ok()) {
    for (const auto &Cell : CCI.store().cells())
      EXPECT_TRUE(domain::CpsAbsVal<D>::leq(alphaCps<D>(Cell.Value),
                                            AC.valueOf(Cell.Var)))
          << Prog << "\n cps store at " << Ctx.spelling(Cell.Var);
  }

  // --- Theorem 5.4: semantic at least as precise as direct.
  std::vector<Symbol> Vars = syntax::collectVariables(T);
  Comparison C54 = compareDirectWorld<D>(Ctx, AS, AD, Vars);
  EXPECT_TRUE(C54.Overall == PrecisionOrder::Equal ||
              C54.Overall == PrecisionOrder::LeftMorePrecise)
      << Prog << "\n 5.4 violated: " << str(C54.Overall);

  // --- Theorem 5.5: semantic at least as precise as syntactic. The
  // theorem concerns the ideal analyses; the *terminating* versions can
  // violate the store half of the relation on recursive programs, because
  // the Section 4.4 cut value is delivered to the continuation in the
  // semantic analyzer (binding downstream variables to top) but returned
  // as the goal answer in the syntactic one (leaving its store alone) —
  // e.g. omega, where the syntactic analysis keeps r = bottom exactly.
  // So the full check is scoped to cut-free runs; under cuts we still
  // require the answer-value half.
  Comparison C55 = compareWithSyntactic<D>(Ctx, AS, AC, *P, Vars);
  if (AS.Stats.Cuts == 0 && AC.Stats.Cuts == 0) {
    EXPECT_TRUE(C55.Overall == PrecisionOrder::Equal ||
                C55.Overall == PrecisionOrder::LeftMorePrecise)
        << Prog << "\n 5.5 violated: " << str(C55.Overall);
  } else {
    EXPECT_TRUE(C55.OnValue == PrecisionOrder::Equal ||
                C55.OnValue == PrecisionOrder::LeftMorePrecise)
        << Prog << "\n 5.5 (value) violated under cuts: "
        << str(C55.OnValue);
  }

  // --- Theorem 5.4 equality under a distributive analysis: with no loop
  // cut-offs and no dead paths involved, the unit-domain analyses must
  // coincide. (Dead paths break exact equality: the direct analysis keeps
  // a dead path's store effects up to the point of death while the
  // per-path analysis drops the whole path; see DESIGN.md section 7.)
  // Value-dependent branch pruning (if0 of a closure-only value) is a
  // further non-distributive ingredient, so the equality check also
  // requires PrunedBranches == 0 under the unit domain.
  if (std::is_same_v<D, domain::UnitDomain> && AD.Stats.Cuts == 0 &&
      AS.Stats.Cuts == 0 && AD.Stats.DeadPaths == 0 &&
      AS.Stats.DeadPaths == 0 && AD.Stats.PrunedBranches == 0 &&
      AS.Stats.PrunedBranches == 0) {
    EXPECT_EQ(C54.Overall, PrecisionOrder::Equal) << Prog;
  }
}

template <typename D> void sweep(uint64_t Seed) {
  Context Ctx;
  gen::GenOptions Opts;
  Opts.Seed = Seed;
  Opts.ChainLength = 8;
  Opts.MaxDepth = 2;
  gen::ProgramGenerator Gen(Ctx, Opts);
  for (int I = 0; I < 25; ++I) {
    const syntax::Term *T = Gen.generate();
    checkSoundness<D>(Ctx, T, {0, 3});
  }
}

class SoundnessSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoundnessSweep, ConstantDomain) {
  sweep<domain::ConstantDomain>(GetParam());
}
TEST_P(SoundnessSweep, UnitDomain) { sweep<domain::UnitDomain>(GetParam()); }
TEST_P(SoundnessSweep, SignDomain) { sweep<domain::SignDomain>(GetParam()); }
TEST_P(SoundnessSweep, ParityDomain) {
  sweep<domain::ParityDomain>(GetParam());
}
TEST_P(SoundnessSweep, IntervalDomain) {
  sweep<domain::IntervalDomain>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(Soundness, WorkloadFamilies) {
  Context Ctx;
  for (Witness W : {gen::conditionalChain(Ctx, 4), gen::closureTower(Ctx, 4),
                    gen::counterLoop(Ctx, 3), gen::omega(Ctx)})
    checkSoundness<domain::ConstantDomain>(Ctx, W.Anf, {0, 1});
}

TEST(Soundness, RecursiveProgramsTerminateAbstractly) {
  // The Section 4.4 cut keeps the analyses terminating on divergent and
  // recursive programs.
  Context Ctx;
  Witness W = gen::omega(Ctx);
  using D = domain::ConstantDomain;
  DirectResult<D> R = DirectAnalyzer<D>(Ctx, W.Anf).run();
  EXPECT_GT(R.Stats.Cuts, 0u);
  EXPECT_FALSE(R.Stats.BudgetExhausted);

  SemanticResult<D> S = SemanticCpsAnalyzer<D>(Ctx, W.Anf).run();
  EXPECT_GT(S.Stats.Cuts, 0u);
  EXPECT_FALSE(S.Stats.BudgetExhausted);

  SyntacticResult<D> C = SyntacticCpsAnalyzer<D>(Ctx, W.Cps).run();
  EXPECT_GT(C.Stats.Cuts, 0u);
  EXPECT_FALSE(C.Stats.BudgetExhausted);
}

} // namespace
