//===- tests/ExhaustiveTests.cpp - Bounded-exhaustive checks ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every small program (bounded-exhaustive universe) satisfies the
/// interpreter-agreement lemmas and analyzer soundness — no small
/// counterexample exists, complementing the random sweeps.
///
//===----------------------------------------------------------------------===//

#include "gen/Enumerate.h"

#include "TestUtil.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "interp/Delta.h"
#include "interp/Direct.h"
#include "interp/SemanticCps.h"
#include "interp/SyntacticCps.h"
#include "syntax/Analysis.h"
#include "syntax/Printer.h"

#include <gtest/gtest.h>

using namespace cpsflow;
using namespace cpsflow::interp;
using cpsflow::test::intBindings;
using cpsflow::test::intCpsBindings;
using CD = domain::ConstantDomain;

namespace {

TEST(Exhaustive, UniverseSizeIsStable) {
  // Pin the universe size so accidental generator changes are noticed.
  Context Ctx;
  gen::EnumOptions Opts;
  Opts.Lets = 2;
  size_t N = gen::enumeratePrograms(Ctx, Opts, [](const syntax::Term *) {});
  EXPECT_EQ(N, 1326u);
}

TEST(Exhaustive, LemmasHoldOnEveryTwoLetProgram) {
  Context Ctx;
  gen::EnumOptions Opts;
  Opts.Lets = 2;
  RunLimits Limits;
  Limits.MaxSteps = 20000;

  size_t Checked = 0;
  gen::enumeratePrograms(Ctx, Opts, [&](const syntax::Term *T) {
    ++Checked;

    DirectInterp Direct(Limits);
    RunResult RD = Direct.run(T, intBindings(T, {1}));
    SemanticCpsInterp Semantic(Limits);
    RunResult RS = Semantic.run(T, intBindings(T, {1}));

    Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
    ASSERT_TRUE(P.hasValue());
    SyntacticCpsInterp Syntactic(Limits);
    CpsRunResult RC = Syntactic.run(*P, intCpsBindings(T, {1}));

    if (RD.Status == RunStatus::OutOfFuel ||
        RS.Status == RunStatus::OutOfFuel ||
        RC.Status == RunStatus::OutOfFuel)
      return;

    // Lemma 3.1.
    ASSERT_EQ(static_cast<int>(RD.Status), static_cast<int>(RS.Status))
        << syntax::print(Ctx, T);
    // Lemma 3.3.
    ASSERT_EQ(static_cast<int>(RD.Status), static_cast<int>(RC.Status))
        << syntax::print(Ctx, T);
    if (RD.ok()) {
      ASSERT_TRUE(deltaRelated(RD.Value, RC.Value, *P))
          << syntax::print(Ctx, T);
      std::string Why;
      ASSERT_TRUE(storesDeltaRelated(Ctx, Direct.store(), Syntactic.store(),
                                     *P, &Why))
          << syntax::print(Ctx, T) << "\n " << Why;
    }
  });
  EXPECT_EQ(Checked, 1326u);
}

TEST(Exhaustive, AnalyzerSoundOnEveryTwoLetProgram) {
  Context Ctx;
  gen::EnumOptions Opts;
  Opts.Lets = 2;
  RunLimits Limits;
  Limits.MaxSteps = 20000;

  gen::enumeratePrograms(Ctx, Opts, [&](const syntax::Term *T) {
    DirectInterp CI(Limits);
    RunResult CR = CI.run(T, intBindings(T, {1}));
    if (!CR.ok())
      return;

    std::vector<analysis::DirectBinding<CD>> Init;
    for (Symbol S : syntax::freeVars(T))
      Init.push_back(
          {S, domain::AbsVal<CD>::number(CD::constant(1))});
    auto AD = analysis::DirectAnalyzer<CD>(Ctx, T, Init).run();

    // Value soundness.
    domain::AbsVal<CD> Alpha;
    if (CR.Value.isNum())
      Alpha = domain::AbsVal<CD>::number(CD::constant(CR.Value.Num));
    else if (CR.Value.isClosure())
      Alpha = domain::AbsVal<CD>::closures(
          domain::CloSet::single(domain::CloRef::lam(CR.Value.Lam)));
    else
      Alpha = domain::AbsVal<CD>::closures(domain::CloSet::single(
          CR.Value.Tag == RtValue::Kind::Inc ? domain::CloRef::inc()
                                             : domain::CloRef::dec()));
    EXPECT_TRUE(domain::AbsVal<CD>::leq(Alpha, AD.Answer.Value))
        << syntax::print(Ctx, T);
  });
}

TEST(Exhaustive, ThreeLetInterpreterAgreement) {
  // A larger universe for the (cheap) Lemma 3.1 check only.
  Context Ctx;
  gen::EnumOptions Opts;
  Opts.Lets = 3;
  Opts.WithLambdas = false; // keeps the universe around 20k programs
  RunLimits Limits;
  Limits.MaxSteps = 20000;

  size_t N = gen::enumeratePrograms(Ctx, Opts, [&](const syntax::Term *T) {
    DirectInterp Direct(Limits);
    RunResult RD = Direct.run(T, intBindings(T, {0}));
    SemanticCpsInterp Semantic(Limits);
    RunResult RS = Semantic.run(T, intBindings(T, {0}));
    ASSERT_EQ(static_cast<int>(RD.Status), static_cast<int>(RS.Status))
        << syntax::print(Ctx, T);
    if (RD.ok() && RD.Value.isNum()) {
      ASSERT_EQ(RD.Value.Num, RS.Value.Num) << syntax::print(Ctx, T);
    }
  });
  EXPECT_GT(N, 10000u);
}

} // namespace
