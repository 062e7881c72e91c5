//===- tests/AnfTests.cpp - A-normalization tests ---------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "anf/Anf.h"

#include "TestUtil.h"
#include "gen/Generator.h"
#include "interp/Direct.h"
#include "syntax/Analysis.h"
#include "syntax/Printer.h"
#include "syntax/Rename.h"

#include <gtest/gtest.h>

using namespace cpsflow;
using namespace cpsflow::syntax;
using cpsflow::test::intBindings;
using cpsflow::test::mustParse;

namespace {

TEST(Anf, RecognizerAcceptsTheRestrictedSubset) {
  Context Ctx;
  for (const char *Text : {
           "42",
           "(let (x 1) x)",
           "(let (x (add1 1)) x)",
           "(let (x (if0 z 1 2)) x)",
           "(let (x (loop)) x)",
           "(let (f (lambda (y) (let (r (add1 y)) r))) (let (a (f 1)) a))",
       }) {
    const Term *T = mustParse(Ctx, Text);
    EXPECT_TRUE(anf::isAnf(T).hasValue()) << Text;
  }
}

TEST(Anf, RecognizerRejectsViolations) {
  Context Ctx;
  for (const char *Text : {
           "(f (g 1))",                    // nested application
           "(let (x (let (y 1) y)) x)",    // let-bound let
           "(if0 z 1 2)",                  // bare conditional
           "(let (x ((f 1) 2)) x)",        // non-value operator
           "(let (x (if0 (add1 z) 1 2)) x)", // non-value condition
           "(let (f (lambda (y) (y y))) f)", // non-ANF lambda body
       }) {
    const Term *T = mustParse(Ctx, Text);
    EXPECT_FALSE(anf::isAnf(T).hasValue()) << Text;
  }
}

TEST(Anf, NormalizerProducesAnf) {
  Context Ctx;
  for (const char *Text : {
           "(f (g 1))",
           "(let (x (let (y 1) y)) x)",
           "(add1 (let (x 1) 0))",
           "(if0 (add1 0) ((lambda (x) x) 1) (f (f 2)))",
           "((lambda (x) (x (x 0))) (lambda (y) (add1 y)))",
           "(let (x (if0 (if0 z 0 1) (g 5) 7)) (add1 x))",
       }) {
    const Term *T = mustParse(Ctx, Text);
    const Term *N = anf::normalize(Ctx, T);
    Result<bool> R = anf::isAnf(N);
    EXPECT_TRUE(R.hasValue())
        << Text << " => " << print(Ctx, N)
        << (R.hasValue() ? "" : (" : " + R.error().Message));
  }
}

TEST(Anf, PaperFootnoteExample) {
  // The paper's Section 2 example: (f (let (x 1) (g x))) becomes
  // (let (x 1) (let (x2 (g x)) (let (x3 (f x2)) x3))).
  Context Ctx;
  const Term *T = mustParse(Ctx, "(f (let (x 1) (g x)))");
  const Term *N = anf::normalize(Ctx, T);
  ASSERT_TRUE(anf::isAnf(N).hasValue());

  const auto *L1 = cast<LetTerm>(N);
  EXPECT_EQ(Ctx.spelling(L1->var()), "x");
  const auto *L2 = cast<LetTerm>(L1->body());
  const auto *App2 = cast<AppTerm>(L2->bound());
  EXPECT_EQ(Ctx.spelling(
                cast<VarValue>(cast<ValueTerm>(App2->fun())->value())->name()),
            "g");
  const auto *L3 = cast<LetTerm>(L2->body());
  const auto *App3 = cast<AppTerm>(L3->bound());
  EXPECT_EQ(Ctx.spelling(
                cast<VarValue>(cast<ValueTerm>(App3->fun())->value())->name()),
            "f");
  EXPECT_TRUE(isa<ValueTerm>(L3->body()));
}

TEST(Anf, PaperReorderingExample) {
  // (add1 (let (x V) 0)) is re-ordered to evaluate the let first:
  // (let (x V) (let (t (add1 0)) t)).
  Context Ctx;
  const Term *T = mustParse(Ctx, "(add1 (let (x 5) 0))");
  const Term *N = anf::normalize(Ctx, T);
  ASSERT_TRUE(anf::isAnf(N).hasValue());
  const auto *L1 = cast<LetTerm>(N);
  EXPECT_EQ(Ctx.spelling(L1->var()), "x");
  const auto *L2 = cast<LetTerm>(L1->body());
  const auto *App = cast<AppTerm>(L2->bound());
  EXPECT_TRUE(isa<PrimValue>(cast<ValueTerm>(App->fun())->value()));
}

TEST(Anf, NormalizationIsIdentityOnAnfTerms) {
  Context Ctx;
  const Term *T = mustParse(
      Ctx, "(let (f (lambda (y) (let (r (add1 y)) r))) (let (a (f 1)) a))");
  ASSERT_TRUE(anf::isAnf(T).hasValue());
  const Term *N = anf::normalize(Ctx, T);
  EXPECT_TRUE(structurallyEqual(T, N));
}

TEST(Anf, NormalizeProgramEstablishesHygiene) {
  Context Ctx;
  const Term *T = mustParse(Ctx, "(let (x 1) ((lambda (x) x) (add1 x)))");
  const Term *N = anf::normalizeProgram(Ctx, T);
  EXPECT_TRUE(anf::isAnf(N).hasValue());
  EXPECT_TRUE(checkUniqueBinders(Ctx, N).hasValue());
}

//===----------------------------------------------------------------------===//
// Property: normalization preserves the direct semantics (footnote 2)
//===----------------------------------------------------------------------===//

class AnfPreservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnfPreservation, RandomProgramsEvaluateTheSame) {
  Context Ctx;
  gen::GenOptions Opts;
  Opts.Seed = GetParam();
  Opts.NumFreeVars = 2;
  gen::ProgramGenerator Gen(Ctx, Opts);

  for (int I = 0; I < 40; ++I) {
    const Term *Full = Gen.generateFull();
    const Term *Norm = anf::normalizeProgram(Ctx, Full);
    ASSERT_TRUE(anf::isAnf(Norm).hasValue()) << print(Ctx, Full);

    interp::RunLimits Limits;
    Limits.MaxSteps = 200000;
    interp::DirectInterp I1(Limits), I2(Limits);
    interp::RunResult R1 = I1.run(Full, intBindings(Full, {1, 0}));
    interp::RunResult R2 = I2.run(Norm, intBindings(Norm, {1, 0}));

    if (R1.Status == interp::RunStatus::OutOfFuel ||
        R2.Status == interp::RunStatus::OutOfFuel)
      continue; // budget artifacts are not semantic differences

    ASSERT_EQ(static_cast<int>(R1.Status), static_cast<int>(R2.Status))
        << print(Ctx, Full) << "\n => " << print(Ctx, Norm);
    if (R1.ok()) {
      ASSERT_EQ(static_cast<int>(R1.Value.Tag),
                static_cast<int>(R2.Value.Tag));
      if (R1.Value.isNum()) {
        ASSERT_EQ(R1.Value.Num, R2.Value.Num) << print(Ctx, Full);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnfPreservation,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

class AnfGrammar : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnfGrammar, GeneratedAnfAlwaysValidatesAndRenormalizes) {
  Context Ctx;
  gen::GenOptions Opts;
  Opts.Seed = GetParam();
  gen::ProgramGenerator Gen(Ctx, Opts);
  for (int I = 0; I < 50; ++I) {
    const Term *T = Gen.generate();
    EXPECT_TRUE(anf::isAnf(T).hasValue());
    EXPECT_TRUE(checkUniqueBinders(Ctx, T).hasValue()) << print(Ctx, T);
    EXPECT_TRUE(structurallyEqual(T, anf::normalize(Ctx, T)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnfGrammar,
                         ::testing::Values(7, 11, 17, 23));

} // namespace
