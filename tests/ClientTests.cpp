//===- tests/ClientTests.cpp - Optimizer client tests -----------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "clients/ConstFold.h"
#include "clients/Reports.h"

#include "TestUtil.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/Witnesses.h"
#include "anf/Anf.h"
#include "gen/Generator.h"
#include "interp/Direct.h"
#include "syntax/Printer.h"

#include <gtest/gtest.h>

using namespace cpsflow;
using namespace cpsflow::analysis;
using namespace cpsflow::clients;
using cpsflow::test::intBindings;
using cpsflow::test::mustParse;
using CD = domain::ConstantDomain;

namespace {

FoldResult foldProgram(Context &Ctx, const syntax::Term *T) {
  auto R = DirectAnalyzer<CD>(Ctx, T).run();
  return constantFold(Ctx, T, R);
}

TEST(ConstFold, FoldsPrimitiveApplications) {
  Context Ctx;
  const syntax::Term *T =
      mustParse(Ctx, "(let (x (add1 1)) (let (y (add1 x)) y))");
  FoldResult F = foldProgram(Ctx, T);
  EXPECT_EQ(F.FoldedApps, 2u);
  EXPECT_TRUE(anf::isAnf(F.Folded).hasValue());
  // The folded program still computes 3.
  interp::DirectInterp I;
  interp::RunResult R = I.run(F.Folded);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Value.Num, 3);
}

TEST(ConstFold, EliminatesInfeasibleBranches) {
  Context Ctx;
  const syntax::Term *T = mustParse(
      Ctx, "(let (c (add1 0)) (let (a (if0 c 10 (let (t (add1 c)) t))) a))");
  FoldResult F = foldProgram(Ctx, T);
  EXPECT_GE(F.ElimBranches, 1u);
  interp::DirectInterp I;
  interp::RunResult R = I.run(F.Folded);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Value.Num, 2);
}

TEST(ConstFold, LeavesUnknownsAlone) {
  Context Ctx;
  const syntax::Term *T = mustParse(Ctx, "(let (x (add1 z)) x)");
  std::vector<DirectBinding<CD>> Init = {
      {Ctx.intern("z"), domain::AbsVal<CD>::number(CD::top())}};
  auto R = DirectAnalyzer<CD>(Ctx, T, Init).run();
  FoldResult F = constantFold(Ctx, T, R);
  EXPECT_EQ(F.FoldedApps, 0u);
  EXPECT_EQ(F.ElimBranches, 0u);
}

TEST(ConstFold, DoesNotFoldUserClosureCalls) {
  Context Ctx;
  // (f 1) has a constant result, but folding a closure call could change
  // termination; only prim applications fold.
  const syntax::Term *T = mustParse(
      Ctx, "(let (f (lambda (p) 7)) (let (a (f 1)) a))");
  FoldResult F = foldProgram(Ctx, T);
  EXPECT_EQ(F.FoldedApps, 0u);
}

class FoldPreservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FoldPreservation, FoldedProgramsEvaluateTheSame) {
  Context Ctx;
  gen::GenOptions Opts;
  Opts.Seed = GetParam();
  Opts.ChainLength = 8;
  gen::ProgramGenerator Gen(Ctx, Opts);
  for (int I = 0; I < 25; ++I) {
    const syntax::Term *T = Gen.generate();
    std::vector<DirectBinding<CD>> Init;
    for (Symbol S : syntax::freeVars(T))
      Init.push_back({S, domain::AbsVal<CD>::number(CD::constant(1))});
    auto A = DirectAnalyzer<CD>(Ctx, T, Init).run();
    FoldResult F = constantFold(Ctx, T, A);

    interp::RunLimits Limits;
    Limits.MaxSteps = 100000;
    interp::DirectInterp I1(Limits), I2(Limits);
    interp::RunResult R1 = I1.run(T, intBindings(T, {1}));
    interp::RunResult R2 = I2.run(F.Folded, intBindings(F.Folded, {1}));

    // Folding assumes well-behaved programs: compare only completing
    // originals (stuck programs may legitimately "improve").
    if (!R1.ok() || R2.Status == interp::RunStatus::OutOfFuel)
      continue;
    ASSERT_TRUE(R2.ok()) << syntax::print(Ctx, T);
    ASSERT_EQ(static_cast<int>(R1.Value.Tag),
              static_cast<int>(R2.Value.Tag));
    if (R1.Value.isNum()) {
      ASSERT_EQ(R1.Value.Num, R2.Value.Num) << syntax::print(Ctx, T);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldPreservation,
                         ::testing::Values(71, 72, 73, 74));

TEST(Reports, DescribeCfgShowsFalseReturns) {
  Context Ctx;
  Witness W = theorem51(Ctx);
  auto R = SyntacticCpsAnalyzer<CD>(Ctx, W.Cps, cpsBindings<CD>(W)).run();
  std::string S = describeCfg(Ctx, R.Cfg);
  EXPECT_NE(S.find("FALSE RETURN"), std::string::npos);
}

TEST(Reports, DescribeStatsMentionsFlags) {
  AnalyzerStats S;
  S.Goals = 5;
  S.BudgetExhausted = true;
  std::string Out = describeStats(S);
  EXPECT_NE(Out.find("goals=5"), std::string::npos);
  EXPECT_NE(Out.find("budget exhausted"), std::string::npos);
}

TEST(Reports, DescribeVarsRendersEntries) {
  Context Ctx;
  Witness W = theorem51(Ctx);
  auto R = DirectAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
  std::string S = describeVars(Ctx, R, W.InterestingVars);
  EXPECT_NE(S.find("a1 = (1, {})"), std::string::npos);
}

} // namespace
