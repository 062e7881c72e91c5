//===- tests/AnalyzerUnitTests.cpp - Analyzer unit behaviour ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small handcrafted programs with exact expected abstract results, plus
/// unit checks of CFG extraction, the loop rules, cut-off behaviour, and
/// budget exhaustion, for all three analyzers.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/PushdownAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "analysis/Witnesses.h"
#include "gen/Workloads.h"
#include "syntax/Printer.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

using namespace cpsflow;
using namespace cpsflow::analysis;
using cpsflow::test::mustParse;
using CD = domain::ConstantDomain;

namespace {

template <typename D = CD>
DirectResult<D> analyzeDirect(Context &Ctx, const std::string &Text,
                              std::vector<DirectBinding<D>> Init = {},
                              AnalyzerOptions Opts = AnalyzerOptions()) {
  const syntax::Term *T = mustParse(Ctx, Text);
  return DirectAnalyzer<D>(Ctx, T, std::move(Init), Opts).run();
}

TEST(DirectAnalyzer, ConstantsFlowThroughLets) {
  Context Ctx;
  auto R = analyzeDirect(Ctx, "(let (x 1) (let (y (add1 x)) y))");
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "2");
  EXPECT_EQ(CD::str(R.valueOf(Ctx.intern("x")).Num), "1");
  EXPECT_EQ(CD::str(R.valueOf(Ctx.intern("y")).Num), "2");
}

TEST(DirectAnalyzer, KnownConditionalTakesOneBranch) {
  Context Ctx;
  auto R = analyzeDirect(Ctx, "(let (a (if0 0 10 20)) a)");
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "10");
  ASSERT_EQ(R.Cfg.Branches.size(), 1u);
  const BranchInfo &BI = R.Cfg.Branches.begin()->second;
  EXPECT_TRUE(BI.ThenFeasible);
  EXPECT_FALSE(BI.ElseFeasible);
}

TEST(DirectAnalyzer, UnknownConditionalMergesBranches) {
  Context Ctx;
  std::vector<DirectBinding<CD>> Init = {
      {Ctx.intern("z"), domain::AbsVal<CD>::number(CD::top())}};
  auto R = analyzeDirect(Ctx, "(let (a (if0 z 10 20)) a)", Init);
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "T");
  const BranchInfo &BI = R.Cfg.Branches.begin()->second;
  EXPECT_TRUE(BI.ThenFeasible);
  EXPECT_TRUE(BI.ElseFeasible);
}

TEST(DirectAnalyzer, SameBranchConstantsSurviveTheMerge) {
  Context Ctx;
  std::vector<DirectBinding<CD>> Init = {
      {Ctx.intern("z"), domain::AbsVal<CD>::number(CD::top())}};
  auto R = analyzeDirect(Ctx, "(let (a (if0 z 7 7)) a)", Init);
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "7");
}

TEST(DirectAnalyzer, ApplicationJoinsAllCallees) {
  Context Ctx;
  // f may be either constant closure; the call result merges to top.
  auto R = analyzeDirect(
      Ctx, "(let (f (if0 z (lambda (d0) 0) (lambda (d1) 1))) "
           "(let (a (f 9)) a))",
      {{Ctx.intern("z"), domain::AbsVal<CD>::number(CD::top())}});
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "T");
  // The call site saw both closures.
  ASSERT_EQ(R.Cfg.Callees.size(), 1u);
  EXPECT_EQ(R.Cfg.Callees.begin()->second.size(), 2u);
  // Both parameters received 9.
  EXPECT_EQ(CD::str(R.valueOf(Ctx.intern("d0")).Num), "9");
  EXPECT_EQ(CD::str(R.valueOf(Ctx.intern("d1")).Num), "9");
}

TEST(DirectAnalyzer, PrimitivesAreAbstractClosures) {
  Context Ctx;
  auto R = analyzeDirect(Ctx, "(let (p add1) (let (a (p 4)) a))");
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "5");
  EXPECT_TRUE(
      R.valueOf(Ctx.intern("p")).Clos.contains(domain::CloRef::inc()));
}

TEST(DirectAnalyzer, DeadApplicationKillsTheRestOfTheChain) {
  Context Ctx;
  // Applying a number: no abstract closures, so the chain after the
  // binding is dead and the answer is bottom.
  auto R = analyzeDirect(Ctx, "(let (a (1 2)) (let (b 5) b))");
  EXPECT_TRUE(R.Answer.Value.isBot());
  EXPECT_TRUE(R.valueOf(Ctx.intern("b")).isBot());
}

TEST(DirectAnalyzer, LoopRuleIsExactAndComplete) {
  Context Ctx;
  auto R = analyzeDirect(Ctx, "(let (x (loop)) (let (y (add1 x)) y))");
  EXPECT_EQ(CD::str(R.valueOf(Ctx.intern("x")).Num), "T");
  EXPECT_TRUE(R.Stats.complete());
  EXPECT_FALSE(R.Stats.LoopBounded);
}

TEST(DirectAnalyzer, BudgetExhaustionIsReported) {
  Context Ctx;
  Witness W = gen::conditionalChain(Ctx, 8);
  AnalyzerOptions Opts;
  Opts.MaxGoals = 10;
  auto R = DirectAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Opts).run();
  EXPECT_TRUE(R.Stats.BudgetExhausted);
  EXPECT_FALSE(R.Stats.complete());
}

TEST(DirectAnalyzer, MemoizationCountsCacheHits) {
  Context Ctx;
  // Both branches of the unknown conditional apply the same closure to
  // the same argument *from the same store*, so the second branch's body
  // goal is answered from the memo table.
  auto R = analyzeDirect(
      Ctx,
      "(let (f (lambda (p) p)) "
      "(let (c (if0 z (let (u (f 1)) u) (let (v (f 1)) v))) c))",
      {{Ctx.intern("z"), domain::AbsVal<CD>::number(CD::top())}});
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "1");
  EXPECT_GT(R.Stats.CacheHits, 0u);
}

TEST(DirectAnalyzer, SignDomainClient) {
  using SD = domain::SignDomain;
  Context Ctx;
  auto R = analyzeDirect<SD>(Ctx, "(let (x 3) (let (y (add1 x)) y))");
  EXPECT_EQ(SD::str(R.Answer.Value.Num), "+");
}

TEST(DirectAnalyzer, IntervalDomainClient) {
  using ID = domain::IntervalDomain;
  Context Ctx;
  // The exact loop rule: x covers all naturals; the probe stays a range.
  auto R = analyzeDirect<ID>(
      Ctx, "(let (x (loop)) (let (y (add1 x)) y))");
  EXPECT_EQ(ID::str(R.valueOf(Ctx.intern("x")).Num), "[0,+inf]");
  EXPECT_EQ(ID::str(R.valueOf(Ctx.intern("y")).Num), "[1,+inf]");

  // Branch join produces a range instead of the constant lattice's top.
  auto R2 = analyzeDirect<ID>(
      Ctx, "(let (a (if0 z 4 7)) a)",
      {{Ctx.intern("z"), domain::AbsVal<ID>::number(ID::top())}});
  EXPECT_EQ(ID::str(R2.Answer.Value.Num), "[4,7]");
}

TEST(DirectAnalyzer, ParityDomainClient) {
  using PD = domain::ParityDomain;
  Context Ctx;
  auto R = analyzeDirect<PD>(
      Ctx, "(let (x 4) (let (y (add1 x)) (let (w (add1 y)) w)))");
  EXPECT_EQ(PD::str(R.Answer.Value.Num), "even");
}

//===----------------------------------------------------------------------===//
// Semantic-CPS analyzer
//===----------------------------------------------------------------------===//

TEST(SemanticAnalyzer, DuplicatesBranchAnalyses) {
  Context Ctx;
  Witness W = theorem52a(Ctx);
  auto R = SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
  EXPECT_EQ(CD::str(R.valueOf(Ctx.intern("a2")).Num), "3");
  // Both branches of the first conditional were feasible.
  bool SawBoth = false;
  for (const auto &[If, BI] : R.Cfg.Branches)
    SawBoth |= BI.ThenFeasible && BI.ElseFeasible;
  EXPECT_TRUE(SawBoth);
}

TEST(SemanticAnalyzer, ExploresExponentiallyManyGoals) {
  Context Ctx;
  Witness W4 = gen::conditionalChain(Ctx, 4);
  Witness W8 = gen::conditionalChain(Ctx, 8);
  auto R4 =
      SemanticCpsAnalyzer<CD>(Ctx, W4.Anf, directBindings<CD>(W4)).run();
  auto R8 =
      SemanticCpsAnalyzer<CD>(Ctx, W8.Anf, directBindings<CD>(W8)).run();
  auto D4 = DirectAnalyzer<CD>(Ctx, W4.Anf, directBindings<CD>(W4)).run();
  auto D8 = DirectAnalyzer<CD>(Ctx, W8.Anf, directBindings<CD>(W8)).run();
  // Semantic goals grow much faster than direct goals (2^n vs n).
  double SemGrowth = double(R8.Stats.Goals) / double(R4.Stats.Goals);
  double DirGrowth = double(D8.Stats.Goals) / double(D4.Stats.Goals);
  EXPECT_GT(SemGrowth, 8.0);
  EXPECT_LT(DirGrowth, 4.0);
}

TEST(SemanticAnalyzer, LoopUnrollReportsTruncation) {
  Context Ctx;
  Witness W = gen::loopProbe(Ctx, 100); // probe beyond the default bound
  AnalyzerOptions Opts;
  Opts.LoopUnroll = 8;
  Opts.LoopSoundSummary = false;
  auto R =
      SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Opts).run();
  EXPECT_TRUE(R.Stats.LoopBounded);
  // With the bound below the probe the 7-branch is never seen: r = 9.
  EXPECT_EQ(CD::str(R.valueOf(W.Probe).Num), "9");

  // Crossing the probe changes the (supposedly converged) result — the
  // Section 6.2 undecidability in action.
  AnalyzerOptions Wide = Opts;
  Wide.LoopUnroll = 128;
  auto R2 =
      SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Wide).run();
  EXPECT_EQ(CD::str(R2.valueOf(W.Probe).Num), "T");
}

TEST(SemanticAnalyzer, LoopSummaryRestoresSoundness) {
  Context Ctx;
  Witness W = gen::loopProbe(Ctx, 100);
  AnalyzerOptions Opts;
  Opts.LoopUnroll = 8;
  Opts.LoopSoundSummary = true; // default
  auto R =
      SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Opts).run();
  // The summary iterate reaches both branches: r = T covers the exact
  // join {7, 9}.
  EXPECT_EQ(CD::str(R.valueOf(W.Probe).Num), "T");
}

//===----------------------------------------------------------------------===//
// Syntactic-CPS analyzer
//===----------------------------------------------------------------------===//

TEST(SyntacticAnalyzer, CollectsContinuationsAtKVars) {
  Context Ctx;
  Witness W = theorem51(Ctx);
  auto R = SyntacticCpsAnalyzer<CD>(Ctx, W.Cps, cpsBindings<CD>(W)).run();
  // The identity's k parameter collected both call sites' continuations.
  ASSERT_EQ(W.Cps.Lams.size(), 1u);
  Symbol K = W.Cps.Lams[0]->kparam();
  EXPECT_EQ(R.valueOf(K).Konts.size(), 2u);
}

TEST(SyntacticAnalyzer, StopContinuationYieldsTheAnswer) {
  Context Ctx;
  const syntax::Term *T = mustParse(Ctx, "(let (x (add1 1)) x)");
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue());
  auto R = SyntacticCpsAnalyzer<CD>(Ctx, *P).run();
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "2");
  EXPECT_TRUE(R.Stats.complete());
}

TEST(SyntacticAnalyzer, LoopkMirrorsSemanticLoop) {
  Context Ctx;
  Witness W = gen::loopProbe(Ctx, 100);
  AnalyzerOptions Opts;
  Opts.LoopUnroll = 8;
  Opts.LoopSoundSummary = false;
  auto R = SyntacticCpsAnalyzer<CD>(Ctx, W.Cps, cpsBindings<CD>(W), Opts).run();
  EXPECT_TRUE(R.Stats.LoopBounded);
  EXPECT_EQ(CD::str(R.valueOf(W.Probe).Num), "9");
}

TEST(SyntacticAnalyzer, UniverseIncludesStopAndAllKonts) {
  Context Ctx;
  Witness W = theorem52a(Ctx);
  SyntacticCpsAnalyzer<CD> A(Ctx, W.Cps, cpsBindings<CD>(W));
  EXPECT_TRUE(A.kontUniverse().contains(domain::KontRef::stop()));
  EXPECT_EQ(A.kontUniverse().size(), W.Cps.ContLams.size() + 1);
  EXPECT_TRUE(A.closureUniverse().contains(domain::CpsCloRef::inck()));
}

} // namespace

namespace {

TEST(DirectAnalyzer, DerivationSinkRecordsGoalsAndAnswers) {
  Context Ctx;
  std::vector<std::string> Derivation;
  AnalyzerOptions Opts;
  Opts.DerivationSink = &Derivation;
  const syntax::Term *T =
      cpsflow::test::mustParse(Ctx, "(let (x (add1 1)) x)");
  auto R = DirectAnalyzer<CD>(Ctx, T, {}, Opts).run();
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "2");
  ASSERT_FALSE(Derivation.empty());
  // Root goal shows the whole program and its answer.
  EXPECT_NE(Derivation[0].find("(let (x (add1 1)) x)"), std::string::npos);
  EXPECT_NE(Derivation[0].find("|- (2, {})"), std::string::npos);
}

TEST(DirectAnalyzer, DerivationSinkMarksDeadGoals) {
  Context Ctx;
  std::vector<std::string> Derivation;
  AnalyzerOptions Opts;
  Opts.DerivationSink = &Derivation;
  const syntax::Term *T =
      cpsflow::test::mustParse(Ctx, "(let (a (1 2)) a)");
  (void)DirectAnalyzer<CD>(Ctx, T, {}, Opts).run();
  bool SawDead = false;
  for (const std::string &Line : Derivation)
    SawDead |= Line.find("|- dead") != std::string::npos;
  EXPECT_TRUE(SawDead);
}

/// The derivation of a seven-goal program, capped at four lines,
/// recorded by \p Analyzer.
template <typename Analyzer>
std::vector<std::string> cappedDerivation(Context &Ctx,
                                          const syntax::Term *&T,
                                          uint64_t &Goals) {
  std::vector<std::string> Derivation;
  AnalyzerOptions Opts;
  Opts.DerivationSink = &Derivation;
  Opts.DerivationMaxLines = 4;
  T = cpsflow::test::mustParse(
      Ctx, "(let (a (add1 1)) (let (b (add1 a)) (let (c (add1 b))"
           " (let (d (add1 c)) (let (e (add1 d)) (let (f (add1 e)) f))))))");
  Goals = Analyzer(Ctx, T, {}, Opts).run().Stats.Goals;
  return Derivation;
}

/// True iff \p A is one rendered answer: "dead", or a single
/// parenthesized value that closes at its last character.
bool isOneAnswer(std::string_view A) {
  if (A == "dead")
    return true;
  if (A.empty() || A.front() != '(')
    return false;
  int Depth = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    Depth += A[I] == '(' ? 1 : A[I] == ')' ? -1 : 0;
    if (Depth == 0)
      return I + 1 == A.size();
  }
  return false;
}

/// Every recorded line ends in exactly one "|- <answer>"; goals past the
/// cap leave the recorded lines alone. \p PathsPrefix is the pushdown
/// rendering's "N path(s), first " lead-in.
void expectEachLineClosedOnce(const std::vector<std::string> &Lines,
                              bool PathsPrefix) {
  ASSERT_EQ(Lines.size(), 4u);
  for (const std::string &Line : Lines) {
    size_t At = Line.find("|- ");
    ASSERT_NE(At, std::string::npos) << Line;
    EXPECT_EQ(Line.find("|- ", At + 1), std::string::npos) << Line;
    std::string_view A = std::string_view(Line).substr(At + 3);
    if (PathsPrefix && A != "dead") {
      size_t First = A.find(" path(s), first ");
      ASSERT_NE(First, std::string_view::npos) << Line;
      A = A.substr(First + 16);
    }
    EXPECT_TRUE(isOneAnswer(A)) << Line;
  }
}

TEST(DirectAnalyzer, CappedDerivationSinkClosesEachLineOnce) {
  Context Ctx;
  const syntax::Term *T = nullptr;
  uint64_t Goals = 0;
  std::vector<std::string> Lines =
      cappedDerivation<DirectAnalyzer<CD>>(Ctx, T, Goals);
  EXPECT_GT(Goals, 4u);
  expectEachLineClosedOnce(Lines, /*PathsPrefix=*/false);
  EXPECT_EQ(Lines[0], "(" + syntax::print(Ctx, T) + ", sigma) |- (7, {})");
}

TEST(PushdownAnalyzer, CappedDerivationSinkClosesEachLineOnce) {
  Context Ctx;
  const syntax::Term *T = nullptr;
  uint64_t Goals = 0;
  std::vector<std::string> Lines =
      cappedDerivation<PushdownAnalyzer<CD>>(Ctx, T, Goals);
  EXPECT_GT(Goals, 4u);
  expectEachLineClosedOnce(Lines, /*PathsPrefix=*/true);
  EXPECT_EQ(Lines[0], "(" + syntax::print(Ctx, T) +
                          ", sigma) |- 1 path(s), first (7, {})");
}

} // namespace
