//===- tests/SummaryEquivalenceTests.cpp - Summary exactness ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Continuation summarization is an exact optimization: the syntactic-CPS
/// analyzer must produce bitwise-identical answers (value AND final
/// store) with summaries on or off, and both must match the pinned
/// reference analyzer — on every committed corpus program, in all five
/// numeric domains. The summaries-off leg additionally pins the full
/// work-counter profile (goals, cache hits, cuts, ...), because the flat
/// label-arena IR engine claims observational identity with the seed
/// reference analyzer, not just answer equality.
///
/// A perf smoke test keeps the point of the whole exercise honest: with
/// summaries on, arithmetic.scm — the corpus cliff program — must stay
/// well under the pre-summarization goal count (14,149 at the time this
/// was written).
///
//===----------------------------------------------------------------------===//

#include "analysis/Compare.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "gen/Generator.h"
#include "gen/Workloads.h"
#include "reference/RefSyntacticCpsAnalyzer.h"
#include "syntax/Analysis.h"
#include "syntax/Sugar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cpsflow;

namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> Out;
  for (const fs::directory_entry &E : fs::directory_iterator(
           fs::path(CPSFLOW_SOURCE_DIR) / "examples/corpus"))
    if (E.is_regular_file() && E.path().extension() == ".scm")
      Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string slurp(const fs::path &P) {
  std::ifstream In(P);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// One program/domain three ways: the reference walker, the
/// analyzer with summaries off (answers and work counters must agree),
/// and with summaries on (answers must agree; the counters then satisfy
/// the accounting identity hits + misses + cacheHits + cuts = goals).
template <typename D> void checkDomain(Context &Ctx, const cps::CpsProgram &P,
                                       const syntax::Term *T) {
  std::vector<analysis::CpsBinding<D>> CInit;
  for (Symbol X : syntax::freeVars(T)) {
    domain::AbsVal<D> V = domain::AbsVal<D>::number(D::top());
    CInit.push_back({X, analysis::deltaE<D>(V, P)});
  }

  analysis::AnalyzerOptions Ref;
  Ref.MaxGoals = 5'000'000;
  auto RefRes = refimpl::RefSyntacticCpsAnalyzer<D>(Ctx, P, CInit, Ref).run();

  analysis::AnalyzerOptions Off = Ref;
  Off.UseSummaries = false;
  auto OffRes = analysis::SyntacticCpsAnalyzer<D>(Ctx, P, CInit, Off).run();
  EXPECT_TRUE(OffRes.Answer == RefRes.Answer)
      << "summaries-off answer/store differs from the reference";
  EXPECT_EQ(OffRes.Stats.Goals, RefRes.Stats.Goals);
  EXPECT_EQ(OffRes.Stats.CacheHits, RefRes.Stats.CacheHits);
  EXPECT_EQ(OffRes.Stats.Cuts, RefRes.Stats.Cuts);
  EXPECT_EQ(OffRes.Stats.MaxDepth, RefRes.Stats.MaxDepth);
  EXPECT_EQ(OffRes.Stats.DeadPaths, RefRes.Stats.DeadPaths);
  EXPECT_EQ(OffRes.Stats.PrunedBranches, RefRes.Stats.PrunedBranches);
  EXPECT_EQ(OffRes.Stats.BudgetExhausted, RefRes.Stats.BudgetExhausted);
  EXPECT_EQ(OffRes.Stats.LoopBounded, RefRes.Stats.LoopBounded);

  analysis::AnalyzerOptions On = Ref;
  On.UseSummaries = true;
  auto OnRes = analysis::SyntacticCpsAnalyzer<D>(Ctx, P, CInit, On).run();
  EXPECT_TRUE(OnRes.Answer == RefRes.Answer)
      << "summarized answer/store differs from the reference";
  // Every counted goal lands in exactly one bucket, except the single
  // goal that trips the governor: it is counted, then answered with a
  // cut before classification (all later goals return pre-count).
  EXPECT_EQ(OnRes.Stats.SummaryHits + OnRes.Stats.SummaryMisses +
                OnRes.Stats.CacheHits + OnRes.Stats.Cuts +
                (OnRes.Stats.BudgetExhausted ? 1 : 0),
            OnRes.Stats.Goals)
      << "summary accounting identity violated";
  EXPECT_LE(OnRes.Stats.Goals, OffRes.Stats.Goals)
      << "summarization must never do MORE work";
}

void checkProgram(const fs::path &Path) {
  SCOPED_TRACE(Path.filename().string());
  Context Ctx;
  Result<const syntax::Term *> Raw =
      syntax::parseSugaredProgram(Ctx, slurp(Path));
  ASSERT_TRUE(Raw.hasValue())
      << (Raw.hasValue() ? "" : Raw.error().str());
  const syntax::Term *T = anf::normalizeProgram(Ctx, *Raw);
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue()) << (P.hasValue() ? "" : P.error().str());

  checkDomain<domain::ConstantDomain>(Ctx, *P, T);
  checkDomain<domain::UnitDomain>(Ctx, *P, T);
  checkDomain<domain::SignDomain>(Ctx, *P, T);
  checkDomain<domain::ParityDomain>(Ctx, *P, T);
  checkDomain<domain::IntervalDomain>(Ctx, *P, T);
}

TEST(SummaryEquivalence, CorpusAllDomainsOnAndOff) {
  std::vector<fs::path> Files = corpusFiles();
  ASSERT_FALSE(Files.empty());
  for (const fs::path &P : Files)
    checkProgram(P);
}

/// Programs whose continuation or closure universe passes 128
/// elements run on the WideBits set type; the same on/off/reference
/// contract holds there. The generated program runs in the constant
/// domain only: in the unit domain its summaries-off run walks ~470k
/// goals, more than the dense-store reference can hold in memory.
TEST(SummaryEquivalence, WideUniversesOnAndOff) {
  Context Ctx;
  gen::GenOptions Opts;
  Opts.Seed = 72;
  Opts.ChainLength = 10;
  Opts.WellTyped = true;
  const syntax::Term *Generated =
      gen::ProgramGenerator(Ctx, Opts).generate();
  for (const syntax::Term *T :
       {gen::closureTower(Ctx, 130).Anf, gen::convergingChain(Ctx, 200).Anf,
        Generated}) {
    Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
    ASSERT_TRUE(P.hasValue());
    analysis::SyntacticCpsAnalyzer<domain::ConstantDomain> Probe(Ctx, *P);
    EXPECT_GT(std::max(Probe.closureUniverse().size(),
                       Probe.kontUniverse().size()),
              size_t(domain::Bits128::Capacity));
    checkDomain<domain::ConstantDomain>(Ctx, *P, T);
    if (T == Generated)
      continue;
    checkDomain<domain::UnitDomain>(Ctx, *P, T);
    checkDomain<domain::SignDomain>(Ctx, *P, T);
    checkDomain<domain::ParityDomain>(Ctx, *P, T);
    checkDomain<domain::IntervalDomain>(Ctx, *P, T);
  }
}

/// The cliff program. Before summarization + the arena IR the syntactic
/// leg walked 14,149 goals; with summaries on it lands near the
/// exactness floor of ~8,700 (DESIGN.md §12), and this smoke test trips
/// well before a regression could erode the win back to the old cliff.
TEST(SummaryEquivalence, ArithmeticGoalsStayUnderSmokeCeiling) {
  Context Ctx;
  std::string Src =
      slurp(fs::path(CPSFLOW_SOURCE_DIR) / "examples/corpus/arithmetic.scm");
  Result<const syntax::Term *> Raw = syntax::parseSugaredProgram(Ctx, Src);
  ASSERT_TRUE(Raw.hasValue());
  const syntax::Term *T = anf::normalizeProgram(Ctx, *Raw);
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue());

  using D = domain::ConstantDomain;
  std::vector<analysis::CpsBinding<D>> CInit;
  for (Symbol X : syntax::freeVars(T))
    CInit.push_back(
        {X, analysis::deltaE<D>(domain::AbsVal<D>::number(D::top()), *P)});

  analysis::AnalyzerOptions On;
  On.MaxGoals = 5'000'000;
  On.UseSummaries = true;
  auto R = analysis::SyntacticCpsAnalyzer<D>(Ctx, *P, CInit, On).run();
  EXPECT_FALSE(R.Stats.BudgetExhausted);
  // Measured floor is ~8,700 goals: fixpoint confirmation re-walks
  // read genuinely different accumulator values, and an answer-exact
  // engine may not skip them (DESIGN.md §12). The ceiling guards a
  // wholesale return of the 14,149-goal cliff.
  EXPECT_LE(R.Stats.Goals, 9500u)
      << "the arithmetic.scm syntactic cliff is back";
  EXPECT_GT(R.Stats.SummaryHits, 0u);
}

} // namespace
