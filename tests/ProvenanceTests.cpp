//===- tests/ProvenanceTests.cpp - Provenance gating ------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The provenance recorder must be a pure observer: attaching it to any
/// of the four analyzers may not change the final store, the answer, or a
/// single work counter, on any committed corpus program (the PR-3 Metrics
/// gating test, extended to the derivation recorder). Also covers the
/// recorder's own arena semantics: first-win facts and origins, the
/// copy-on-write no-op, and reset().
///
//===----------------------------------------------------------------------===//

#include "analysis/DirectAnalyzer.h"
#include "analysis/DupAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "analysis/Witnesses.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "domain/Provenance.h"
#include "gen/Workloads.h"
#include "syntax/Analysis.h"
#include "syntax/Sugar.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace cpsflow;
using CD = domain::ConstantDomain;

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

/// Every observable field of AnalyzerStats, including the Joins and
/// CallMerges loss counters this PR adds — those are maintained
/// unconditionally and so must also be identical with the recorder on.
void expectStatsIdentical(const analysis::AnalyzerStats &A,
                          const analysis::AnalyzerStats &B) {
  EXPECT_EQ(A.Goals, B.Goals);
  EXPECT_EQ(A.CacheHits, B.CacheHits);
  EXPECT_EQ(A.Cuts, B.Cuts);
  EXPECT_EQ(A.Joins, B.Joins);
  EXPECT_EQ(A.CallMerges, B.CallMerges);
  EXPECT_EQ(A.MaxDepth, B.MaxDepth);
  EXPECT_EQ(A.DeadPaths, B.DeadPaths);
  EXPECT_EQ(A.PrunedBranches, B.PrunedBranches);
  EXPECT_EQ(A.MemoEntries, B.MemoEntries);
  EXPECT_EQ(A.InternedStores, B.InternedStores);
  EXPECT_EQ(A.InternerBytes, B.InternerBytes);
  EXPECT_EQ(A.LoopBounded, B.LoopBounded);
  EXPECT_EQ(A.BudgetExhausted, B.BudgetExhausted);
  EXPECT_EQ(A.Degraded, B.Degraded);
}

/// Runs one analyzer twice — recorder off, recorder on — and requires
/// byte-identical results. \p Run is called with the options to use.
template <typename RunFn>
void expectGated(const char *Leg, const analysis::AnalyzerOptions &Base,
                 const RunFn &Run) {
  SCOPED_TRACE(Leg);
  domain::Provenance Prov;
  analysis::AnalyzerOptions With = Base;
  With.Prov = &Prov;
  auto Off = Run(Base);
  auto On = Run(With);
  EXPECT_TRUE(Off.Answer == On.Answer);
  expectStatsIdentical(Off.Stats, On.Stats);
  // The enabled run must actually have recorded something (otherwise the
  // test only proves the recorder was never attached).
  EXPECT_GT(Prov.size(), 0u);
  EXPECT_NE(Prov.finalStore(), domain::NoStore);
}

void checkProgram(const fs::path &Path) {
  SCOPED_TRACE(Path.filename().string());
  Context Ctx;
  Result<const syntax::Term *> Raw =
      syntax::parseSugaredProgram(Ctx, slurp(Path));
  ASSERT_TRUE(Raw.hasValue());
  const syntax::Term *T = anf::normalizeProgram(Ctx, *Raw);
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue());

  std::vector<analysis::DirectBinding<CD>> Init;
  for (Symbol X : syntax::freeVars(T))
    Init.push_back({X, domain::AbsVal<CD>::number(CD::top())});
  std::vector<analysis::CpsBinding<CD>> CInit;
  for (const analysis::DirectBinding<CD> &B : Init)
    CInit.push_back({B.Var, analysis::deltaE<CD>(B.Value, *P)});

  analysis::AnalyzerOptions AOpts;
  AOpts.MaxGoals = 5'000'000;

  expectGated("direct", AOpts, [&](const analysis::AnalyzerOptions &O) {
    return analysis::DirectAnalyzer<CD>(Ctx, T, Init, O).run();
  });
  expectGated("semantic", AOpts, [&](const analysis::AnalyzerOptions &O) {
    return analysis::SemanticCpsAnalyzer<CD>(Ctx, T, Init, O).run();
  });
  expectGated("syntactic", AOpts, [&](const analysis::AnalyzerOptions &O) {
    return analysis::SyntacticCpsAnalyzer<CD>(Ctx, *P, CInit, O).run();
  });
  expectGated("dup", AOpts, [&](const analysis::AnalyzerOptions &O) {
    return analysis::DupAnalyzer<CD>(Ctx, T, Init, /*Budget=*/2, O).run();
  });
}

TEST(Provenance, RecorderNeverPerturbsAnyAnalyzerOnCorpus) {
  std::vector<fs::path> Files = corpusFiles();
  ASSERT_FALSE(Files.empty());
  for (const fs::path &P : Files)
    checkProgram(P);
}

TEST(Provenance, RecorderNeverPerturbsAnalyzersOnWitnesses) {
  Context Ctx;
  for (auto *Make : {analysis::theorem51, analysis::theorem52a,
                     analysis::theorem52b}) {
    analysis::Witness W = Make(Ctx);
    SCOPED_TRACE(W.Name);
    analysis::AnalyzerOptions AOpts;
    auto Init = analysis::directBindings<CD>(W);
    auto CInit = analysis::cpsBindings<CD>(W);
    expectGated("direct", AOpts, [&](const analysis::AnalyzerOptions &O) {
      return analysis::DirectAnalyzer<CD>(Ctx, W.Anf, Init, O).run();
    });
    expectGated("semantic", AOpts, [&](const analysis::AnalyzerOptions &O) {
      return analysis::SemanticCpsAnalyzer<CD>(Ctx, W.Anf, Init, O).run();
    });
    expectGated("syntactic",
                AOpts, [&](const analysis::AnalyzerOptions &O) {
                  return analysis::SyntacticCpsAnalyzer<CD>(Ctx, W.Cps,
                                                            CInit, O)
                      .run();
                });
    expectGated("dup", AOpts, [&](const analysis::AnalyzerOptions &O) {
      return analysis::DupAnalyzer<CD>(Ctx, W.Anf, Init, 2, O).run();
    });
  }
}

/// A continuation universe past 128 elements puts the syntactic leg on
/// the WideBits set type; recording must not perturb that run either.
TEST(Provenance, RecorderNeverPerturbsWideUniverseRun) {
  Context Ctx;
  analysis::Witness W = gen::convergingChain(Ctx, 200);
  auto CInit = analysis::cpsBindings<CD>(W);
  ASSERT_GT(analysis::SyntacticCpsAnalyzer<CD>(Ctx, W.Cps, CInit)
                .kontUniverse()
                .size(),
            size_t(domain::Bits128::Capacity));
  analysis::AnalyzerOptions AOpts;
  expectGated("syntactic", AOpts, [&](const analysis::AnalyzerOptions &O) {
    return analysis::SyntacticCpsAnalyzer<CD>(Ctx, W.Cps, CInit, O).run();
  });
}

TEST(Provenance, AssignRecordsFirstWinFactsAndOrigins) {
  domain::Provenance P;
  // Store 1 produced from store 0 by writing slot 3.
  domain::ProvId A = P.assign(domain::EdgeKind::Flow, 3, 1, 0, 7,
                              SourceLoc{2, 5});
  ASSERT_NE(A, domain::NoProv);
  EXPECT_EQ(P.factOf(3, 1), A);
  EXPECT_EQ(P.originOf(1), A);
  EXPECT_EQ(P.edge(A).Kind, domain::EdgeKind::Flow);
  EXPECT_EQ(P.edge(A).Slot, 3u);
  EXPECT_EQ(P.edge(A).NodeId, 7u);
  // A second event producing the same (slot, store) does not overwrite —
  // first-win, mirroring the interner's dedup.
  domain::ProvId B = P.assign(domain::EdgeKind::Join, 3, 1, 0, 9,
                              SourceLoc{4, 1});
  EXPECT_NE(B, A);
  EXPECT_EQ(P.factOf(3, 1), A);
  EXPECT_EQ(P.originOf(1), A);
  // Unknown queries are NoProv, not crashes.
  EXPECT_EQ(P.factOf(99, 1), domain::NoProv);
  EXPECT_EQ(P.originOf(42), domain::NoProv);
}

TEST(Provenance, CopyOnWriteNoOpReturnsExistingFact) {
  domain::Provenance P;
  domain::ProvId A =
      P.assign(domain::EdgeKind::Flow, 0, 1, 0, 1, SourceLoc{});
  // joinAt returned its base unchanged: no new edge, the standing fact
  // (if any) is the answer.
  size_t Before = P.size();
  EXPECT_EQ(P.assign(domain::EdgeKind::Flow, 0, 1, 1, 2, SourceLoc{}), A);
  EXPECT_EQ(P.size(), Before);
  // Merges where one parent subsumed the other record nothing either.
  P.merge(1, 1, 0, domain::EdgeKind::Join, 3, SourceLoc{});
  EXPECT_EQ(P.size(), Before);
  EXPECT_EQ(P.originOf(1), A);
}

TEST(Provenance, MemoSideTableIsExactOnNodeAndStore) {
  domain::Provenance P;
  int N1 = 0, N2 = 0; // two distinct "AST node" addresses
  P.memoize(&N1, 5, 11);
  P.memoize(&N2, 5, 22);
  P.memoize(&N1, 6, 33);
  EXPECT_EQ(P.memoized(&N1, 5), 11u);
  EXPECT_EQ(P.memoized(&N2, 5), 22u);
  EXPECT_EQ(P.memoized(&N1, 6), 33u);
  EXPECT_EQ(P.memoized(&N2, 6), domain::NoProv);
  P.memoize(&N1, 5, 99); // first-win
  EXPECT_EQ(P.memoized(&N1, 5), 11u);
  P.reset();
  EXPECT_EQ(P.size(), 0u);
  EXPECT_EQ(P.memoized(&N1, 5), domain::NoProv);
  EXPECT_EQ(P.finalStore(), domain::NoStore);
}

} // namespace
