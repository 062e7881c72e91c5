//===- analysis/Common.h - Shared analyzer infrastructure -------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the five analyzers (the abstract collecting
/// interpreters of Figures 4-6, the Section 6.3 bounded-duplication
/// analyzer, and the pushdown analyzer): abstract answers, analyzer
/// options, and run statistics.
///
/// An abstract answer pairs an abstract value with an abstract store,
/// ordered component-wise (Section 4.2). The statistics expose the
/// quantities the Section 6 discussion is about — how many proof goals a
/// derivation needs (the duplication cost) and how often the Section 4.4
/// loop detection fires.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_COMMON_H
#define CPSFLOW_ANALYSIS_COMMON_H

#include "domain/AbsStore.h"
#include "domain/AbsValue.h"
#include "domain/Provenance.h"
#include "domain/StoreInterner.h"
#include "support/FaultInjector.h"
#include "support/Governor.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cpsflow {
namespace analysis {

/// An abstract answer: a value paired with a store, ordered and joined
/// component-wise. \p V is an AbsVal or CpsAbsVal instantiation.
template <typename V> struct AnswerOf {
  V Value;
  domain::AbsStore<V> Store;

  static AnswerOf join(const AnswerOf &A, const AnswerOf &B) {
    return AnswerOf{V::join(A.Value, B.Value),
                    domain::AbsStore<V>::join(A.Store, B.Store)};
  }

  static bool leq(const AnswerOf &A, const AnswerOf &B) {
    return V::leq(A.Value, B.Value) &&
           domain::AbsStore<V>::leq(A.Store, B.Store);
  }

  friend bool operator==(const AnswerOf &A, const AnswerOf &B) {
    return A.Value == B.Value && A.Store == B.Store;
  }
  friend bool operator!=(const AnswerOf &A, const AnswerOf &B) {
    return !(A == B);
  }
};

/// The analyzers' in-flight representation of an answer: the store half
/// lives in the run's StoreInterner and is carried by id. Converted to a
/// dense AnswerOf only when a result leaves the analyzer (run()).
template <typename V> struct InternedAnswerOf {
  V Value;
  domain::StoreId Store;
};

/// Joins two interned answers component-wise through \p In.
template <typename V>
InternedAnswerOf<V> joinAnswers(domain::StoreInterner<V> &In,
                                const InternedAnswerOf<V> &A,
                                const InternedAnswerOf<V> &B) {
  return InternedAnswerOf<V>{V::join(A.Value, B.Value),
                             In.join(A.Store, B.Store)};
}

/// Provenance-aware variant: additionally records the store merge in
/// \p Prov (which must be non-null) so a later explain walk can traverse
/// the merged store back to both parents. The store result is identical
/// to the plain overload — only the recording differs.
template <typename V>
InternedAnswerOf<V> joinAnswers(domain::StoreInterner<V> &In,
                                const InternedAnswerOf<V> &A,
                                const InternedAnswerOf<V> &B,
                                domain::Provenance *Prov,
                                domain::EdgeKind Kind, uint32_t NodeId,
                                SourceLoc Loc) {
  InternedAnswerOf<V> Out{V::join(A.Value, B.Value),
                          In.join(A.Store, B.Store)};
  Prov->merge(Out.Store, A.Store, B.Store, Kind, NodeId, Loc);
  return Out;
}

/// Knobs for an analyzer run.
struct AnalyzerOptions {
  /// Hard bound on the number of proof goals; exceeding it aborts the
  /// analysis with Stats.BudgetExhausted set (the result degrades to a
  /// sound-but-imprecise cut value at the point of exhaustion).
  uint64_t MaxGoals = 50'000'000;

  /// Unrolling bound for the CPS analyzers' `loop` rule. The paper shows
  /// the exact rule — the join of applying the continuation to every
  /// natural number — is not computable (Section 6.2), so the CPS
  /// analyzers approximate it by joining the first LoopUnroll iterates;
  /// Stats.LoopBounded reports whether the join was still moving at the
  /// bound.
  uint32_t LoopUnroll = 64;

  /// When true (default), each `loop` in the CPS analyzers additionally
  /// runs the continuation on the domain's naturals() summary, making the
  /// bounded join a sound over-approximation of the exact (uncomputable)
  /// rule. Turn off to expose the raw bounded join (bench E7). The direct
  /// analyzer ignores this: its loop rule is exact and computable.
  bool LoopSoundSummary = true;

  /// When non-null, the direct and pushdown analyzers append a rendering
  /// of their derivation tree here (one line per walked goal, indented by
  /// depth, with the goal's answer) — the abstract analogue of the Figure
  /// 4 derivations. The other analyzers ignore it. Capped at
  /// DerivationMaxLines: goals past the cap are not recorded. Intended
  /// for small programs.
  std::vector<std::string> *DerivationSink = nullptr;
  /// Cap for DerivationSink.
  size_t DerivationMaxLines = 2000;

  /// When false, disable the memo table of completed subderivations (the
  /// Section 4.4 cut and its active-path set stay on — they are what
  /// guarantees termination). Results are unchanged; only cost differs.
  /// Exists for the memoization ablation (bench E11): memoization
  /// collapses duplicated analyses whose paths *reconverge* on the same
  /// store, but cannot help when the duplicated stores genuinely differ —
  /// the paper's exponential examples stay exponential.
  bool UseMemo = true;

  /// When true, the syntactic-CPS analyzer additionally reuses
  /// *generalizing* summaries: each completed walk of a goal records its
  /// entry store, the store slots it read, the goals it touched, and the
  /// ancestor cut-offs it depended on; a later goal for the same term
  /// whose store agrees on the read slots (and whose active-path
  /// environment matches the recorded cut fingerprint) replays the
  /// summary as a table lookup instead of re-walking the continuation
  /// body — the Theorem 5.1 call-merge re-analysis becomes O(1) per
  /// continuation. Answers are bitwise unchanged (DESIGN.md §12 gives
  /// the exactness argument); only goal counts and wall time differ, so
  /// the default is off and the seed-pinned statistics stay intact. The
  /// CLI and batch drivers turn it on (opt out with --no-summaries).
  /// Only the syntactic analyzer reads this flag.
  bool UseSummaries = false;

  /// Resource-governor limits beyond MaxGoals: wall-clock deadline,
  /// interner memory ceiling, goal-stack depth cap, and a cooperative
  /// cancellation token. Any trip degrades the run exactly like the
  /// MaxGoals path but records which wall was hit in Stats.Degraded.
  /// Default limits govern nothing.
  support::GovernorLimits Governor;

  /// When non-null, the run records per-goal and end-of-run metrics here
  /// (DESIGN.md §9): goal/cut/cache counters, memo occupancy, interner
  /// live/peak bytes, and goal-depth / store-width histograms. Null (the
  /// default) costs one predicted-false pointer test per goal.
  support::MetricsRegistry *Metrics = nullptr;

  /// When non-null, the run emits sampled per-goal instant events (depth,
  /// store id, memo-hit) to this tracer, one every TraceSampleEvery
  /// goals. Phase spans around the run are the caller's job (the CLI and
  /// batch driver wrap parse/ANF/CPS/analyze in TraceSpans). Null (the
  /// default) costs one predicted-false pointer test per goal.
  support::Tracer *Trace = nullptr;
  /// Per-goal sampling period for Trace (>= 1). Small periods make big
  /// traces; 256 keeps a million-goal run around 4k events.
  uint32_t TraceSampleEvery = 256;
  /// Track id the analyzers stamp on sampled events (the batch driver
  /// sets it to the worker id so each worker gets its own trace track).
  uint32_t TraceTid = 0;

  /// When non-null, the run records a derivation edge for every abstract
  /// fact it establishes — the provenance graph behind `cpsflow explain`
  /// and the compare-mode loss attribution (docs/EXPLAIN.md). Null (the
  /// default) costs one predicted-false pointer test per recording site;
  /// stores and all work counters are byte-identical either way
  /// (tests/ProvenanceTests.cpp).
  domain::Provenance *Prov = nullptr;
};

/// Counters describing one analyzer run.
struct AnalyzerStats {
  /// Proof goals attempted (evaluation judgments instantiated). This is
  /// the cost measure of the Section 6.2 duplication discussion.
  uint64_t Goals = 0;
  /// Goals answered from the memo table of completed, non-provisional
  /// subderivations.
  uint64_t CacheHits = 0;
  /// Section 4.4 loop cut-offs: goals whose (term, store) key was already
  /// on the active derivation path, answered with the least precise value.
  uint64_t Cuts = 0;
  /// Deepest active derivation path.
  uint64_t MaxDepth = 0;
  /// Join-over-zero-paths events: applications whose operator had no
  /// abstract closures (and, for the syntactic analyzer, returns through
  /// an empty continuation set). When this is non-zero the program has
  /// dead/stuck paths, and the Theorem 5.4 *equality* for distributive
  /// analyses need not hold exactly: the direct analysis keeps a dead
  /// path's store effects up to the point of death (MFP-style), while the
  /// per-path CPS analyses drop the whole path (MOP over completing
  /// paths). See DESIGN.md section 7.
  uint64_t DeadPaths = 0;
  /// Precision-loss joins performed: if0 evaluations that merged two
  /// feasible branches (the Theorem 5.2a loss site) and multi-callee
  /// application / final-answer merges (each k-way merge counts k-1).
  /// Counted unconditionally — identical with provenance on or off.
  uint64_t Joins = 0;
  /// Syntactic-CPS continuation-set unions applied at a return point with
  /// more than one collected continuation — the Theorem 5.1 "false
  /// return" loss site (each k-way set counts k-1). Always zero for the
  /// direct, semantic-CPS, and duplication analyzers.
  uint64_t CallMerges = 0;
  /// if0 evaluations that pruned a branch (single-feasible-branch rule).
  /// Value-dependent branch pruning is itself a non-distributive
  /// ingredient: a merged store may reach a branch no single path
  /// reaches, so the Theorem 5.4 *equality* for distributive domains is
  /// only guaranteed when this stays zero (see DESIGN.md section 7).
  uint64_t PrunedBranches = 0;
  /// True when any resource limit tripped — MaxGoals or one of the
  /// AnalyzerOptions::Governor limits (the analysis result is a sound
  /// over-approximation but not the paper-defined answer). Which wall was
  /// hit is in Degraded.
  bool BudgetExhausted = false;
  /// The structured reason for BudgetExhausted. The governed analyzers
  /// set it on every trip; the tests/reference seed oracles predate it
  /// and leave it None.
  support::DegradeReason Degraded = support::DegradeReason::None;
  /// True when a CPS analyzer evaluated a `loop` rule: the exact rule —
  /// the join over all naturals — is not computable (Section 6.2), so the
  /// reported result is a bounded approximation (a sound one if
  /// LoopSoundSummary was on, a lower one otherwise). The direct
  /// analyzer's loop rule is exact and never sets this.
  bool LoopBounded = false;

  // -- Observability counters (DESIGN.md §9). Filled by the governed
  // analyzers at the end of run(); the tests/reference seed oracles
  // predate them and leave them zero.

  /// Completed subderivations held in the memo table when the run ended.
  uint64_t MemoEntries = 0;
  /// Distinct abstract stores interned over the run — the quantity that
  /// explodes under Section 6.2 duplication.
  uint64_t InternedStores = 0;
  /// StoreInterner footprint estimate (approxBytes) when the run ended.
  uint64_t InternerBytes = 0;
  /// Peak StoreInterner footprint estimate over the run.
  uint64_t InternerPeakBytes = 0;

  // -- Continuation-summary counters. Only the syntactic analyzer with
  // AnalyzerOptions::UseSummaries on fills these; everywhere else they
  // stay zero.

  /// Goals answered by replaying a recorded continuation summary.
  uint64_t SummaryHits = 0;
  /// Goals that probed the summary table, found no reusable entry, and
  /// fell through to a full walk.
  uint64_t SummaryMisses = 0;
  /// Summaries held in the table when the run ended.
  uint64_t SummaryEntries = 0;

  /// Derivation depth at each summary reuse — how deep in the proof tree
  /// the cached continuation walks are being replayed.
  support::Histogram SummaryReuseDepth;

  /// True iff the run computed the paper-defined answer exactly.
  bool complete() const { return !BudgetExhausted && !LoopBounded; }
};

/// Per-goal observability hook shared by the five analyzers; called once
/// per proof goal, after the governor check. With both sinks disabled
/// (the default) the cost is two predicted-false pointer tests — the same
/// budget class as the governor's cheap path. \p IsMemoHit is a lazy
/// predicate so the extra memo probe is paid only on sampled goals.
template <typename IsMemoHitFn>
inline void observeGoal(const AnalyzerOptions &Opts,
                        const AnalyzerStats &Stats, uint32_t Depth,
                        domain::StoreId Store, IsMemoHitFn &&IsMemoHit) {
  if (Opts.Metrics)
    Opts.Metrics->histogram("goalDepth").record(Depth);
  if (Opts.Trace && Stats.Goals % Opts.TraceSampleEvery == 0)
    Opts.Trace->instant("goal", "analyze", Opts.TraceTid,
                        {{"goal", Stats.Goals},
                         {"depth", Depth},
                         {"store", Store},
                         {"memoHit", IsMemoHit() ? 1u : 0u}});
}

/// End-of-run bookkeeping shared by the five analyzers: copies the
/// interner/memo occupancy into \p Stats and, when a metrics registry is
/// attached, publishes the run's counters under their canonical names.
template <typename V>
inline void finalizeRunStats(AnalyzerStats &Stats,
                             const domain::StoreInterner<V> &Interner,
                             uint64_t MemoEntries,
                             const AnalyzerOptions &Opts) {
  Stats.MemoEntries = MemoEntries;
  Stats.InternedStores = Interner.size();
  Stats.InternerBytes = Interner.approxBytes();
  Stats.InternerPeakBytes = Interner.peakBytes();
  if (support::MetricsRegistry *M = Opts.Metrics) {
    M->set("goals", Stats.Goals);
    M->set("cacheHits", Stats.CacheHits);
    M->set("cuts", Stats.Cuts);
    M->set("joins", Stats.Joins);
    M->set("callMerges", Stats.CallMerges);
    M->set("maxDepth", Stats.MaxDepth);
    M->set("deadPaths", Stats.DeadPaths);
    M->set("prunedBranches", Stats.PrunedBranches);
    M->set("memoEntries", Stats.MemoEntries);
    M->set("stores", Stats.InternedStores);
    M->set("storeBytes", Stats.InternerBytes);
    M->setMax("storeBytesPeak", Stats.InternerPeakBytes);
  }
}

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_COMMON_H
