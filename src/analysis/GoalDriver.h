//===- analysis/GoalDriver.h - The Section 4.4 goal skeleton ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one copy of the Section 4.4 goal discipline that the five analyzers
/// share. The analyzers differ only in their transfer rules (Figures 4-6,
/// Section 6.3, and the pushdown analyzer); every proof goal of every one
/// of them goes through GoalDriver::solve, which, in order:
///
///  1. answers with the cut value when a resource limit already tripped;
///  2. counts the goal (Stats.Goals, the AnalyzerGoal fault site) and asks
///     the governor, cutting the goal on a trip;
///  3. records MaxDepth and calls the per-goal observability hook;
///  4. answers from the memo table of completed subderivations;
///  5. cuts a goal whose active key is already on the derivation path,
///     handing the cut the ancestor's depth (the answer depends on it);
///  6. otherwise walks the goal's rule with the goal on the active path;
///  7. memoizes the answer when it depended on no ancestor outside the
///     walk (MinDep >= Depth) and no limit tripped, and marks it
///     Unconstrained for the caller.
///
/// The driver owns the governor, the memo table and the active set. The
/// analyzer supplies everything else through a small hook object passed
/// to solve(), a struct of inline member functions; solve() is a template
/// over it, so the hooks inline into the goal path (no std::function, no
/// virtual call per goal). A hook object \c G provides:
///
///  * data members `Sigma` (the goal's store id) and `Depth`;
///  * `key()` — the memo key; `activeKey()` (optional) — the active-set
///    key when it is coarser (semantic-CPS cuts on (term, store) but
///    memoizes on (term, continuation, store); dup drops the credit);
///  * `storeBytes()` — the interner footprint the governor checks;
///  * `exhausted(R)` — the answer of step 1/2 (R is the tripped limit);
///  * `hit(V)` — the answer from memo value V;
///  * `cut(AncestorDepth)` — the Section 4.4 cut answer;
///  * `walk()` — the goal's transfer rule; its result has a `MinDep`;
///  * `memoValue(Out)` — what step 7 stores in the memo table;
///  * `beforeWalk()` (optional) — a non-empty result answers the goal
///    without walking it (the syntactic engine's summary reuse);
///  * `afterWalk(Out, Memoized)` (optional) — runs after step 7;
///    Memoized says whether the answer entered the memo table;
///  * `derivationTerm()` / `derivationAnswer(Out)` (optional) — the
///    AnalyzerOptions::DerivationSink line of the goal.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_GOALDRIVER_H
#define CPSFLOW_ANALYSIS_GOALDRIVER_H

#include "analysis/Common.h"
#include "support/FaultInjector.h"
#include "support/Governor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// The MinDep of an answer that depends on no active ancestor: it is
/// context-independent, so it may be memoized.
inline constexpr uint32_t Unconstrained =
    std::numeric_limits<uint32_t>::max();

/// The Section 4.4 goal skeleton over memo table Key -> MemoVal and active
/// set ActiveKey -> ancestor depth. Holds references to the analyzer's
/// options and statistics, so it is neither copied nor moved.
template <typename Key, typename Hash, typename MemoVal,
          typename ActiveKey = Key, typename ActiveHash = Hash>
class GoalDriver {
public:
  GoalDriver(const AnalyzerOptions &Opts, AnalyzerStats &Stats)
      : Opts(Opts), Stats(Stats), Gov(Opts.Governor, Opts.MaxGoals) {}
  GoalDriver(const GoalDriver &) = delete;
  GoalDriver &operator=(const GoalDriver &) = delete;

  /// Proves the goal \p G describes (see the file comment).
  template <typename Goal> auto solve(const Goal &G) -> decltype(G.walk()) {
    using Out = decltype(G.walk());
    if (Stats.BudgetExhausted)
      return G.exhausted(Stats.Degraded);
    ++Stats.Goals;
    CPSFLOW_FAULT_COUNTED(fault::Site::AnalyzerGoal, Stats.Goals);
    if (support::DegradeReason R =
            Gov.check(Stats.Goals, G.Depth, G.storeBytes());
        R != support::DegradeReason::None) {
      Stats.BudgetExhausted = true;
      Stats.Degraded = R;
      return G.exhausted(R);
    }
    Stats.MaxDepth = std::max<uint64_t>(Stats.MaxDepth, G.Depth);

    const Key K = G.key();
    observeGoal(Opts, Stats, G.Depth, G.Sigma,
                [&] { return Opts.UseMemo && Memo.count(K) != 0; });
    if (Opts.UseMemo)
      if (auto It = Memo.find(K); It != Memo.end()) {
        ++Stats.CacheHits;
        return G.hit(It->second);
      }
    const ActiveKey AK = activeKeyOf(G);
    if (auto It = Active.find(AK); It != Active.end()) {
      ++Stats.Cuts;
      return G.cut(It->second);
    }
    if constexpr (requires { G.beforeWalk(); })
      if (std::optional<Out> Reused = G.beforeWalk())
        return std::move(*Reused);
    size_t Line = openDerivation(G);

    Active.emplace(AK, G.Depth);
    Out O = G.walk();
    Active.erase(AK);

    closeDerivation(G, Line, O);
    bool Memoized = false;
    if (O.MinDep >= G.Depth && !Stats.BudgetExhausted) {
      if (Opts.UseMemo) {
        Memo.emplace(K, G.memoValue(O));
        Memoized = true;
      }
      O.MinDep = Unconstrained;
    }
    if constexpr (requires { G.afterWalk(O, Memoized); })
      G.afterWalk(O, Memoized);
    return O;
  }

  /// Completed subderivations (the syntactic engine's summary validation
  /// reads them, and a pinned summary reuse adds to them).
  std::unordered_map<Key, MemoVal, Hash> &memo() { return Memo; }
  /// Goals on the active derivation path, with their depths.
  const std::unordered_map<ActiveKey, uint32_t, ActiveHash> &active() const {
    return Active;
  }

private:
  /// Line index of a goal the full DerivationSink did not record.
  static constexpr size_t NotRecorded = std::numeric_limits<size_t>::max();

  template <typename Goal> static ActiveKey activeKeyOf(const Goal &G) {
    if constexpr (requires { G.activeKey(); })
      return G.activeKey();
    else
      return G.key();
  }

  /// Appends the goal's open line "(M, sigma) |- ..." to the sink while
  /// it has room; returns its index, or NotRecorded.
  template <typename Goal> size_t openDerivation(const Goal &G) {
    if constexpr (requires { G.derivationTerm(); }) {
      std::vector<std::string> *Sink = Opts.DerivationSink;
      if (Sink && Sink->size() < Opts.DerivationMaxLines) {
        Sink->push_back(std::string(std::min<uint32_t>(G.Depth, 40), ' ') +
                        "(" + G.derivationTerm() + ", sigma) |- ...");
        return Sink->size() - 1;
      }
    }
    return NotRecorded;
  }

  /// Replaces the "..." of line \p Line with the goal's answer.
  template <typename Goal, typename Out>
  void closeDerivation(const Goal &G, size_t Line, const Out &O) {
    if constexpr (requires { G.derivationAnswer(O); })
      if (Line != NotRecorded) {
        std::string &L = (*Opts.DerivationSink)[Line];
        L.resize(L.size() - 3);
        L += G.derivationAnswer(O);
      }
  }

  const AnalyzerOptions &Opts;
  AnalyzerStats &Stats;
  support::Governor Gov;
  std::unordered_map<Key, MemoVal, Hash> Memo;
  std::unordered_map<ActiveKey, uint32_t, ActiveHash> Active;
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_GOALDRIVER_H
