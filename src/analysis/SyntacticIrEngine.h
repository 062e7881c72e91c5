//===- analysis/SyntacticIrEngine.h - Arena-IR Figure 6 engine --*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine behind SyntacticCpsAnalyzer: the Figure 6 abstract
/// collecting interpreter, evaluated over the flat label-arena IR
/// (cps/CpsIr.h) with word-packed lattice values (domain/PackedSet.h)
/// and, optionally, continuation summarization.
///
/// With summaries off the engine performs the Figure 6 derivation goal
/// for goal. Because packing is an order-preserving lattice isomorphism
/// (universe bit index == SortedSet rank) and the packed interner sees
/// the join/intern events a pointer-tree walker over `CpsAbsVal` would,
/// its answers, CFG, and work counters equal the seed reference
/// analyzer's (tests/reference/RefSyntacticCpsAnalyzer.h) — pinned by
/// tests/InternEquivalenceTests.cpp, tests/SummaryEquivalenceTests.cpp
/// and fuzz oracle O4, on both packed set types.
///
/// With AnalyzerOptions::UseSummaries on, each completed walk of a goal
/// additionally records a *summary*: its entry store, result, the store
/// slots it read, the term labels it queried (split into queries at the
/// entry store vs strictly above it), and the labels it cut off against
/// ancestors *outside* the walk. A later goal for the same term reuses a
/// summary — without re-walking — when the replay would provably retrace
/// the recorded derivation:
///
///  * every slot the walk read holds the same value in the new entry
///    store (so every phi and every write repeats verbatim, and every
///    intermediate store is the recorded one joined with the unread
///    difference);
///  * every recorded outside-cut label is again active at the new entry
///    store, and was only ever queried at the entry store (by the
///    monotone-descent property, exact-store collisions are the only
///    collisions possible, so the recorded cuts re-fire and no others
///    appear for those labels);
///  * no other label that is active at the new entry store was queried
///    anywhere in the walk (a query recorded at a store between the old
///    and new entries could otherwise collide with an active goal the
///    recorded walk never saw).
///
/// DESIGN.md section 12 gives the full exactness argument. Summaries
/// change goal counts and wall time only — never answers — and are
/// bypassed when a provenance recorder is attached (reuse skips the
/// walk, so the derivation graph would be incomplete).
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_SYNTACTICIRENGINE_H
#define CPSFLOW_ANALYSIS_SYNTACTICIRENGINE_H

#include "analysis/Cfg.h"
#include "analysis/Common.h"
#include "cps/CpsIr.h"
#include "domain/AbsStore.h"
#include "domain/AbsValue.h"
#include "domain/PackedSet.h"
#include "domain/StoreInterner.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// One entry of the initial abstract store of a Figure 6 run (typically
/// the delta_e-image of a direct binding; see Compare.h).
template <typename D> struct CpsBinding {
  Symbol Var;
  domain::CpsAbsVal<D> Value;
};

/// Result of a Figure 6 run.
template <typename D> struct SyntacticResult {
  using Val = domain::CpsAbsVal<D>;

  AnswerOf<Val> Answer;
  AnalyzerStats Stats;
  CpsCfg Cfg;
  std::shared_ptr<domain::VarIndex> Vars;

  Val valueOf(Symbol X) const {
    if (auto I = Vars->tryOf(X))
      return Answer.Store.get(*I);
    return Val::bot();
  }
};

namespace detail {

/// The arena-IR engine over packed set type \p Set (domain/PackedSet.h).
/// Single-use; SyntacticCpsAnalyzer constructs it with the set type its
/// universe sizes call for.
template <typename D, typename Set> class SynIrEngine {
public:
  using Val = domain::CpsAbsVal<D>;
  using StoreT = domain::AbsStore<Val>;
  using Answer = AnswerOf<Val>;
  using PVal = domain::PackedCpsVal<D, Set>;
  using PStore = domain::AbsStore<PVal>;

  SynIrEngine(cps::CpsIr IrIn, std::shared_ptr<domain::VarIndex> VarsIn,
              const std::vector<CpsBinding<D>> &InitialIn, uint32_t TopKSlot,
              AnalyzerOptions Opts)
      : Ir(std::move(IrIn)), Vars(std::move(VarsIn)), TopKSlot(TopKSlot),
        Opts(Opts) {
    SummariesOn = this->Opts.UseSummaries && !this->Opts.Prov;
    PCloTop = Set::firstN(static_cast<uint32_t>(2 + Ir.Lams.size()));
    PKontTop = Set::firstN(static_cast<uint32_t>(1 + Ir.Conts.size()));
    packInitial(InitialIn);
    VarWords = (Vars->size() + 63) / 64;
    TermWords = (Ir.Terms.size() + 63) / 64;
    QEOff = VarWords;
    QFOff = VarWords + TermWords;
    QAOff = VarWords + 2 * TermWords;
    FpWords = VarWords + 3 * TermWords;
    Interner.attachMetrics(this->Opts.Metrics);
    Interner.reset(Vars->size());
    Acc.resize(Ir.Terms.size());
    if (SummariesOn) {
      SumByLabel.resize(Ir.Terms.size());
      SumArena.reserve(1024);
      FpArena.reserve(1024);
    }
  }

  SyntacticResult<D> run() {
    domain::StoreId Sigma0 = Interner.bottom();
    for (const auto &[Slot, Value] : Initial) {
      domain::StoreId Next = Interner.joinAt(Sigma0, Slot, Value);
      if (Opts.Prov)
        Opts.Prov->init(Slot, Next, Sigma0);
      Sigma0 = Next;
    }
    {
      domain::StoreId Next =
          Interner.joinAt(Sigma0, TopKSlot, PVal::konts(Set::single(0)));
      if (Opts.Prov)
        Opts.Prov->init(TopKSlot, Next, Sigma0);
      Sigma0 = Next;
    }

    EvalOut Out = evalP(Ir.Root, Sigma0, 0);
    if (SummariesOn)
      Stats.SummaryEntries = SumArena.size();
    finalizeRunStats(Stats, Interner, Memo.size(), Opts);
    if (Opts.Metrics && Opts.UseSummaries) {
      Opts.Metrics->set("summaryHits", Stats.SummaryHits);
      Opts.Metrics->set("summaryMisses", Stats.SummaryMisses);
      Opts.Metrics->set("summaryEntries", Stats.SummaryEntries);
      Opts.Metrics->histogram("summaryReuseDepth")
          .merge(Stats.SummaryReuseDepth);
    }
    if (Opts.Prov)
      Opts.Prov->noteFinal(Out.A.Store);

    SyntacticResult<D> R;
    R.Answer =
        Answer{unpackVal(Out.A.Value), unpackStore(Interner.store(Out.A.Store))};
    R.Stats = Stats;
    R.Cfg = buildCfg();
    R.Vars = Vars;
    return R;
  }

  /// The run's stores re-interned in the public (unpacked) value
  /// representation. Packing is injective, so every packed id maps to
  /// the same id here — provenance StoreIds recorded by this engine
  /// resolve against this table. Materialized lazily on first use.
  const domain::StoreInterner<Val> &publicInterner() const {
    if (!PubInterner) {
      PubInterner = std::make_unique<domain::StoreInterner<Val>>();
      PubInterner->reset(Vars->size());
      for (domain::StoreId Id = 1; Id < Interner.size(); ++Id) {
        domain::StoreId Got = PubInterner->intern(unpackStore(Interner.store(Id)));
        (void)Got;
        assert(Got == Id && "packed/unpacked interner ids diverged");
      }
    }
    return *PubInterner;
  }

private:
  static constexpr uint32_t Unconstrained =
      std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t NoFp = std::numeric_limits<uint32_t>::max();
  /// Per-(label, entry-store) cap on stored summaries — one per distinct
  /// calling context, bounded so a context-churning goal cannot bloat
  /// the arena; later walks still memoize normally.
  static constexpr size_t ExactCap = 16;
  /// Bound on generalized (entry != query store) validation attempts
  /// per lookup; exact-entry candidates are hash-indexed and free.
  static constexpr size_t GenScanCap = 8;

  using IAns = InternedAnswerOf<PVal>;

  struct EvalOut {
    IAns A;
    uint32_t MinDep;
  };

  /// Goal key: dense term label and interned store id in one word.
  static uint64_t key(uint32_t Label, domain::StoreId Store) {
    return (static_cast<uint64_t>(Label) << 32) | Store;
  }
  struct KeyHash {
    size_t operator()(uint64_t K) const {
      return static_cast<size_t>(mix64(K));
    }
  };

  //===--------------------------------------------------------------------===//
  // Summarization machinery
  //===--------------------------------------------------------------------===//

  /// What a walk touched, as dense bitsets: store slots read, and term
  /// labels queried — split by whether the query happened at the walk's
  /// entry store or strictly above it (only entry-store queries can
  /// collide with goals active at a reuse site; see file comment).
  ///
  /// At-entry queries are further split by how they resolved. A *pinned*
  /// query was answered by an immutable memo entry (or created one), so
  /// an exact replay is guaranteed to memo-hit the identical value before
  /// it ever consults the active set — such a query can never diverge no
  /// matter which goals are active at reuse time. Only *fluid* queries
  /// (cuts, provisional walks, context-dependent summary hits)
  /// participate in the exact-reuse collision check. QEntry remains the
  /// union of both; generalized reuse shifts the entry store, loses the
  /// memo guarantee, and therefore still checks the union.
  /// All four bitsets live in one contiguous buffer — [Reads | QEntry |
  /// QFluid | QAbove], at the word offsets the engine computes in its
  /// constructor — so a recording costs one allocation, not four.
  struct Fingerprint {
    std::vector<uint64_t> Bits;
    /// Set when the read/query sets are incomplete (a memo hit whose
    /// entry predates recording). An exact replay memo-hits straight
    /// past the missing subtree, so exact reuse stays sound; generalized
    /// reuse would need the missing reads and must be refused.
    bool ExactOnly = false;
  };

  /// In-flight fingerprint of the walk currently on the goal stack.
  struct Recording {
    uint32_t Label = 0;
    domain::StoreId Entry = 0;
    uint32_t BaseDepth = 0;
    /// Defensive flag for states the monotone-descent argument rules
    /// out; poisoned walks merge into their parents but never publish a
    /// summary or memo fingerprint.
    bool Poisoned = false;
    Fingerprint Fp;
    /// Labels this walk cut off against active goals *outside* it
    /// (ancestor depth below BaseDepth). Unsorted; deduplicated at
    /// publication.
    std::vector<uint32_t> CutLabels;
  };

  struct Summary {
    domain::StoreId Entry = 0;
    PVal Value;
    domain::StoreId ResultStore = 0;
    uint32_t Fp = NoFp;
    std::vector<uint32_t> Cuts; ///< sorted, unique
  };

  static void setBit(std::vector<uint64_t> &W, uint32_t I) {
    W[I >> 6] |= 1ull << (I & 63);
  }
  static void clearBit(std::vector<uint64_t> &W, uint32_t I) {
    W[I >> 6] &= ~(1ull << (I & 63));
  }
  /// Set/test a bit in the section of a fingerprint buffer that starts
  /// at word offset \p Off.
  static void setAt(std::vector<uint64_t> &B, uint32_t Off, uint32_t I) {
    B[Off + (I >> 6)] |= 1ull << (I & 63);
  }
  static bool testAt(const std::vector<uint64_t> &B, uint32_t Off,
                     uint32_t I) {
    return (B[Off + (I >> 6)] >> (I & 63)) & 1;
  }

  void noteRead(uint32_t Slot) {
    if (!RecStack.empty())
      setAt(RecStack.back().Fp.Bits, 0, Slot);
  }

  /// Charges a *resolved* query of \p Label at \p Sigma to the enclosing
  /// recording. \p Fluid marks queries whose value is not pinned by an
  /// immutable memo entry — see Fingerprint.
  void noteQuery(uint32_t Label, domain::StoreId Sigma, bool Fluid) {
    if (RecStack.empty())
      return;
    Recording &R = RecStack.back();
    if (Sigma == R.Entry) {
      setAt(R.Fp.Bits, QEOff, Label);
      if (Fluid)
        setAt(R.Fp.Bits, QFOff, Label);
    } else {
      setAt(R.Fp.Bits, QAOff, Label);
    }
  }

  /// Folds a completed (or cached) child derivation's fingerprint into
  /// the recording on top of the stack. The child's entry-store queries
  /// land at \p ChildEntry, so they count as "at entry" for the parent
  /// only when the two entries coincide. \p Shielded means the child's
  /// result is memoized at (child label, ChildEntry): an exact replay of
  /// the parent memo-hits the child and never re-executes its subtree,
  /// so the subtree's fluid queries cannot collide and are absorbed as
  /// pinned. Reads and the QEntry union still merge — generalized reuse
  /// re-executes the subtree and needs them.
  void mergeChildFp(const Fingerprint &F, domain::StoreId ChildEntry,
                    bool Shielded) {
    Recording &R = RecStack.back();
    uint64_t *A = R.Fp.Bits.data();
    const uint64_t *B = F.Bits.data();
    for (uint32_t W = 0; W < VarWords; ++W)
      A[W] |= B[W];
    R.Fp.ExactOnly |= F.ExactOnly;
    if (ChildEntry == R.Entry) {
      for (uint32_t W = 0; W < TermWords; ++W) {
        A[QEOff + W] |= B[QEOff + W];
        A[QAOff + W] |= B[QAOff + W];
      }
      if (!Shielded)
        for (uint32_t W = 0; W < TermWords; ++W)
          A[QFOff + W] |= B[QFOff + W];
    } else {
      for (uint32_t W = 0; W < TermWords; ++W)
        A[QAOff + W] |= B[QEOff + W] | B[QAOff + W];
    }
  }

  void mergeMemoFp(uint64_t K, domain::StoreId Sigma) {
    if (RecStack.empty())
      return;
    auto It = MemoFp.find(K);
    if (It == MemoFp.end()) {
      // No fingerprint for the hit: the subtree's reads are unknown, so
      // the recording can only ever be replayed at its exact entry
      // (where the same memo entry shields the gap).
      RecStack.back().Fp.ExactOnly = true;
      return;
    }
    mergeChildFp(FpArena[It->second], Sigma, /*Shielded=*/true);
  }

  /// Records a cut of label \p M (query store \p Sigma) against an
  /// active ancestor at depth \p AncDepth into every enclosing recording
  /// the ancestor is *outside* of. By monotone descent every such
  /// recording entered at exactly \p Sigma, so the walk terminates at
  /// the first recording that contains the ancestor.
  void noteCut(uint32_t M, domain::StoreId Sigma, uint32_t AncDepth) {
    for (auto It = RecStack.rbegin(); It != RecStack.rend(); ++It) {
      if (It->BaseDepth <= AncDepth)
        break;
      if (It->Entry != Sigma) {
        It->Poisoned = true; // unreachable by monotone descent; stay sound
        break;
      }
      It->CutLabels.push_back(M);
    }
  }

  /// Checks whether \p S replays exactly at entry store \p Sigma given
  /// the bitset \p ActBits of labels active at \p Sigma (null when none
  /// are). On success \p MinDep is the shallowest ancestor the reuse
  /// depends on (Unconstrained when every dependence is resolved).
  bool validate(const Summary &S, domain::StoreId Sigma,
                const std::vector<uint64_t> *ActBits, uint32_t &MinDep) {
    const Fingerprint &F = FpArena[S.Fp];
    bool Exact = S.Entry == Sigma;
    if (!Exact) {
      // A bottom-entry walk is only ever replayed exactly: generalizing
      // from the empty store has no read history to validate against.
      // Likewise an incomplete fingerprint (see Fingerprint::ExactOnly).
      if (F.ExactOnly || S.Entry == Interner.bottom())
        return false;
      for (uint32_t W = 0; W < VarWords; ++W)
        for (uint64_t Bits = F.Bits[W]; Bits; Bits &= Bits - 1) {
          uint32_t Slot = (W << 6) +
                          static_cast<uint32_t>(__builtin_ctzll(Bits));
          if (!Interner.sameSlot(S.Entry, Sigma, Slot))
            return false;
        }
      // The recorded cuts fired at the entry store; they re-fire at
      // Sigma only if the entry lifts into it pointwise.
      if (!S.Cuts.empty() && !Interner.leq(S.Entry, Sigma))
        return false;
    }
    // Active-collision scan, word-parallel: a label active at Sigma that
    // the walk queried — fluid at entry for exact replays (pinned
    // queries memo-hit before evalP ever consults the active set),
    // anywhere for generalized ones — must be a recorded cut label, or
    // the replay would cut where the recording walked.
    if (ActBits)
      for (uint32_t W = 0; W < TermWords; ++W) {
        uint64_t Hot =
            (*ActBits)[W] & (Exact ? F.Bits[QFOff + W]
                                   : (F.Bits[QEOff + W] | F.Bits[QAOff + W]));
        for (; Hot; Hot &= Hot - 1) {
          uint32_t M = (W << 6) +
                       static_cast<uint32_t>(__builtin_ctzll(Hot));
          if (!std::binary_search(S.Cuts.begin(), S.Cuts.end(), M))
            return false;
        }
      }
    MinDep = Unconstrained;
    for (uint32_t M : S.Cuts) {
      // An above-entry query of a cut label could rise to Sigma under
      // the entry shift and collide where the recording did not.
      if (!Exact && testAt(F.Bits, QAOff, M))
        return false;
      if (auto It = Active.find(key(M, Sigma)); It != Active.end()) {
        MinDep = std::min(MinDep, It->second);
        continue;
      }
      // The cut target has finished since. If its key was memoized with
      // exactly the cut value (top saturation makes this common), the
      // replay's query memo-hits the same answer the recording absorbed;
      // anything else would walk where the recording cut.
      auto It = Memo.find(key(M, Sigma));
      if (It == Memo.end() || It->second.Store != Sigma ||
          !(It->second.Value == cutAnswer(Sigma).Value))
        return false;
    }
    return true;
  }

  /// Performs the reuse of a validated summary \p S at \p Sigma.
  EvalOut applySummary(const Summary &S, uint32_t P, domain::StoreId Sigma,
                       uint32_t Depth, uint32_t MinDep) {
    ++Stats.SummaryHits;
    Stats.SummaryReuseDepth.record(Depth);
    // An unconstrained reuse (no outside cuts, or every recorded cut
    // target since memoized) is context-independent and caches like a
    // completed subderivation — which also pins it for the parent.
    bool Pin = MinDep == Unconstrained && Opts.UseMemo;
    if (!RecStack.empty()) {
      mergeChildFp(FpArena[S.Fp], Sigma, /*Shielded=*/Pin);
      noteQuery(P, Sigma, /*Fluid=*/!Pin);
    }
    // The reuse performs the recorded outside-cuts against the targets
    // still active: charge them to the enclosing recordings exactly as
    // the replay would. Memo-resolved cut targets charge nothing — the
    // replay's query of them memo-hits.
    for (uint32_t M : S.Cuts)
      if (auto It = Active.find(key(M, Sigma)); It != Active.end())
        noteCut(M, Sigma, It->second);
    bool Exact = S.Entry == Sigma;
    // Dead results stay dead (the replayed paths are dead too); live
    // result stores shift by the unread entry difference.
    domain::StoreId OutStore =
        S.ResultStore == Interner.bottom()
            ? Interner.bottom()
            : (Exact ? S.ResultStore : Interner.join(Sigma, S.ResultStore));
    IAns A{S.Value, OutStore};
    if (Pin && Memo.emplace(key(P, Sigma), A).second)
      MemoFp.emplace(key(P, Sigma), S.Fp);
    return EvalOut{std::move(A), MinDep};
  }

  std::optional<EvalOut> trySummary(uint32_t P, domain::StoreId Sigma,
                                    uint32_t Depth) {
    auto AIt = ActiveBitsAtStore.find(Sigma);
    const std::vector<uint64_t> *Act =
        AIt == ActiveBitsAtStore.end() ? nullptr : &AIt->second;
    // Exact-entry candidates first: indexed by (label, store) key, so
    // the dominant confirmation re-walks cost one hash probe. Only the
    // active-context part of validation can reject these.
    if (auto It = SumExact.find(key(P, Sigma)); It != SumExact.end())
      for (uint32_t SI : It->second) {
        uint32_t MinDep = Unconstrained;
        if (validate(SumArena[SI], Sigma, Act, MinDep))
          return applySummary(SumArena[SI], P, Sigma, Depth, MinDep);
      }
    // Generalized candidates (entry != Sigma), newest first: the store
    // chain grows monotonically during the fixpoint cascade, so recent
    // recordings are the ones whose read footprints match the current
    // store. The read-set comparison makes each attempt linear in the
    // fingerprint, so the scan is bounded per lookup.
    size_t Tries = 0;
    const std::vector<uint32_t> &ByL = SumByLabel[P];
    for (auto It = ByL.rbegin(); It != ByL.rend(); ++It) {
      uint32_t SI = *It;
      const Summary &S = SumArena[SI];
      if (S.Entry == Sigma)
        continue;
      if (++Tries > GenScanCap)
        break;
      uint32_t MinDep = Unconstrained;
      if (validate(S, Sigma, Act, MinDep))
        return applySummary(S, P, Sigma, Depth, MinDep);
    }
    return std::nullopt;
  }

  /// Pops the finished walk's recording: folds it into the parent,
  /// applies the memo discipline (with fingerprint), and publishes a
  /// summary for the label when there is room.
  void finishGoal(uint32_t P, uint32_t Depth, uint64_t K, EvalOut &Out) {
    Recording R = std::move(RecStack.back());
    RecStack.pop_back();
    bool Clean = !Stats.BudgetExhausted && !R.Poisoned;
    bool Memoizable = Out.MinDep >= Depth && !Stats.BudgetExhausted;
    bool Pinned = Memoizable && Opts.UseMemo;
    if (!RecStack.empty()) {
      mergeChildFp(R.Fp, R.Entry, /*Shielded=*/Pinned);
      noteQuery(P, R.Entry, /*Fluid=*/!Pinned);
      RecStack.back().Poisoned |= R.Poisoned;
    }
    uint64_t EK = key(P, R.Entry);
    auto EIt = SumExact.find(EK);
    bool Summarizable =
        Clean && (EIt == SumExact.end() || EIt->second.size() < ExactCap);
    uint32_t FpIdx = NoFp;
    if (Summarizable || (Memoizable && Opts.UseMemo && Clean)) {
      FpIdx = static_cast<uint32_t>(FpArena.size());
      FpArena.push_back(std::move(R.Fp));
    }
    if (Memoizable) {
      if (Opts.UseMemo) {
        Memo.emplace(K, Out.A);
        if (FpIdx != NoFp)
          MemoFp.emplace(K, FpIdx);
      }
      Out.MinDep = Unconstrained;
    }
    if (Summarizable) {
      std::sort(R.CutLabels.begin(), R.CutLabels.end());
      R.CutLabels.erase(
          std::unique(R.CutLabels.begin(), R.CutLabels.end()),
          R.CutLabels.end());
      uint32_t SI = static_cast<uint32_t>(SumArena.size());
      SumArena.push_back(Summary{R.Entry, Out.A.Value, Out.A.Store, FpIdx,
                                 std::move(R.CutLabels)});
      SumByLabel[P].push_back(SI);
      SumExact[EK].push_back(SI);
    }
  }

  //===--------------------------------------------------------------------===//
  // The interpreter proper
  //===--------------------------------------------------------------------===//

  IAns bottomAnswer() { return IAns{PVal::bot(), Interner.bottom()}; }

  /// The Section 4.4 cut value (T, CL_T, K_T) with the current store.
  IAns cutAnswer(domain::StoreId Sigma) const {
    PVal V;
    V.Num = D::top();
    V.Clos = PCloTop;
    V.Konts = PKontTop;
    return IAns{V, Sigma};
  }

  /// Store read on the hot path; charged to the current recording.
  const PVal &getSlot(domain::StoreId Sigma, uint32_t Slot) {
    if (SummariesOn)
      noteRead(Slot);
    return Interner.get(Sigma, Slot);
  }

  // phi_e^s of Figure 6, over arena value nodes.
  PVal phi(uint32_t VI, domain::StoreId Sigma) {
    const cps::CpsIr::ValNode &V = Ir.Vals[VI];
    switch (V.Kind) {
    case cps::CpsIr::ValKind::Num:
      return PVal::number(D::constant(V.Num));
    case cps::CpsIr::ValKind::Var:
      return getSlot(Sigma, V.A);
    case cps::CpsIr::ValKind::Inck:
      return PVal::closures(Set::single(0));
    case cps::CpsIr::ValKind::Deck:
      return PVal::closures(Set::single(1));
    case cps::CpsIr::ValKind::Lam:
      return PVal::closures(Set::single(2 + V.A));
    }
    assert(false && "unknown ir value kind");
    return PVal::bot();
  }

  /// Provenance of a value form: variables derive from the store fact
  /// they read; literals, lambdas, and primitives are leaves.
  domain::ProvId provOfValue(uint32_t VI, domain::StoreId Sigma) const {
    const cps::CpsIr::ValNode &V = Ir.Vals[VI];
    if (V.Kind == cps::CpsIr::ValKind::Var)
      return Opts.Prov->factOf(V.A, Sigma);
    return domain::NoProv;
  }

  /// appr_e^s over a single abstract continuation (kont-universe index).
  EvalOut applyKont(uint32_t KI, const PVal &U, domain::StoreId Sigma,
                    uint32_t Depth, domain::ProvId UProv = domain::NoProv,
                    domain::EdgeKind Kind = domain::EdgeKind::Flow,
                    uint32_t SiteId = 0, SourceLoc SiteLoc = SourceLoc{}) {
    if (KI == 0) // stop
      return EvalOut{IAns{U, Sigma}, Unconstrained};
    const cps::CpsIr::ContNode &C = Ir.Conts[KI - 1];
    domain::StoreId S = Interner.joinAt(Sigma, C.ParamSlot, U);
    if (Opts.Prov)
      Opts.Prov->assign(Kind, C.ParamSlot, S, Sigma,
                        SiteId ? SiteId : C.SrcId,
                        SiteLoc.isValid() ? SiteLoc : C.Loc, UProv);
    return evalP(C.Body, S, Depth + 1);
  }

  /// appr_e^s over a continuation *set*: apply every continuation and
  /// merge — the false-return join of Section 6.1.
  EvalOut applyKontSet(Set Ks, const PVal &U,
                       domain::StoreId Sigma, uint32_t Depth,
                       const cps::CpsIr::TermNode &Site,
                       domain::ProvId UProv = domain::NoProv) {
    if (Ks.empty()) {
      ++Stats.DeadPaths; // join over no paths
      return EvalOut{bottomAnswer(), Unconstrained};
    }
    bool Merging = Ks.size() > 1;
    if (Merging)
      Stats.CallMerges += Ks.size() - 1; // Theorem 5.1 false return

    domain::EdgeKind Kind =
        Merging ? domain::EdgeKind::CallMerge : domain::EdgeKind::Flow;
    IAns Acc0 = bottomAnswer();
    uint32_t MinDep = Unconstrained;
    Ks.forEach([&](uint32_t R) {
      EvalOut Ri =
          applyKont(R, U, Sigma, Depth, UProv, Kind, Site.SrcId, Site.Loc);
      Acc0 = Opts.Prov ? joinAnswers(Interner, Acc0, Ri.A, Opts.Prov, Kind,
                                     Site.SrcId, Site.Loc)
                       : joinAnswers(Interner, Acc0, Ri.A);
      MinDep = std::min(MinDep, Ri.MinDep);
    });
    return EvalOut{std::move(Acc0), MinDep};
  }

  EvalOut evalP(uint32_t P, domain::StoreId Sigma, uint32_t Depth) {
    if (Stats.BudgetExhausted)
      return EvalOut{cutAnswer(Sigma), 0};
    ++Stats.Goals;
    CPSFLOW_FAULT_COUNTED(fault::Site::AnalyzerGoal, Stats.Goals);
    if (support::DegradeReason R =
            Gov.check(Stats.Goals, Depth, Interner.approxBytes());
        R != support::DegradeReason::None) {
      Stats.BudgetExhausted = true;
      Stats.Degraded = R;
      return EvalOut{cutAnswer(Sigma), 0};
    }
    Stats.MaxDepth = std::max<uint64_t>(Stats.MaxDepth, Depth);

    uint64_t K = key(P, Sigma);
    observeGoal(Opts, Stats, Depth, Sigma,
                [&] { return Opts.UseMemo && Memo.count(K) != 0; });
    if (auto It = Memo.find(K); Opts.UseMemo && It != Memo.end()) {
      ++Stats.CacheHits;
      if (SummariesOn) {
        noteQuery(P, Sigma, /*Fluid=*/false);
        mergeMemoFp(K, Sigma);
      }
      return EvalOut{It->second, Unconstrained};
    }
    if (auto It = Active.find(K); It != Active.end()) {
      ++Stats.Cuts;
      if (SummariesOn) {
        noteQuery(P, Sigma, /*Fluid=*/true);
        noteCut(P, Sigma, It->second);
      }
      return EvalOut{cutAnswer(Sigma), It->second};
    }
    if (SummariesOn) {
      if (std::optional<EvalOut> R = trySummary(P, Sigma, Depth))
        return *R;
      ++Stats.SummaryMisses;
    }

    Active.emplace(K, Depth);
    if (SummariesOn) {
      auto &AB = ActiveBitsAtStore[Sigma];
      if (AB.empty())
        AB.assign(TermWords, 0);
      setBit(AB, P);
      Recording R;
      R.Label = P;
      R.Entry = Sigma;
      R.BaseDepth = Depth;
      R.Fp.Bits.assign(FpWords, 0);
      RecStack.push_back(std::move(R));
    }
    EvalOut Out = evalUncached(P, Sigma, Depth);
    Active.erase(K);
    if (SummariesOn) {
      clearBit(ActiveBitsAtStore.find(Sigma)->second, P);
      finishGoal(P, Depth, K, Out);
    } else if (Out.MinDep >= Depth && !Stats.BudgetExhausted) {
      if (Opts.UseMemo)
        Memo.emplace(K, Out.A);
      Out.MinDep = Unconstrained;
    }
    return Out;
  }

  EvalOut evalUncached(uint32_t P, domain::StoreId Sigma, uint32_t Depth) {
    const cps::CpsIr::TermNode &T = Ir.Terms[P];
    switch (T.Kind) {
    case cps::CpsTermKind::PK_Ret: {
      // (k W): apply every continuation collected at k and merge.
      PVal KVal = getSlot(Sigma, T.A);
      PVal U = phi(T.B, Sigma);

      TermAcc &A = Acc[P];
      A.Visited = true;
      A.Members = Set::join(A.Members, KVal.Konts);

      return applyKontSet(KVal.Konts, U, Sigma, Depth, T,
                          Opts.Prov ? provOfValue(T.B, Sigma)
                                    : domain::NoProv);
    }

    case cps::CpsTermKind::PK_LetVal: {
      PVal U = phi(T.B, Sigma);
      domain::StoreId S = Interner.joinAt(Sigma, T.A, U);
      if (Opts.Prov)
        Opts.Prov->assign(domain::EdgeKind::Flow, T.A, S, Sigma, T.SrcId,
                          T.Loc, provOfValue(T.B, Sigma));
      return evalP(T.C, S, Depth + 1);
    }

    case cps::CpsTermKind::PK_Call: {
      // (W1 W2 (lambda (x) P')): apply each closure; user closures get
      // the literal continuation *joined into* their k parameter's store
      // entry — the collection that later causes false returns.
      PVal Fun = phi(T.A, Sigma);
      PVal Arg = phi(T.B, Sigma);
      uint32_t Kont = T.C;

      TermAcc &CA = Acc[P];
      CA.Visited = true;
      CA.Members = Set::join(CA.Members, Fun.Clos);

      if (Fun.Clos.empty()) {
        ++Stats.DeadPaths; // join over no paths
        return EvalOut{bottomAnswer(), Unconstrained};
      }

      if (Fun.Clos.size() > 1)
        Stats.Joins += Fun.Clos.size() - 1; // multi-callee answer merge

      domain::ProvId ArgProv =
          Opts.Prov ? provOfValue(T.B, Sigma) : domain::NoProv;
      IAns Acc0 = bottomAnswer();
      uint32_t MinDep = Unconstrained;
      Fun.Clos.forEach([&](uint32_t R) {
        EvalOut Ri;
        if (R == 0) { // inck
          Ri = applyKont(Kont, PVal::number(D::add1(Arg.Num)), Sigma,
                         Depth + 1, ArgProv, domain::EdgeKind::Flow,
                         T.SrcId, T.Loc);
        } else if (R == 1) { // deck
          Ri = applyKont(Kont, PVal::number(D::sub1(Arg.Num)), Sigma,
                         Depth + 1, ArgProv, domain::EdgeKind::Flow,
                         T.SrcId, T.Loc);
        } else {
          const cps::CpsIr::LamNode &L = Ir.Lams[R - 2];
          domain::StoreId S = Interner.joinAt(Sigma, L.ParamSlot, Arg);
          if (Opts.Prov)
            Opts.Prov->assign(domain::EdgeKind::Flow, L.ParamSlot, S, Sigma,
                              T.SrcId, T.Loc, ArgProv);
          domain::StoreId S2 = Interner.joinAt(
              S, L.KParamSlot, PVal::konts(Set::single(Kont)));
          // The continuation-set collection at k — the raw material of a
          // later false return (the loss itself is tagged at the Ret).
          if (Opts.Prov)
            Opts.Prov->assign(domain::EdgeKind::Flow, L.KParamSlot, S2, S,
                              T.SrcId, T.Loc);
          Ri = evalP(L.Body, S2, Depth + 1);
        }
        Acc0 = Opts.Prov ? joinAnswers(Interner, Acc0, Ri.A, Opts.Prov,
                                       domain::EdgeKind::Join, T.SrcId,
                                       T.Loc)
                         : joinAnswers(Interner, Acc0, Ri.A);
        MinDep = std::min(MinDep, Ri.MinDep);
      });
      return EvalOut{std::move(Acc0), MinDep};
    }

    case cps::CpsTermKind::PK_If: {
      // (let (k (lambda (x) P')) (if0 W0 P1 P2)): name the join
      // continuation, then each feasible branch is analyzed as a complete
      // program (per-branch duplication, Theorem 5.2).
      PVal U0 = phi(T.B, Sigma);
      domain::ZeroTest Zt = D::isZero(U0.Num);

      bool ThenOnly = Zt == domain::ZeroTest::Zero && U0.Clos.empty() &&
                      U0.Konts.empty();
      bool ElseOnly = Zt == domain::ZeroTest::NonZero ||
                      Zt == domain::ZeroTest::Bottom;

      TermAcc &BI = Acc[P];
      BI.Visited = true;
      BI.ThenFeasible |= !ElseOnly;
      BI.ElseFeasible |= !ThenOnly;
      if (ThenOnly || ElseOnly)
        ++Stats.PrunedBranches;

      domain::StoreId S =
          Interner.joinAt(Sigma, T.A, PVal::konts(Set::single(T.J)));
      if (Opts.Prov)
        Opts.Prov->assign(domain::EdgeKind::Flow, T.A, S, Sigma, T.SrcId,
                          T.Loc);

      if (ThenOnly || ElseOnly)
        return evalP(ThenOnly ? T.C : T.E, S, Depth + 1);

      ++Stats.Joins;
      EvalOut B1 = evalP(T.C, S, Depth + 1);
      EvalOut B2 = evalP(T.E, S, Depth + 1);
      IAns Joined = Opts.Prov
                        ? joinAnswers(Interner, B1.A, B2.A, Opts.Prov,
                                      domain::EdgeKind::Join, T.SrcId, T.Loc)
                        : joinAnswers(Interner, B1.A, B2.A);
      return EvalOut{std::move(Joined), std::min(B1.MinDep, B2.MinDep)};
    }

    case cps::CpsTermKind::PK_Loop: {
      // loopk: deliver each natural to the continuation and join —
      // uncomputable exactly (Section 6.2); bounded unroll as in Figure 5.
      uint32_t Kont = T.A;
      // No finite unrolling is exact (Section 6.2): flag the truncation
      // unconditionally — a join that *looks* converged at the bound is
      // still untrustworthy (a probe beyond the bound may change it).
      Stats.LoopBounded = true;
      IAns Acc0 = bottomAnswer();
      uint32_t MinDep = Unconstrained;
      auto JoinIter = [&](const IAns &A) {
        return Opts.Prov ? joinAnswers(Interner, Acc0, A, Opts.Prov,
                                       domain::EdgeKind::Widen, T.SrcId,
                                       T.Loc)
                         : joinAnswers(Interner, Acc0, A);
      };
      for (uint32_t I = 0; I < Opts.LoopUnroll; ++I) {
        EvalOut Bi =
            applyKont(Kont, PVal::number(D::constant(I)), Sigma, Depth + 1,
                      domain::NoProv, domain::EdgeKind::Widen, T.SrcId,
                      T.Loc);
        Acc0 = JoinIter(Bi.A);
        MinDep = std::min(MinDep, Bi.MinDep);
        if (Stats.BudgetExhausted)
          break;
      }
      if (Opts.LoopSoundSummary) {
        domain::ProvId WidenProv =
            Opts.Prov
                ? Opts.Prov->value(domain::EdgeKind::Widen, T.SrcId, T.Loc)
                : domain::NoProv;
        EvalOut Bs =
            applyKont(Kont, PVal::number(D::naturals()), Sigma, Depth + 1,
                      WidenProv, domain::EdgeKind::Widen, T.SrcId, T.Loc);
        Acc0 = JoinIter(Bs.A);
        MinDep = std::min(MinDep, Bs.MinDep);
      }
      return EvalOut{std::move(Acc0), MinDep};
    }
    }
    assert(false && "unknown ir term kind");
    return EvalOut{bottomAnswer(), Unconstrained};
  }

  //===--------------------------------------------------------------------===//
  // Boundary conversion (packed <-> public representation)
  //===--------------------------------------------------------------------===//

  /// Packs the initial bindings: a closure or continuation maps to its
  /// index in the IR's universe numbering.
  void packInitial(const std::vector<CpsBinding<D>> &Bindings) {
    std::unordered_map<const cps::CpsLam *, uint32_t> LamIdx;
    for (uint32_t I = 0; I < Ir.Lams.size(); ++I)
      LamIdx.emplace(Ir.Lams[I].Src, 2 + I);
    std::unordered_map<const cps::ContLam *, uint32_t> ContIdx;
    for (uint32_t I = 0; I < Ir.Conts.size(); ++I)
      ContIdx.emplace(Ir.Conts[I].Src, 1 + I);
    auto Add = [](Set &S, uint32_t I) { S = Set::join(S, Set::single(I)); };
    for (const CpsBinding<D> &B : Bindings) {
      PVal P;
      P.Num = B.Value.Num;
      for (const domain::CpsCloRef &C : B.Value.Clos)
        Add(P.Clos, C.Tag == domain::CpsCloRef::K::Inck   ? 0
                    : C.Tag == domain::CpsCloRef::K::Deck ? 1
                                                          : LamIdx.at(C.Lam));
      for (const domain::KontRef &K : B.Value.Konts)
        Add(P.Konts,
            K.Tag == domain::KontRef::K::Stop ? 0 : ContIdx.at(K.Cont));
      Initial.emplace_back(Vars->of(B.Var), std::move(P));
    }
  }

  domain::CpsCloRef cloRefOf(uint32_t R) const {
    if (R == 0)
      return domain::CpsCloRef::inck();
    if (R == 1)
      return domain::CpsCloRef::deck();
    return domain::CpsCloRef::lam(Ir.Lams[R - 2].Src);
  }
  domain::KontRef kontRefOf(uint32_t R) const {
    if (R == 0)
      return domain::KontRef::stop();
    return domain::KontRef::cont(Ir.Conts[R - 1].Src);
  }

  Val unpackVal(const PVal &P) const {
    Val V;
    V.Num = P.Num;
    std::vector<domain::CpsCloRef> C;
    C.reserve(P.Clos.size());
    P.Clos.forEach([&](uint32_t R) { C.push_back(cloRefOf(R)); });
    V.Clos = domain::CpsCloSet::of(std::move(C));
    std::vector<domain::KontRef> Ks;
    Ks.reserve(P.Konts.size());
    P.Konts.forEach([&](uint32_t R) { Ks.push_back(kontRefOf(R)); });
    V.Konts = domain::KontSet::of(std::move(Ks));
    return V;
  }

  StoreT unpackStore(const PStore &S) const {
    StoreT Out(S.size());
    for (uint32_t I = 0; I < S.size(); ++I)
      Out.set(I, unpackVal(S.get(I)));
    return Out;
  }

  /// Per-term CFG accumulator; converted to the pointer-keyed CpsCfg
  /// maps once, at the end of the run.
  struct TermAcc {
    bool Visited = false;
    bool ThenFeasible = false;
    bool ElseFeasible = false;
    Set Members; ///< konts at a Ret, closures at a Call
  };

  CpsCfg buildCfg() const {
    CpsCfg C;
    for (uint32_t L = 0; L < Ir.Terms.size(); ++L) {
      const TermAcc &A = Acc[L];
      if (!A.Visited)
        continue;
      const cps::CpsIr::TermNode &T = Ir.Terms[L];
      switch (T.Kind) {
      case cps::CpsTermKind::PK_Ret: {
        domain::KontSet &S = C.Returns[cps::cast<cps::CpsRet>(T.Src)];
        A.Members.forEach([&](uint32_t R) { S.insert(kontRefOf(R)); });
        break;
      }
      case cps::CpsTermKind::PK_Call: {
        domain::CpsCloSet &S = C.Callees[cps::cast<cps::CpsCall>(T.Src)];
        A.Members.forEach([&](uint32_t R) { S.insert(cloRefOf(R)); });
        break;
      }
      case cps::CpsTermKind::PK_If: {
        BranchInfo &BI = C.Branches[cps::cast<cps::CpsIf>(T.Src)];
        BI.ThenFeasible = A.ThenFeasible;
        BI.ElseFeasible = A.ElseFeasible;
        break;
      }
      default:
        break;
      }
    }
    return C;
  }

  cps::CpsIr Ir;
  std::shared_ptr<domain::VarIndex> Vars;
  /// The initial bindings as (slot, packed value), in binding order.
  std::vector<std::pair<uint32_t, PVal>> Initial;
  uint32_t TopKSlot;
  AnalyzerOptions Opts;
  bool SummariesOn = false;

  Set PCloTop;
  Set PKontTop;
  uint32_t VarWords = 0;
  uint32_t TermWords = 0;
  /// Word offsets of the QEntry/QFluid/QAbove sections in a fingerprint
  /// buffer (reads start at 0), and the buffer's total size.
  uint32_t QEOff = 0;
  uint32_t QFOff = 0;
  uint32_t QAOff = 0;
  uint32_t FpWords = 0;

  domain::StoreInterner<PVal> Interner;
  AnalyzerStats Stats;
  support::Governor Gov{Opts.Governor, Opts.MaxGoals};
  std::vector<TermAcc> Acc;

  std::unordered_map<uint64_t, IAns, KeyHash> Memo;
  std::unordered_map<uint64_t, uint32_t, KeyHash> Active;

  // Summarization state (populated only when SummariesOn).
  /// Labels active per store, as a dense bitset — the word-parallel side
  /// of validate()'s active-collision scan. Entries are never erased
  /// (stores recur), only their bits toggle with the goal stack.
  std::unordered_map<domain::StoreId, std::vector<uint64_t>>
      ActiveBitsAtStore;
  std::vector<Recording> RecStack;
  std::vector<Fingerprint> FpArena;
  std::unordered_map<uint64_t, uint32_t, KeyHash> MemoFp;
  std::vector<Summary> SumArena;
  /// Per-label arena indices in publication order — the generalized scan.
  std::vector<std::vector<uint32_t>> SumByLabel;
  /// (label, entry store) -> arena indices — the exact-entry fast path.
  std::unordered_map<uint64_t, std::vector<uint32_t>, KeyHash> SumExact;

  mutable std::unique_ptr<domain::StoreInterner<Val>> PubInterner;
};

} // namespace detail
} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_SYNTACTICIRENGINE_H
