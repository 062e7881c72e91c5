//===- domain/StoreInterner.h - Hash-consed abstract stores -----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consing for abstract stores. One analysis run interns every
/// distinct store it ever constructs exactly once and thereafter names it
/// by a dense 32-bit StoreId. The analyzers' memo/active keys become
/// (node pointer, StoreId) — O(1) to build, hash, and compare — instead
/// of carrying a full dense store that is copied and rehashed O(|vars|)
/// at every proof goal.
///
/// Two levels of hash-consing. A per-run value table interns the slot
/// values themselves, so equal values share one 32-bit value id (id 0 is
/// bottom). An interned store is then a row of |vars| value ids, and all
/// rows live back to back in one arena vector next to a per-store hash.
/// Store equality is a row compare, `sameSlot` is one id compare, and
/// `leq` consults the value lattice only where two rows' ids differ.
///
/// Updates go through a copy-on-write join: `joinAt` returns the parent
/// id unchanged when the join does not move the slot (the common case in
/// the fixpoint tail of a run), and otherwise appends a copy of the
/// parent row (4·|vars| bytes), patches one id, and re-interns. The store
/// hash is a *commutative* sum of per-slot contributions
/// (support/Hashing.h `hashSlot` over the value's `hashValue()`), so a
/// one-slot update adjusts the hash in O(1) rather than rescanning the
/// store.
///
/// Lifetime: an interner belongs to a single analyzer instance (the
/// analyzers are single-use) and owns every store and value it hands
/// out; ids are only meaningful against the interner that produced them.
/// References returned by `get` stay valid until the next call that may
/// intern (`intern`, `joinAt`, `join`); `store` returns a materialized
/// dense copy, meant for run() boundaries and diagnostics. Nothing is
/// shared across threads — the batch driver gives each worker its own
/// Context and analyzers, hence its own interners.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_DOMAIN_STOREINTERNER_H
#define CPSFLOW_DOMAIN_STOREINTERNER_H

#include "domain/AbsStore.h"
#include "support/Hashing.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cpsflow {
namespace domain {

/// A dense name for an interned store. Only meaningful together with the
/// StoreInterner that produced it; equal ids mean equal stores.
using StoreId = uint32_t;

/// Hash-consing table for stores over value type \p V. See the file
/// comment.
template <typename V> class StoreInterner {
public:
  using StoreT = AbsStore<V>;

  /// (Re)initializes the table for a universe of \p NumVars variables and
  /// interns the bottom value as value id 0 and the all-bottom store as
  /// store id 0.
  void reset(size_t NumVars) {
    Vars = static_cast<uint32_t>(NumVars);
    Values.clear();
    ValueHashes.clear();
    ValueIndex.clear();
    Rows.clear();
    Hashes.clear();
    StoreIndex.clear();
    JoinCache.clear();
    PeakBytes = 0;
    [[maybe_unused]] uint32_t Bot = valueId(V::bot());
    assert(Bot == BotVal && "bottom must be the first value");
    BottomId = intern(StoreT(NumVars));
    assert(BottomId == 0 && "bottom store must be the first entry");
  }

  /// When non-null, each *newly* interned store records its width (count
  /// of non-bottom slots) into \p M's "storeSlots" histogram — the
  /// distribution behind the Section 6.2 store-explosion counters. Costs
  /// one O(vars) scan of ids per distinct store; null (the default)
  /// costs one predicted-false pointer test.
  void attachMetrics(support::MetricsRegistry *M) {
    SlotsHist = M ? &M->histogram("storeSlots") : nullptr;
  }

  /// The all-bottom store of this universe.
  StoreId bottom() const { return BottomId; }

  /// Number of distinct stores interned so far.
  size_t size() const { return Hashes.size(); }

  /// O(1) estimate of the table's memory footprint: one row of 32-bit
  /// value ids plus a 64-bit hash per store, one value plus its hash per
  /// distinct slot value, and both tables' hash buckets. Ignores the
  /// values' own heap payload (closure sets are bounded by the
  /// program-sized universe, and hash-consing stores each set once) and
  /// the pairwise join cache, which is fine for its one consumer — the
  /// resource governor's memory ceiling, where the quantity that actually
  /// explodes under Section 6.2 duplication is the *count* of distinct
  /// stores.
  size_t approxBytes() const {
    return size() * (Vars * sizeof(uint32_t) + sizeof(uint64_t)) +
           Values.size() * (sizeof(V) + sizeof(uint64_t)) +
           StoreIndex.bytes() + ValueIndex.bytes();
  }

  /// Largest approxBytes() the table has reached. The table only grows
  /// today, but peak is tracked explicitly so the observability contract
  /// survives a future entry-evicting interner.
  size_t peakBytes() const { return std::max(PeakBytes, approxBytes()); }

  /// A dense copy of the store named by \p Id, for run() boundaries and
  /// diagnostics; the analyzers' hot paths stay on ids.
  StoreT store(StoreId Id) const {
    const uint32_t *R = row(Id);
    StoreT S(Vars);
    for (uint32_t I = 0; I < Vars; ++I)
      if (R[I] != BotVal)
        S.set(I, Values[R[I]]);
    return S;
  }

  /// Precomputed hash of the store named by \p Id.
  uint64_t hashOf(StoreId Id) const {
    assert(Id < size() && "unknown store id");
    return Hashes[Id];
  }

  /// Slot read through the id, the analyzers' phi accessor.
  const V &get(StoreId Id, uint32_t Slot) const {
    assert(Slot < Vars && "slot out of range");
    return Values[row(Id)[Slot]];
  }

  /// Whether stores \p A and \p B agree at \p Slot: one id compare.
  bool sameSlot(StoreId A, StoreId B, uint32_t Slot) const {
    assert(Slot < Vars && "slot out of range");
    return row(A)[Slot] == row(B)[Slot];
  }

  /// Pointwise order of two interned stores; the value lattice is only
  /// consulted where the rows' ids differ.
  bool leq(StoreId A, StoreId B) const {
    if (A == B)
      return true;
    const uint32_t *RA = row(A), *RB = row(B);
    for (uint32_t I = 0; I < Vars; ++I)
      if (RA[I] != RB[I] && RA[I] != BotVal &&
          !V::leq(Values[RA[I]], Values[RB[I]]))
        return false;
    return true;
  }

  /// Interns a dense store, returning the id of the canonical copy.
  StoreId intern(const StoreT &S) {
    assert(S.size() == Vars && "store from a different universe");
    size_t At = Rows.size();
    Rows.resize(At + Vars);
    uint64_t H = EmptyHash;
    for (uint32_t I = 0; I < Vars; ++I) {
      uint32_t Id = valueId(S.get(I));
      Rows[At + I] = Id;
      H += hashSlot(I, ValueHashes[Id]);
    }
    return commitRow(H);
  }

  /// sigma[x := sigma(x) join U], copy-on-write: when the join does not
  /// move the slot the parent id is returned as-is (no copy, no hashing);
  /// otherwise the parent row is copied once and the hash patched in
  /// O(1).
  StoreId joinAt(StoreId Base, uint32_t Slot, const V &U) {
    assert(Base < size() && Slot < Vars && "unknown store id or slot");
    size_t From = size_t(Base) * Vars;
    uint32_t OldId = Rows[From + Slot];
    V Joined = V::join(Values[OldId], U);
    if (Joined == Values[OldId])
      return Base;
    uint32_t NewId = valueId(std::move(Joined));
    uint64_t H = Hashes[Base] - hashSlot(Slot, ValueHashes[OldId]) +
                 hashSlot(Slot, ValueHashes[NewId]);
    size_t At = Rows.size();
    Rows.resize(At + Vars);
    std::copy_n(Rows.begin() + From, Vars, Rows.begin() + At);
    Rows[At + Slot] = NewId;
    return commitRow(H);
  }

  /// Pointwise join of two interned stores. Equal ids and joins against
  /// bottom are O(1); repeated pairs hit a memo (join is deterministic,
  /// so caching changes nothing observable); ordered pairs resolve by a
  /// comparison scan without constructing or hashing a joined store. Only
  /// a genuinely incomparable first-time pair pays join-plus-intern, and
  /// then only for the slots whose ids differ.
  StoreId join(StoreId A, StoreId B) {
    if (A == B)
      return A;
    if (A == BottomId)
      return B;
    if (B == BottomId)
      return A;
    // Join is commutative: one cache entry per unordered pair.
    uint64_t PairKey = A < B ? (static_cast<uint64_t>(A) << 32) | B
                             : (static_cast<uint64_t>(B) << 32) | A;
    if (auto It = JoinCache.find(PairKey); It != JoinCache.end())
      return It->second;
    StoreId R;
    if (leq(A, B)) {
      R = B;
    } else if (leq(B, A)) {
      R = A;
    } else {
      size_t At = Rows.size(), FromA = size_t(A) * Vars,
             FromB = size_t(B) * Vars;
      Rows.resize(At + Vars);
      uint64_t H = EmptyHash;
      for (uint32_t I = 0; I < Vars; ++I) {
        uint32_t X = Rows[FromA + I], Y = Rows[FromB + I];
        uint32_t Z = X == Y ? X : valueId(V::join(Values[X], Values[Y]));
        Rows[At + I] = Z;
        H += hashSlot(I, ValueHashes[Z]);
      }
      R = commitRow(H);
    }
    JoinCache.emplace(PairKey, R);
    return R;
  }

private:
  /// Value id of the bottom value, interned first by reset().
  static constexpr uint32_t BotVal = 0;
  /// Hash of the zero-width store; slot contributions are added to it.
  static constexpr uint64_t EmptyHash = 0xab5;

  const uint32_t *row(StoreId Id) const {
    assert(Id < size() && "unknown store id");
    return Rows.data() + size_t(Id) * Vars;
  }

  /// Id of the canonical copy of \p X in the value table.
  template <typename T> uint32_t valueId(T &&X) {
    uint64_t H = X.hashValue();
    uint32_t NewId = static_cast<uint32_t>(Values.size());
    uint32_t Id = ValueIndex.findOrInsert(
        H, NewId,
        [&](uint32_t B) { return ValueHashes[B] == H && Values[B] == X; },
        [&](uint32_t B) { return ValueHashes[B]; });
    if (Id == NewId) {
      Values.push_back(std::forward<T>(X));
      ValueHashes.push_back(H);
    }
    return Id;
  }

  /// Interns the candidate row the caller appended at the end of Rows,
  /// whose full-store hash is \p H. A duplicate is popped off again and
  /// the canonical id returned.
  StoreId commitRow(uint64_t H) {
    StoreId NewId = static_cast<StoreId>(Hashes.size());
    const uint32_t *Cand = Rows.data() + size_t(NewId) * Vars;
    StoreId Id = StoreIndex.findOrInsert(
        H, NewId,
        [&](StoreId B) {
          return Hashes[B] == H && std::equal(Cand, Cand + Vars, row(B));
        },
        [&](StoreId B) { return Hashes[B]; });
    if (Id != NewId) {
      Rows.resize(size_t(NewId) * Vars);
      return Id;
    }
    Hashes.push_back(H);
    PeakBytes = std::max(PeakBytes, approxBytes());
    if (SlotsHist)
      SlotsHist->record(static_cast<uint64_t>(
          Vars - std::count(Cand, Cand + Vars, BotVal)));
    return Id;
  }

  /// Open-addressing hash set of dense ids whose hashes and equality live
  /// in the owner's arrays, so a bucket is a single id. Linear probing, at
  /// most half full.
  class IdTable {
  public:
    static constexpr uint32_t Empty = ~0u;

    void clear() {
      Buckets.assign(16, Empty);
      Count = 0;
    }

    /// Returns the id \p Eq accepts among those hashing to \p H; when there
    /// is none, records \p NewId (which the caller must then create) and
    /// returns it. \p HashOf rehashes the stored ids when the table grows.
    template <typename EqFn, typename HashFn>
    uint32_t findOrInsert(uint64_t H, uint32_t NewId, EqFn Eq, HashFn HashOf) {
      if (2 * (Count + 1) > Buckets.size())
        grow(HashOf);
      size_t Mask = Buckets.size() - 1;
      for (size_t I = H & Mask;; I = (I + 1) & Mask) {
        uint32_t B = Buckets[I];
        if (B == Empty) {
          Buckets[I] = NewId;
          ++Count;
          return NewId;
        }
        if (Eq(B))
          return B;
      }
    }

    size_t bytes() const { return Buckets.size() * sizeof(uint32_t); }

  private:
    template <typename HashFn> void grow(HashFn HashOf) {
      std::vector<uint32_t> Old(Buckets.size() * 2, Empty);
      Old.swap(Buckets);
      size_t Mask = Buckets.size() - 1;
      for (uint32_t Id : Old)
        if (Id != Empty) {
          size_t I = HashOf(Id) & Mask;
          while (Buckets[I] != Empty)
            I = (I + 1) & Mask;
          Buckets[I] = Id;
        }
    }

    std::vector<uint32_t> Buckets = std::vector<uint32_t>(16, Empty);
    size_t Count = 0;
  };

  struct PairHash {
    size_t operator()(uint64_t K) const {
      return static_cast<size_t>(mix64(K));
    }
  };

  uint32_t Vars = 0;
  StoreId BottomId = 0;
  size_t PeakBytes = 0;
  support::Histogram *SlotsHist = nullptr;
  /// The value table: value id -> value and its hashValue().
  std::vector<V> Values;
  std::vector<uint64_t> ValueHashes;
  IdTable ValueIndex;
  /// The store arena: store id -> row of Vars value ids, and its hash.
  std::vector<uint32_t> Rows;
  std::vector<uint64_t> Hashes;
  IdTable StoreIndex;
  std::unordered_map<uint64_t, StoreId, PairHash> JoinCache;
};

} // namespace domain
} // namespace cpsflow

#endif // CPSFLOW_DOMAIN_STOREINTERNER_H
