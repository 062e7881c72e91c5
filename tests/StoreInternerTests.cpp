//===- tests/StoreInternerTests.cpp - Hash-consed stores --------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for domain::StoreInterner: canonicalization (equal stores
/// get equal ids), the copy-on-write joinAt fast path, agreement between
/// the incremental hash patch and the full-store hash, and the join fast
/// paths — plus a differential check of random intern/joinAt/join
/// sequences against a dense reference interner kept in this file.
///
//===----------------------------------------------------------------------===//

#include "domain/AbsValue.h"
#include "domain/NumDomain.h"
#include "domain/PackedSet.h"
#include "domain/StoreInterner.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace cpsflow;
using namespace cpsflow::domain;
using CD = ConstantDomain;
using Val = AbsVal<CD>;
using Interner = StoreInterner<Val>;
using StoreT = AbsStore<Val>;

namespace {

Val num(int64_t N) { return Val::number(CD::constant(N)); }

TEST(StoreInterner, BottomIsIdZero) {
  Interner In;
  In.reset(4);
  EXPECT_EQ(In.bottom(), 0u);
  EXPECT_EQ(In.size(), 1u);
  EXPECT_EQ(In.store(In.bottom()), StoreT(4));
}

TEST(StoreInterner, EqualStoresGetEqualIds) {
  Interner In;
  In.reset(3);
  StoreT A(3), B(3);
  A.set(1, num(7));
  B.set(1, num(7));
  StoreId IdA = In.intern(A);
  StoreId IdB = In.intern(B);
  EXPECT_EQ(IdA, IdB);
  EXPECT_EQ(In.size(), 2u); // bottom + one distinct store

  StoreT C(3);
  C.set(1, num(8));
  EXPECT_NE(In.intern(C), IdA);
  EXPECT_EQ(In.size(), 3u);
}

TEST(StoreInterner, JoinAtIsCopyOnWrite) {
  Interner In;
  In.reset(3);
  StoreId Base = In.joinAt(In.bottom(), 0, num(5));
  EXPECT_NE(Base, In.bottom());

  // A join that does not move the slot must return the parent id with no
  // new entry interned.
  size_t Before = In.size();
  EXPECT_EQ(In.joinAt(Base, 0, num(5)), Base);
  EXPECT_EQ(In.joinAt(Base, 0, Val::bot()), Base);
  EXPECT_EQ(In.size(), Before);

  // A moving join produces a new id whose dense store is the expected
  // slot-wise join (5 join 6 = numeric top in the constant domain).
  StoreId Moved = In.joinAt(Base, 0, num(6));
  EXPECT_NE(Moved, Base);
  EXPECT_EQ(In.get(Moved, 0), Val::number(CD::top()));
  // ... and the parent is untouched.
  EXPECT_EQ(In.get(Base, 0), num(5));
}

TEST(StoreInterner, IncrementalHashMatchesFullHash) {
  // Reaching the same store by joinAt chains (incremental hash) and by
  // interning the dense store (full hash) must collapse to one id — this
  // is what the Dedup set's hash lookup relies on.
  Interner In;
  In.reset(8);
  StoreId Cur = In.bottom();
  StoreT Dense(8);
  for (uint32_t I = 0; I < 8; ++I) {
    Cur = In.joinAt(Cur, I, num(static_cast<int64_t>(I)));
    Dense.set(I, num(static_cast<int64_t>(I)));
  }
  EXPECT_EQ(In.intern(Dense), Cur);
  EXPECT_EQ(In.hashOf(Cur), In.hashOf(In.intern(Dense)));
}

TEST(StoreInterner, JoinFastPaths) {
  Interner In;
  In.reset(2);
  StoreId A = In.joinAt(In.bottom(), 0, num(1));
  StoreId B = In.joinAt(In.bottom(), 1, num(2));

  EXPECT_EQ(In.join(A, A), A);
  EXPECT_EQ(In.join(A, In.bottom()), A);
  EXPECT_EQ(In.join(In.bottom(), B), B);

  StoreId AB = In.join(A, B);
  EXPECT_EQ(In.get(AB, 0), num(1));
  EXPECT_EQ(In.get(AB, 1), num(2));
  // Joining is idempotent and canonical: recomputing gives the same id.
  EXPECT_EQ(In.join(A, B), AB);
  EXPECT_EQ(In.join(B, A), AB);
}

TEST(StoreInterner, ResetClearsTheUniverse) {
  Interner In;
  In.reset(2);
  In.joinAt(In.bottom(), 0, num(1));
  EXPECT_EQ(In.size(), 2u);
  In.reset(5);
  EXPECT_EQ(In.size(), 1u);
  EXPECT_EQ(In.bottom(), 0u);
  EXPECT_EQ(In.store(In.bottom()).size(), 5u);
}

TEST(StoreInterner, SameSlotAndLeqWorkOnIds) {
  Interner In;
  In.reset(3);
  StoreId A = In.joinAt(In.bottom(), 0, num(1));
  StoreId B = In.joinAt(A, 1, num(2));
  EXPECT_TRUE(In.sameSlot(A, B, 0));
  EXPECT_FALSE(In.sameSlot(A, B, 1));
  EXPECT_TRUE(In.sameSlot(A, B, 2));
  EXPECT_TRUE(In.leq(In.bottom(), A));
  EXPECT_TRUE(In.leq(A, B));
  EXPECT_FALSE(In.leq(B, A));
  StoreId C = In.joinAt(In.bottom(), 0, num(3));
  EXPECT_FALSE(In.leq(A, C));
  EXPECT_FALSE(In.leq(C, A));
}

// --- Differential check against a dense reference -------------------------

/// The interner as it was before stores became rows of value ids: one
/// dense AbsStore per entry, found by linear search. Ids are assigned in
/// interning order, exactly like StoreInterner's.
template <typename V> class DenseReference {
public:
  explicit DenseReference(size_t NumVars) { intern(AbsStore<V>(NumVars)); }

  StoreId intern(const AbsStore<V> &S) {
    for (StoreId Id = 0; Id < Stores.size(); ++Id)
      if (Stores[Id] == S)
        return Id;
    Stores.push_back(S);
    uint64_t Width = 0;
    for (uint32_t I = 0; I < S.size(); ++I)
      if (!(S.get(I) == V::bot()))
        ++Width;
    Widths.record(Width);
    return static_cast<StoreId>(Stores.size() - 1);
  }

  StoreId joinAt(StoreId Base, uint32_t Slot, const V &U) {
    AbsStore<V> S = Stores[Base];
    return S.joinAt(Slot, U) ? intern(S) : Base;
  }

  StoreId join(StoreId A, StoreId B) {
    if (A == B || B == 0)
      return A;
    if (A == 0)
      return B;
    if (AbsStore<V>::leq(Stores[A], Stores[B]))
      return B;
    if (AbsStore<V>::leq(Stores[B], Stores[A]))
      return A;
    return intern(AbsStore<V>::join(Stores[A], Stores[B]));
  }

  /// The commutative full-store hash the interner must agree with.
  static uint64_t fullHash(const AbsStore<V> &S) {
    uint64_t H = 0xab5;
    for (uint32_t I = 0; I < S.size(); ++I)
      H += hashSlot(I, S.get(I).hashValue());
    return H;
  }

  std::vector<AbsStore<V>> Stores;
  support::Histogram Widths;
};

/// A small random palette per value type: few enough distinct values
/// that stores collide often, enough that joins keep climbing.
AbsVal<CD> randomValue(Rng &R, AbsVal<CD> *) {
  switch (R.below(6)) {
  case 0:
    return AbsVal<CD>::bot();
  case 1:
    return AbsVal<CD>::number(CD::top());
  case 2:
    return AbsVal<CD>::closures(CloSet::single(CloRef::inc()));
  case 3:
    return AbsVal<CD>::closures(CloSet::single(CloRef::dec()));
  default:
    return num(static_cast<int64_t>(R.below(3)));
  }
}

template <typename Set>
PackedCpsVal<CD, Set> randomValue(Rng &R, PackedCpsVal<CD, Set> *) {
  // WideBits draws past the Bits128 range so multi-word blocks mix.
  uint64_t CloRange = std::is_same_v<Set, WideBits> ? 300 : 128;
  PackedCpsVal<CD, Set> V;
  if (R.chance(1, 2))
    V.Num = R.chance(1, 4) ? CD::top()
                           : CD::constant(static_cast<int64_t>(R.below(3)));
  if (R.chance(1, 3))
    V.Clos = Set::single(static_cast<uint32_t>(R.below(CloRange)));
  if (R.chance(1, 3))
    V.Konts = Set::single(static_cast<uint32_t>(R.below(4)));
  return V;
}

template <typename V> class StoreInternerDifferential : public testing::Test {};
using DiffValueTypes = testing::Types<AbsVal<CD>, PackedCpsVal<CD>,
                                      PackedCpsVal<CD, WideBits>>;
TYPED_TEST_SUITE(StoreInternerDifferential, DiffValueTypes);

TYPED_TEST(StoreInternerDifferential, MatchesDenseReference) {
  using V = TypeParam;
  constexpr uint32_t NumVars = 6;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    SCOPED_TRACE(Seed);
    Rng R(Seed);
    support::MetricsRegistry M;
    StoreInterner<V> In;
    In.attachMetrics(&M);
    In.reset(NumVars);
    DenseReference<V> Ref(NumVars);
    auto pick = [&] { return static_cast<StoreId>(R.below(In.size())); };
    for (int Op = 0; Op < 600; ++Op) {
      StoreId Got, Want;
      switch (R.below(3)) {
      case 0: {
        StoreId Base = pick();
        uint32_t Slot = static_cast<uint32_t>(R.below(NumVars));
        V U = randomValue(R, static_cast<V *>(nullptr));
        Got = In.joinAt(Base, Slot, U);
        Want = Ref.joinAt(Base, Slot, U);
        break;
      }
      case 1: {
        StoreId A = pick(), B = pick();
        Got = In.join(A, B);
        Want = Ref.join(A, B);
        break;
      }
      default: {
        AbsStore<V> S(NumVars);
        for (uint32_t I = 0; I < NumVars; ++I)
          if (R.chance(1, 2))
            S.set(I, randomValue(R, static_cast<V *>(nullptr)));
        Got = In.intern(S);
        Want = Ref.intern(S);
        break;
      }
      }
      ASSERT_EQ(Got, Want) << "op " << Op;
      ASSERT_EQ(In.size(), Ref.Stores.size()) << "op " << Op;
    }
    // Enough distinct stores that both hash tables grew past their
    // initial buckets.
    EXPECT_GT(In.size(), 64u);

    for (StoreId A = 0; A < In.size(); ++A) {
      const AbsStore<V> &DA = Ref.Stores[A];
      ASSERT_EQ(In.store(A), DA) << "store " << A;
      ASSERT_EQ(In.hashOf(A), DenseReference<V>::fullHash(DA)) << A;
      for (StoreId B = 0; B < In.size(); ++B) {
        const AbsStore<V> &DB = Ref.Stores[B];
        ASSERT_EQ(In.leq(A, B), AbsStore<V>::leq(DA, DB)) << A << " " << B;
        for (uint32_t S = 0; S < NumVars; ++S)
          ASSERT_EQ(In.sameSlot(A, B, S), DA.get(S) == DB.get(S))
              << A << " " << B << " slot " << S;
      }
    }

    const support::Histogram &H = M.histogram("storeSlots");
    EXPECT_EQ(H.count(), Ref.Widths.count());
    EXPECT_EQ(H.sum(), Ref.Widths.sum());
    EXPECT_EQ(H.min(), Ref.Widths.min());
    EXPECT_EQ(H.max(), Ref.Widths.max());
    for (unsigned I = 0; I < support::Histogram::NumBuckets; ++I)
      EXPECT_EQ(H.bucket(I), Ref.Widths.bucket(I)) << "bucket " << I;
  }
}

} // namespace
