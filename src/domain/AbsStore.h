//===- domain/AbsStore.h - Abstract stores ----------------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract stores (Section 4.1): after the 0CFA approximation, each
/// variable has exactly one location, so the store maps variables directly
/// to abstract values. An AbsStore is the dense, self-contained form: one
/// value per variable of a VarIndex (the fixed, per-program variable
/// universe). The analyzers do not run on it — inside a run every store
/// is a row of value ids in the run's StoreInterner
/// (domain/StoreInterner.h) — so AbsStore is what initial stores are
/// built from, what answers carry out of run(), and what tests and
/// reference analyzers compare.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_DOMAIN_ABSSTORE_H
#define CPSFLOW_DOMAIN_ABSSTORE_H

#include "support/Hashing.h"
#include "support/Symbol.h"

#include <cassert>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace cpsflow {
namespace domain {

/// The fixed variable universe of one analysis run: a bijection between
/// the variables a program (plus its initial store) can mention and dense
/// indices.
class VarIndex {
public:
  explicit VarIndex(const std::vector<Symbol> &Vars) {
    for (Symbol S : Vars)
      if (Lookup.emplace(S, static_cast<uint32_t>(Order.size())).second)
        Order.push_back(S);
  }

  size_t size() const { return Order.size(); }

  bool contains(Symbol S) const { return Lookup.count(S) != 0; }

  uint32_t of(Symbol S) const {
    auto It = Lookup.find(S);
    assert(It != Lookup.end() && "variable outside the analysis universe");
    return It->second;
  }

  /// Single-lookup variant of contains+of for variables that may be
  /// outside the universe.
  std::optional<uint32_t> tryOf(Symbol S) const {
    auto It = Lookup.find(S);
    if (It == Lookup.end())
      return std::nullopt;
    return It->second;
  }

  Symbol symbolAt(uint32_t I) const {
    assert(I < Order.size() && "index out of range");
    return Order[I];
  }

private:
  std::vector<Symbol> Order;
  std::unordered_map<Symbol, uint32_t> Lookup;
};

/// A dense abstract store over value type \p V (an AbsVal or CpsAbsVal
/// instantiation). All slots start at bottom.
template <typename V> class AbsStore {
public:
  AbsStore() = default;
  explicit AbsStore(size_t NumVars) : Slots(NumVars) {}

  size_t size() const { return Slots.size(); }

  const V &get(uint32_t I) const {
    assert(I < Slots.size() && "slot out of range");
    return Slots[I];
  }

  /// sigma[x := sigma(x) join U] — the only kind of update the abstract
  /// interpreters perform. \returns true if the slot changed.
  bool joinAt(uint32_t I, const V &U) {
    assert(I < Slots.size() && "slot out of range");
    V Joined = V::join(Slots[I], U);
    if (Joined == Slots[I])
      return false;
    Slots[I] = std::move(Joined);
    return true;
  }

  /// Destructive strong update; used only when seeding initial stores.
  void set(uint32_t I, V U) {
    assert(I < Slots.size() && "slot out of range");
    Slots[I] = std::move(U);
  }

  static AbsStore join(const AbsStore &A, const AbsStore &B) {
    assert(A.size() == B.size() && "joining stores of different universes");
    AbsStore Out(A.size());
    for (size_t I = 0; I < A.size(); ++I)
      Out.Slots[I] = V::join(A.Slots[I], B.Slots[I]);
    return Out;
  }

  static bool leq(const AbsStore &A, const AbsStore &B) {
    assert(A.size() == B.size() && "comparing stores of different universes");
    for (size_t I = 0; I < A.size(); ++I)
      if (!V::leq(A.Slots[I], B.Slots[I]))
        return false;
    return true;
  }

  friend bool operator==(const AbsStore &A, const AbsStore &B) {
    return A.Slots == B.Slots;
  }
  friend bool operator!=(const AbsStore &A, const AbsStore &B) {
    return !(A == B);
  }

  uint64_t hashValue() const {
    uint64_t H = 0xab5;
    for (const V &Slot : Slots)
      hashCombine(H, Slot.hashValue());
    return H;
  }

private:
  std::vector<V> Slots;
};

} // namespace domain
} // namespace cpsflow

#endif // CPSFLOW_DOMAIN_ABSSTORE_H
