//===- domain/PackedSet.h - Word-packed lattice sets ------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-packed representations of the analyzer's finite powerset lattices.
///
/// A syntactic-CPS run draws every closure and continuation from a fixed,
/// program-derived universe: the label arena of cps/CpsIr.h numbers it
/// densely (closures: add1k, sub1k, then user lambdas by id;
/// continuations: stop, then continuation lambdas by id). A set is a bit
/// vector over that numbering, and the lattice operations are word ops:
/// join is OR, ⊑ is `(a & ~b) == 0`, equality is word compare. Iteration
/// yields ascending indices, which is the `SortedSet` iteration order of
/// the corresponding refs, so packing is an order-preserving lattice
/// isomorphism: an engine computing over `PackedCpsVal` performs exactly
/// the joins a `CpsAbsVal` engine performs, and unpacking at the boundary
/// reproduces its answers bitwise.
///
/// Two set types share one interface, and `PackedCpsVal` takes either:
///
///  * `Bits128` — two inline words, for universes of at most
///    `Bits128::Capacity` elements (every corpus program).
///  * `WideBits` — any size: an immutable, reference-counted block of
///    words, so copying a value is a pointer copy however wide the
///    universe is.
///
/// `Bits128::holds(N)` is the choice between them; the syntactic analyzer
/// makes it once per run, from its universe sizes.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_DOMAIN_PACKEDSET_H
#define CPSFLOW_DOMAIN_PACKEDSET_H

#include "support/Hashing.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace cpsflow {
namespace domain {

/// A subset of a dense universe of at most 128 elements, in two words.
struct Bits128 {
  static constexpr uint32_t Capacity = 128;

  /// Whether a universe of \p N elements fits.
  static bool holds(size_t N) { return N <= Capacity; }

  uint64_t Lo = 0;
  uint64_t Hi = 0;

  static Bits128 single(uint32_t I) {
    Bits128 B;
    B.set(I);
    return B;
  }

  /// The first \p N universe elements — the packed "top" set.
  static Bits128 firstN(uint32_t N) {
    Bits128 B;
    B.Lo = N >= 64 ? ~0ull : (N ? (~0ull >> (64 - N)) : 0);
    B.Hi = N <= 64 ? 0 : (N >= 128 ? ~0ull : (~0ull >> (128 - N)));
    return B;
  }

  void set(uint32_t I) { (I < 64 ? Lo : Hi) |= 1ull << (I & 63); }
  bool test(uint32_t I) const {
    return (((I < 64 ? Lo : Hi) >> (I & 63)) & 1) != 0;
  }
  bool empty() const { return (Lo | Hi) == 0; }
  uint32_t size() const {
    return static_cast<uint32_t>(__builtin_popcountll(Lo) +
                                 __builtin_popcountll(Hi));
  }

  static Bits128 join(Bits128 A, Bits128 B) {
    return Bits128{A.Lo | B.Lo, A.Hi | B.Hi};
  }
  static bool leq(Bits128 A, Bits128 B) {
    return ((A.Lo & ~B.Lo) | (A.Hi & ~B.Hi)) == 0;
  }

  friend bool operator==(Bits128 A, Bits128 B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(Bits128 A, Bits128 B) { return !(A == B); }

  /// Visits members in ascending rank — the `SortedSet` iteration order
  /// of the corresponding refs.
  template <typename F> void forEach(F Fn) const {
    for (uint64_t W = Lo; W; W &= W - 1)
      Fn(static_cast<uint32_t>(__builtin_ctzll(W)));
    for (uint64_t W = Hi; W; W &= W - 1)
      Fn(static_cast<uint32_t>(64 + __builtin_ctzll(W)));
  }

  uint64_t hashValue() const {
    uint64_t H = 0x5e75; // same family as SortedSet's seed
    hashCombine(H, Lo);
    hashCombine(H, Hi);
    return H;
  }
};

/// A subset of a dense universe of any size. The words live in one
/// immutable heap block shared by every copy (an intrusive, non-atomic
/// reference count: a run's values never cross threads), trimmed so the
/// last word is non-zero; the empty set has no block. A join that adds
/// nothing returns an existing operand, so the fixpoint tail allocates
/// nothing.
class WideBits {
public:
  WideBits() = default;
  WideBits(const WideBits &O) : B(O.B) {
    if (B)
      ++B->Refs;
  }
  WideBits(WideBits &&O) noexcept : B(O.B) { O.B = nullptr; }
  WideBits &operator=(WideBits O) noexcept {
    std::swap(B, O.B);
    return *this;
  }
  ~WideBits() {
    if (B && --B->Refs == 0)
      free(B);
  }

  static WideBits single(uint32_t I) {
    WideBits S = alloc((I >> 6) + 1);
    S.B->words()[I >> 6] = 1ull << (I & 63);
    S.seal();
    return S;
  }

  /// The first \p N universe elements — the packed "top" set.
  static WideBits firstN(uint32_t N) {
    if (N == 0)
      return WideBits();
    WideBits S = alloc((N + 63) >> 6);
    uint64_t *W = S.B->words();
    std::fill(W, W + S.B->Words, ~0ull);
    if (N & 63)
      W[S.B->Words - 1] = ~0ull >> (64 - (N & 63));
    S.seal();
    return S;
  }

  bool empty() const { return B == nullptr; }
  uint32_t size() const {
    uint32_t N = 0;
    for (uint32_t I = 0; I < words(); ++I)
      N += static_cast<uint32_t>(__builtin_popcountll(B->words()[I]));
    return N;
  }

  static WideBits join(const WideBits &A, const WideBits &B) {
    if (leq(B, A))
      return A;
    if (leq(A, B))
      return B;
    const WideBits &Long = A.words() >= B.words() ? A : B;
    const WideBits &Short = A.words() >= B.words() ? B : A;
    WideBits S = alloc(Long.words());
    uint64_t *W = S.B->words();
    std::copy(Long.B->words(), Long.B->words() + Long.words(), W);
    for (uint32_t I = 0; I < Short.words(); ++I)
      W[I] |= Short.B->words()[I];
    S.seal();
    return S;
  }
  static bool leq(const WideBits &A, const WideBits &B) {
    if (A.B == B.B || !A.B)
      return true;
    if (A.words() > B.words())
      return false;
    for (uint32_t I = 0; I < A.words(); ++I)
      if (A.B->words()[I] & ~B.B->words()[I])
        return false;
    return true;
  }

  friend bool operator==(const WideBits &A, const WideBits &B) {
    if (A.B == B.B)
      return true;
    if (!A.B || !B.B || A.B->Hash != B.B->Hash || A.words() != B.words())
      return false;
    return std::memcmp(A.B->words(), B.B->words(), A.words() * 8) == 0;
  }
  friend bool operator!=(const WideBits &A, const WideBits &B) {
    return !(A == B);
  }

  /// Visits members in ascending rank, as Bits128::forEach does.
  template <typename F> void forEach(F Fn) const {
    for (uint32_t I = 0; I < words(); ++I)
      for (uint64_t W = B->words()[I]; W; W &= W - 1)
        Fn(static_cast<uint32_t>((I << 6) + __builtin_ctzll(W)));
  }

  uint64_t hashValue() const { return B ? B->Hash : 0x5e75; }

private:
  /// Header of the shared block; the words follow it.
  struct Block {
    uint32_t Refs;
    uint32_t Words;
    uint64_t Hash;
    uint64_t *words() { return reinterpret_cast<uint64_t *>(this + 1); }
  };

  static WideBits alloc(uint32_t Words) {
    WideBits S;
    S.B = new (::operator new(sizeof(Block) + Words * sizeof(uint64_t)))
        Block{1, Words, 0};
    std::fill(S.B->words(), S.B->words() + Words, 0ull);
    return S;
  }
  /// Hashes the finished words, as Bits128::hashValue does its two.
  void seal() {
    uint64_t H = 0x5e75;
    for (uint32_t I = 0; I < B->Words; ++I)
      hashCombine(H, B->words()[I]);
    B->Hash = H;
  }
  uint32_t words() const { return B ? B->Words : 0; }
  /// Out of line so GCC's -Wuse-after-free cannot pair the count test
  /// of one inlined copy with the free of another.
  [[gnu::noinline]] static void free(Block *Dead) { ::operator delete(Dead); }

  Block *B = nullptr;
};

/// The packed mirror of CpsAbsVal<D>: (number, closure ranks,
/// continuation ranks) over set type \p Set (Bits128 or WideBits).
/// Interface-compatible with what AbsStore and StoreInterner require of a
/// value type.
template <typename D, typename Set = Bits128> struct PackedCpsVal {
  typename D::Elem Num = D::bot();
  Set Clos;
  Set Konts;

  static PackedCpsVal bot() { return PackedCpsVal(); }

  static PackedCpsVal number(typename D::Elem E) {
    PackedCpsVal V;
    V.Num = E;
    return V;
  }

  static PackedCpsVal closures(Set S) {
    PackedCpsVal V;
    V.Clos = S;
    return V;
  }

  static PackedCpsVal konts(Set S) {
    PackedCpsVal V;
    V.Konts = S;
    return V;
  }

  bool isBot() const {
    return D::leq(Num, D::bot()) && Clos.empty() && Konts.empty();
  }

  static PackedCpsVal join(const PackedCpsVal &A, const PackedCpsVal &B) {
    PackedCpsVal V;
    V.Num = D::join(A.Num, B.Num);
    V.Clos = Set::join(A.Clos, B.Clos);
    V.Konts = Set::join(A.Konts, B.Konts);
    return V;
  }

  static bool leq(const PackedCpsVal &A, const PackedCpsVal &B) {
    return D::leq(A.Num, B.Num) && Set::leq(A.Clos, B.Clos) &&
           Set::leq(A.Konts, B.Konts);
  }

  friend bool operator==(const PackedCpsVal &A, const PackedCpsVal &B) {
    return A.Num == B.Num && A.Clos == B.Clos && A.Konts == B.Konts;
  }
  friend bool operator!=(const PackedCpsVal &A, const PackedCpsVal &B) {
    return !(A == B);
  }

  uint64_t hashValue() const {
    uint64_t H = D::hash(Num);
    hashCombine(H, Clos.hashValue());
    hashCombine(H, Konts.hashValue());
    return H;
  }
};

} // namespace domain
} // namespace cpsflow

#endif // CPSFLOW_DOMAIN_PACKEDSET_H
