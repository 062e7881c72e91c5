//===- serve/ResultCache.h - Crash-safe on-disk result cache ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, content-addressed cache of analysis results shared by
/// every `cpsflow serve` worker (and across daemon restarts).
///
/// Keying. An entry is addressed by the *analysis problem*, not the
/// request: source digest (gen::textDigest), analyzer leg, domain, and
/// every budget that changes the computed answer (MaxGoals, LoopUnroll,
/// DupBudget, UseSummaries). Wall-clock and footprint ceilings
/// (deadlineMs, MaxStoreBytes, MaxDepth) are deliberately NOT part of the
/// key: only results that finished without degrading are stored, and a
/// non-tripped governed run computes byte-for-byte what an ungoverned run
/// computes, so the same entry is valid under any ceiling.
///
/// The entry *filename* is a 64-bit hash of that key, which is too narrow
/// to be an identity: two different sources colliding on textDigest would
/// silently alias the same file and one would be served the other's
/// answer. So the frame also records the source length and a second,
/// independently-seeded 64-bit source digest (gen::textDigest2), and
/// lookup() verifies both against the requesting key. A mismatch is a
/// *collision miss* — the entry is a perfectly valid frame for some other
/// program, so it is left in place (not quarantined) and the recompute's
/// store() overwrites it; the aliased pair then thrashes instead of
/// lying, which is the correct trade for a cache.
///
/// Crash safety. An entry is a checksummed frame
///
/// \code
///   cpsflow-cache 3 <payload-bytes> <fnv64-hex> <source-len> <digest2-hex>\n<payload>
/// \endcode
///
/// written to a unique temp file and published with an atomic rename —
/// readers never observe a partially-written path under normal operation.
/// The failure model is a daemon killed mid-write (or a bit-flipping
/// disk): lookup() re-validates magic, version, length, and checksum on
/// every read, and an entry failing any of them is moved into
/// `quarantine/` (for post-mortem) and reported as a miss, so corruption
/// is recomputed through — never served, never fatal.
///
/// Fault injection: store() consults the CacheWrite tear site and, when
/// armed, publishes a deliberately torn frame (full header, truncated
/// payload), exercising exactly the recovery path above.
///
/// Leaked temp files. A writer that crashes between creating its unique
/// `entries/.tmp.<pid>.<seq>` file and the publishing rename leaks that
/// file forever (nothing ever renames or reopens it). Opening the cache
/// sweeps these: a `.tmp.*` whose pid no longer exists, or whose file is
/// older than a generous grace window (covering pid reuse), is removed.
/// A live concurrent writer's fresh temp file matches neither test and
/// survives.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_SERVE_RESULTCACHE_H
#define CPSFLOW_SERVE_RESULTCACHE_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace cpsflow {
namespace serve {

/// Everything that determines a cached answer.
struct CacheKey {
  uint64_t SourceDigest = 0; ///< gen::textDigest of the program source
  /// Independent second digest (gen::textDigest2) plus the raw source
  /// length: stored in the entry header and re-verified on lookup, so a
  /// SourceDigest collision between two different programs is detected
  /// as a miss instead of served as the wrong answer. Not part of the
  /// filename hash — that is what makes the verification independent.
  uint64_t SourceDigest2 = 0;
  uint64_t SourceLen = 0;
  std::string Analyzer; ///< direct|semantic|syntactic|dup
  std::string Domain;   ///< constant|unit|sign|parity|interval
  uint64_t MaxGoals = 0;
  uint32_t LoopUnroll = 0;
  uint64_t DupBudget = 0;
  bool UseSummaries = false;
};

/// Stable 64-bit address of \p K (the entry filename).
uint64_t cacheKeyHash(const CacheKey &K);

class ResultCache {
public:
  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Stores = 0;
    uint64_t StoreFailures = 0; ///< I/O failures and injected tears
    uint64_t Corrupt = 0;       ///< entries detected bad and quarantined
    uint64_t Collisions = 0;    ///< filename-hash aliases caught by the
                                ///< source length/digest2 identity check
    uint64_t SweptTmp = 0;      ///< leaked .tmp.* files removed at open
  };

  /// Opens (creating if needed) the cache rooted at \p Dir. On any setup
  /// failure the cache degrades to a no-op: ok() is false, every lookup
  /// misses, every store fails — the daemon keeps serving, uncached.
  explicit ResultCache(std::string Dir);

  bool ok() const { return Usable; }
  const std::string &dir() const { return Root; }

  /// The payload stored for \p K, or nullopt. A corrupt entry is
  /// quarantined and reported as a miss.
  std::optional<std::string> lookup(const CacheKey &K);

  /// Atomically publishes \p Payload for \p K. False on failure (the
  /// cache stays consistent either way).
  bool store(const CacheKey &K, const std::string &Payload);

  CacheStats stats() const;

  /// The on-disk path an entry for \p K lives at (exposed for tests that
  /// corrupt entries deliberately).
  std::string entryPath(const CacheKey &K) const;

private:
  std::string quarantinePath(const std::string &Name);
  void sweepStaleTmp();

  std::string Root;
  bool Usable = false;
  mutable std::mutex M; ///< guards Stats and the temp/quarantine counters
  CacheStats Stats;
  uint64_t TmpSeq = 0;
  uint64_t QuarantineSeq = 0;
};

} // namespace serve
} // namespace cpsflow

#endif // CPSFLOW_SERVE_RESULTCACHE_H
