//===- serve/ResultCache.cpp - Crash-safe on-disk result cache ------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/ResultCache.h"

#include "gen/Digest.h"
#include "support/FaultInjector.h"
#include "support/Hashing.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <signal.h>
#include <unistd.h>

using namespace cpsflow;
using namespace cpsflow::serve;

namespace fs = std::filesystem;

namespace {

constexpr const char *Magic = "cpsflow-cache";
// v2 added the source length and second source digest to the header (the
// filename-hash collision guard); v3 payloads no longer carry the replay
// counters in their stats block. An older entry after an upgrade is simply
// removed and re-filled — a format change is not corruption.
constexpr int FormatVersion = 3;

/// How old a leaked `.tmp.*` file must be before the open-time sweep
/// removes it even though its pid appears alive (pid reuse): no real
/// in-flight write spans minutes.
constexpr auto TmpGrace = std::chrono::minutes(15);

/// FNV-1a over the payload. Not cryptographic — the threat model is
/// torn writes and bit rot, not an adversary forging entries (anyone who
/// can write the cache directory can already write valid frames).
uint64_t checksumOf(const std::string &Payload) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Payload) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string frameHeader(size_t PayloadBytes, uint64_t Checksum,
                        const CacheKey &K) {
  std::ostringstream H;
  H << Magic << ' ' << FormatVersion << ' ' << PayloadBytes << ' '
    << hex16(Checksum) << ' ' << K.SourceLen << ' ' << hex16(K.SourceDigest2)
    << '\n';
  return H.str();
}

} // namespace

uint64_t cpsflow::serve::cacheKeyHash(const CacheKey &K) {
  uint64_t Seed = 0x63707366736b6579ull; // "cpsfskey"
  hashCombine(Seed, K.SourceDigest);
  hashCombine(Seed, gen::textDigest(K.Analyzer));
  hashCombine(Seed, gen::textDigest(K.Domain));
  hashCombine(Seed, K.MaxGoals);
  hashCombine(Seed, K.LoopUnroll);
  hashCombine(Seed, K.DupBudget);
  hashCombine(Seed, K.UseSummaries ? 1 : 0);
  return Seed;
}

ResultCache::ResultCache(std::string Dir) : Root(std::move(Dir)) {
  std::error_code Ec;
  fs::create_directories(fs::path(Root) / "entries", Ec);
  if (Ec)
    return;
  fs::create_directories(fs::path(Root) / "quarantine", Ec);
  if (Ec)
    return;
  Usable = true;
  sweepStaleTmp();
}

void ResultCache::sweepStaleTmp() {
  std::error_code Ec;
  const auto Now = fs::file_time_type::clock::now();
  for (const fs::directory_entry &E :
       fs::directory_iterator(fs::path(Root) / "entries", Ec)) {
    const std::string Name = E.path().filename().string();
    if (Name.rfind(".tmp.", 0) != 0)
      continue;
    // Parse the writer pid out of ".tmp.<pid>.<seq>". Unparsable names
    // fall through to the age test alone.
    long Pid = -1;
    size_t PidEnd = Name.find('.', 5);
    if (PidEnd != std::string::npos && PidEnd > 5) {
      Pid = 0;
      for (size_t I = 5; I < PidEnd && Pid >= 0; ++I)
        Pid = (Name[I] >= '0' && Name[I] <= '9') ? Pid * 10 + (Name[I] - '0')
                                                 : -1;
    }
    bool Stale =
        Pid > 0 && ::kill(static_cast<pid_t>(Pid), 0) != 0 && errno == ESRCH;
    if (!Stale) {
      // The pid is alive (possibly reused) or unknown; only age condemns.
      std::error_code TimeEc;
      fs::file_time_type Mtime = fs::last_write_time(E.path(), TimeEc);
      Stale = !TimeEc && Now - Mtime > TmpGrace;
    }
    if (!Stale)
      continue;
    std::error_code RmEc;
    if (fs::remove(E.path(), RmEc) && !RmEc) {
      std::lock_guard<std::mutex> Lock(M);
      ++Stats.SweptTmp;
    }
  }
}

std::string ResultCache::entryPath(const CacheKey &K) const {
  return (fs::path(Root) / "entries" / (hex16(cacheKeyHash(K)) + ".entry"))
      .string();
}

std::string ResultCache::quarantinePath(const std::string &Name) {
  // Caller holds M. A fresh suffix per quarantined file: the same key can
  // be corrupted, quarantined, recomputed, and corrupted again.
  return (fs::path(Root) / "quarantine" /
          (Name + "." + std::to_string(++QuarantineSeq)))
      .string();
}

std::optional<std::string> ResultCache::lookup(const CacheKey &K) {
  if (!Usable)
    return std::nullopt;
  const std::string Path = entryPath(K);

  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.Misses;
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Raw = Buf.str();

  // Validate the frame. Every corrupt-shaped branch below is the same
  // outcome — the entry is not trustworthy — so compute one verdict, then
  // act once. Identity and format mismatches are separated out: those
  // frames are intact, just not answers to *this* question.
  std::optional<std::string> Payload;
  bool StaleFormat = false;
  bool Collision = false;
  size_t HeaderEnd = Raw.find('\n');
  if (HeaderEnd != std::string::npos) {
    std::istringstream Header(Raw.substr(0, HeaderEnd));
    std::string Word;
    int Version = 0;
    uint64_t DeclaredBytes = 0;
    std::string DeclaredSum;
    uint64_t DeclaredSrcLen = 0;
    std::string DeclaredDigest2;
    if (Header >> Word >> Version && Word == Magic &&
        Version != FormatVersion) {
      StaleFormat = true; // pre-upgrade entry; remove and recompute
    } else if (Header >> DeclaredBytes >> DeclaredSum >> DeclaredSrcLen >>
                   DeclaredDigest2 &&
               Word == Magic && Version == FormatVersion &&
               Header.rdbuf()->in_avail() == 0) {
      std::string Body = Raw.substr(HeaderEnd + 1);
      // Truncated AND over-long frames are both corrupt: a frame with
      // trailing bytes was not written by one atomic publish.
      if (Body.size() == DeclaredBytes &&
          hex16(checksumOf(Body)) == DeclaredSum) {
        if (DeclaredSrcLen == K.SourceLen &&
            DeclaredDigest2 == hex16(K.SourceDigest2))
          Payload = std::move(Body);
        else
          Collision = true; // valid frame, different program: alias caught
      }
    }
  }

  if (Payload) {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.Hits;
    return Payload;
  }

  if (StaleFormat || Collision) {
    // Not corruption: the frame is internally consistent. A stale-format
    // entry is dead weight — remove it. A collision entry is some other
    // key's live answer sharing our filename — leave it; our store() will
    // overwrite, and the alias pair thrashes instead of lying.
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Stats.Misses;
      if (Collision)
        ++Stats.Collisions;
    }
    if (StaleFormat) {
      std::error_code Ec;
      fs::remove(Path, Ec);
    }
    return std::nullopt;
  }

  // Corrupt: quarantine for post-mortem and fall through to a miss, so
  // the caller recomputes and re-publishes a good entry.
  In.close();
  std::string QPath;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.Corrupt;
    ++Stats.Misses;
    QPath = quarantinePath(fs::path(Path).filename().string());
  }
  std::error_code Ec;
  fs::rename(Path, QPath, Ec);
  if (Ec)
    fs::remove(Path, Ec); // second-best: at least stop re-reading it
  return std::nullopt;
}

bool ResultCache::store(const CacheKey &K, const std::string &Payload) {
  if (!Usable)
    return false;
  const std::string Name = hex16(cacheKeyHash(K));
  const std::string Path = entryPath(K);

  std::string Tmp;
  {
    std::lock_guard<std::mutex> Lock(M);
    Tmp = (fs::path(Root) / "entries" /
           (".tmp." + std::to_string(::getpid()) + "." +
            std::to_string(++TmpSeq)))
              .string();
  }

  std::string Frame = frameHeader(Payload.size(), checksumOf(Payload), K);
  bool Torn = CPSFLOW_FAULT_TEARS(fault::Site::CacheWrite, Name);
  if (Torn)
    // Simulated crash mid-write: the header promises the full payload but
    // only half of it lands before the "crash". The publish below still
    // happens — this models dying between write and fsync, the exact
    // frame shape lookup() must detect and quarantine.
    Frame += Payload.substr(0, Payload.size() / 2);
  else
    Frame += Payload;

  std::error_code Ec;
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    Out.write(Frame.data(), static_cast<std::streamsize>(Frame.size()));
    Out.flush();
    if (!Out) {
      std::lock_guard<std::mutex> Lock(M);
      ++Stats.StoreFailures;
      fs::remove(Tmp, Ec);
      return false;
    }
  }
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.StoreFailures;
    fs::remove(Tmp, Ec);
    return false;
  }

  std::lock_guard<std::mutex> Lock(M);
  if (Torn) {
    ++Stats.StoreFailures;
    return false;
  }
  ++Stats.Stores;
  return true;
}

ResultCache::CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}
