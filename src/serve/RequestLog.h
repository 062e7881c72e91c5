//===- serve/RequestLog.h - Structured per-request logging ------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured request logging for `cpsflow serve`: every admitted analyze
/// request leaves exactly one line-delimited JSON record carrying its
/// identity (the request id minted at admission), what was asked
/// (analyzer/domain/source digest), what happened (outcome, failure
/// taxonomy kind, degrade reason, cache interaction, goal count),
/// and where the time went (queue / parse / cps / analyze / total).
///
/// Two consumers share the record type:
///
///  * RequestLog — the durable `--log-out FILE` sink. Appends are atomic
///    (one write(2) per record to an O_APPEND descriptor, serialized by a
///    mutex), and the file rotates by size: at the cap it is renamed to
///    FILE.1 (replacing any previous FILE.1) and reopened fresh, so the
///    daemon holds at most ~2x the cap on disk.
///  * FlightRecorder (FlightRecorder.h) — the in-memory ring of the last
///    N records, dumped on drain or on demand.
///
/// The record deliberately carries timings and is therefore NOT part of
/// any deterministic payload: the analyze response body a client sees is
/// byte-identical whether logging is on or off.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_SERVE_REQUESTLOG_H
#define CPSFLOW_SERVE_REQUESTLOG_H

#include <cstdint>
#include <mutex>
#include <string>

namespace cpsflow {
namespace serve {

/// Schema version stamped into every log record and flight-recorder
/// dump ("schema" field). Bump on any breaking field change; `cpsflow
/// version` reports it.
inline constexpr int RequestLogSchemaVersion = 2;

/// Everything the serving layer knows about one admitted request.
/// Filled incrementally: admission mints ReqId and the identity fields,
/// the worker adds outcome/timings, finishRequest() seals it.
struct RequestRecord {
  // -- identity, set at admission
  uint64_t ReqId = 0;        ///< daemon-unique, minted at admission
  uint64_t ClientId = 0;     ///< client correlation id ("id" field)
  bool HasClientId = false;
  std::string Analyzer;      ///< canonical analyzer name
  std::string Domain;
  uint64_t SourceLen = 0;    ///< program length in bytes
  uint64_t SourceDigest = 0; ///< gen::textDigest of the program

  // -- outcome, set at completion
  /// One of: "ok" | "degraded" | "shed" | "failed". Degraded responses
  /// are successful responses whose stats carry a degrade reason.
  std::string Outcome;
  std::string ErrorKind;     ///< taxonomy kind when Outcome == "failed"
  std::string DegradeReason; ///< governor wall name, "none" otherwise
  /// Result-cache interaction: "hit" | "store" | "miss" | "bypass"
  /// (request said noCache) | "off" (no cache configured) | "" (request
  /// never reached the cache, e.g. shed).
  std::string CacheOutcome;
  uint64_t Goals = 0;

  // -- timing phases, microseconds
  double QueueUs = 0;   ///< admission to worker pickup
  double ParseUs = 0;
  double CpsUs = 0;
  double AnalyzeUs = 0;
  double TotalUs = 0;   ///< admission to response written
  uint32_t Worker = 0;  ///< worker index that served it (0 when shed)

  /// Path of the captured slow-request trace, when one was spilled.
  std::string SlowTracePath;
};

/// Renders \p R as one JSON object line (no trailing newline), schema
/// RequestLogSchemaVersion. Field order is fixed, so tests can assert on
/// the rendering deterministically (timing values aside).
std::string renderRequestRecord(const RequestRecord &R);

/// The durable request-log sink. See the file comment for the append and
/// rotation discipline. Thread-safe.
class RequestLog {
public:
  /// Opens \p Path for appending. \p RotateBytes of 0 disables rotation.
  RequestLog(std::string Path, uint64_t RotateBytes);
  ~RequestLog();

  RequestLog(const RequestLog &) = delete;
  RequestLog &operator=(const RequestLog &) = delete;

  /// False when the file could not be opened; append() is then a no-op
  /// that counts a failure.
  bool ok() const;

  /// Renders and appends one record (atomic whole-line write).
  void append(const RequestRecord &R);

  uint64_t written() const;   ///< records successfully appended
  uint64_t failures() const;  ///< failed appends (disk full, bad fd)
  uint64_t rotations() const; ///< size-triggered rotations

private:
  void rotateLocked();

  std::string Path;
  uint64_t RotateBytes;
  mutable std::mutex Mu;
  int Fd = -1;
  uint64_t CurBytes = 0;
  uint64_t Written = 0;
  uint64_t Failures = 0;
  uint64_t Rotations = 0;
};

} // namespace serve
} // namespace cpsflow

#endif // CPSFLOW_SERVE_REQUESTLOG_H
