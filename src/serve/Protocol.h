//===- serve/Protocol.h - Serve wire protocol -------------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cpsflow serve` wire protocol: line-delimited JSON over a unix
/// stream socket. One request object per line in, one response object per
/// line out, in request order per connection (docs/SERVE.md).
///
/// Requests:
///
/// \code
///   {"op":"analyze","program":"(add1 2)","analyzer":"direct",
///    "domain":"constant","id":7}
///   {"op":"health"}   {"op":"stats"}   {"op":"shutdown"}
///   {"op":"metrics","format":"prometheus"}   {"op":"dump"}
/// \endcode
///
/// Every response carries "ok". Failures carry the structured taxonomy
/// the batch driver introduced (parse|cps|deadline|memory|internal) plus
/// the serve-layer kinds (shed for admission-control rejections, protocol
/// for malformed requests) — a client never sees a dead connection or an
/// unexplained close while the daemon is up.
///
/// Request parsing is deliberately strict and bounded: the body is read
/// with a tight JSON nesting cap (MaxRequestJsonDepth) and unknown fields
/// are rejected, so a hostile client cannot feed the daemon anything the
/// analyzers were not built to see.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_SERVE_PROTOCOL_H
#define CPSFLOW_SERVE_PROTOCOL_H

#include "support/Result.h"

#include <cstdint>
#include <string>

namespace cpsflow {
namespace serve {

/// Why a request failed. The first five mirror clients::BatchFailKind;
/// Shed and Protocol are serve-layer outcomes.
enum class ServeErrorKind : uint8_t {
  Parse,    ///< program source did not parse
  Cps,      ///< CPS transform failed
  Deadline, ///< deadline tripped and the client asked for fail-on-budget
  Memory,   ///< allocation failure contained in the worker
  Internal, ///< contained unexpected exception (incl. injected faults)
  Shed,     ///< admission control: queue past the high-water mark
  Protocol, ///< malformed request line (bad JSON, bad op, bad field)
};

const char *str(ServeErrorKind K);

/// JSON nesting cap for request bodies. Requests are flat objects; 16
/// levels is already generous, and the cap keeps adversarial "[[[["
/// bodies from walking the parser's native stack.
inline constexpr unsigned MaxRequestJsonDepth = 16;

/// Longest accepted request line in bytes (1 MiB). A line past this is a
/// protocol error, not an unbounded buffer.
inline constexpr size_t MaxRequestBytes = 1u << 20;

/// A parsed request.
struct ServeRequest {
  enum class Op : uint8_t { Analyze, Health, Stats, Shutdown, Metrics, Dump };

  Op Kind = Op::Analyze;

  /// Echoed back verbatim in the response when the client supplied one
  /// (correlation id for pipelined requests).
  uint64_t Id = 0;
  bool HasId = false;

  /// metrics-op exposition format: "json" (default) or "prometheus".
  /// Rejected on any other op — the strict-parse ethos: a field that
  /// cannot mean anything is a protocol error, not dead weight.
  std::string Format = "json";

  // -- analyze fields. Defaults are the server's; a request may tighten
  // or loosen its own budgets within the server's ceilings.
  std::string Program;
  std::string Analyzer = "direct";
  std::string Domain = "constant";
  uint64_t MaxGoals = 0;   ///< 0 = server default
  uint32_t LoopUnroll = 64;
  uint64_t DupBudget = 2;
  double DeadlineMs = -1;  ///< <0 = server default; 0 = no deadline
  bool UseSummaries = true;
  bool NoCache = false;    ///< bypass the result cache for this request
};

/// Parses one request line. Any failure is a protocol error with a
/// message safe to echo to the client.
Result<ServeRequest> parseServeRequest(const std::string &Line);

/// Renders an error response line (no trailing newline).
/// \p Req may be null when the line never parsed.
std::string errorResponse(const ServeRequest *Req, ServeErrorKind Kind,
                          const std::string &Message);

/// Renders a success response line around \p PayloadJson, a pre-rendered
/// JSON object value (the cacheable analysis result). \p Cached reports
/// whether the payload came from the result cache.
std::string analyzeResponse(const ServeRequest &Req,
                            const std::string &PayloadJson, bool Cached);

} // namespace serve
} // namespace cpsflow

#endif // CPSFLOW_SERVE_PROTOCOL_H
