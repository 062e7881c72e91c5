//===- serve/Analyze.h - One contained serve analysis -----------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve worker's unit of work: one program, one analyzer leg, one
/// domain, fully contained. Unlike the batch driver (which runs all four
/// legs per program), a service request names exactly the leg it wants,
/// so this path parses, normalizes, CPS-transforms, and runs that single
/// analyzer under the request's governor budgets.
///
/// Containment is total: parse and CPS failures, governor trips,
/// allocation failure, and any escaping exception (including injected
/// faults) all come back as a structured outcome — the caller always has
/// a response to write, and a worker thread never dies.
///
/// The success payload is deterministic (no wall-clock fields), which is
/// what makes it cacheable byte-for-byte: a cache hit is
/// indistinguishable from a recomputation.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_SERVE_ANALYZE_H
#define CPSFLOW_SERVE_ANALYZE_H

#include "serve/Protocol.h"
#include "support/Governor.h"
#include "support/Trace.h"

#include <memory>
#include <string>

namespace cpsflow {
namespace serve {

/// Server-side budgets and ceilings applied to one analysis. The caller
/// (Server) resolves these from its own defaults and the request's
/// overrides before dispatching.
struct AnalyzeConfig {
  uint64_t MaxGoals = 5'000'000;
  double DeadlineMs = 10'000; ///< <=0 disables the deadline
  uint64_t MaxStoreBytes = 256ull << 20;
  uint32_t MaxDepth = 0;
  /// Process-wide drain/interrupt token; in-flight analyses degrade
  /// through the governor when it fires.
  std::shared_ptr<support::CancelToken> Interrupt;
  /// When non-null, the run wraps its phases in TraceSpans and samples
  /// per-goal instants here (slow-request capture: the worker owns one
  /// tracer, clears it per request, and spills the events only when the
  /// request turns out slow). Never affects the deterministic payload.
  support::Tracer *Trace = nullptr;
  /// Track id for Trace events (the worker index).
  uint32_t TraceTid = 0;
};

struct AnalyzeOutcome {
  bool Ok = false;
  // -- failure half
  ServeErrorKind Kind = ServeErrorKind::Internal;
  std::string Message;
  // -- success half
  std::string PayloadJson; ///< deterministic result object
  bool Degraded = false;   ///< some governor/budget wall was hit
  std::string Answer;      ///< rendered abstract answer (loadgen --verify)

  // -- observability (request-log material; never part of PayloadJson,
  // so the payload stays deterministic and cacheable)
  uint64_t Goals = 0;
  /// The governor wall that degraded the run ("none" when clean) — the
  /// same spelling the payload's stats block carries.
  std::string DegradeReason = "none";
  double ParseUs = 0;   ///< parse + ANF normalization
  double CpsUs = 0;     ///< CPS transform
  double AnalyzeUs = 0; ///< the analyzer run itself
};

/// Runs Req.Program through Req.Analyzer at Req.Domain under \p Cfg.
/// Never throws.
AnalyzeOutcome runServeAnalyze(const ServeRequest &Req,
                               const AnalyzeConfig &Cfg,
                               uint64_t RequestOrdinal);

} // namespace serve
} // namespace cpsflow

#endif // CPSFLOW_SERVE_ANALYZE_H
