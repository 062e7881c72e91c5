//===- perfbench/Pipeline.h - The traced in-process pipeline ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One program from source text to its five answers, calling each
/// module's public entry point directly so every layer can be timed:
/// syntax::parseSugaredProgram, anf::normalizeProgram, cps::cpsTransform,
/// and the five analyzers, configured exactly as clients::runBatch
/// configures them from a default clients::BatchOptions.
///
/// Each call is a span in a support::Tracer with a name, a start, a
/// duration, a parent span, and the program's id. Spans stay in memory
/// until the caller writes the tracer out.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_PERFBENCH_PIPELINE_H
#define CPSFLOW_PERFBENCH_PIPELINE_H

#include "Programs.h"

#include "analysis/Common.h"
#include "clients/Batch.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <string>

namespace perfbench {

/// A support::Tracer plus span numbering, so each span can name its
/// parent. Thread-safe.
class SpanLog {
public:
  cpsflow::support::Tracer Trace;
  uint64_t nextSpan() { return ++LastSpan; }

private:
  std::atomic<uint64_t> LastSpan{0};
};

/// Times [construction, close()) with the steady clock. With a non-null
/// log, close() also records the span, with args span/parent/id.
class Span {
public:
  Span(SpanLog *Log, std::string Name, uint64_t Parent, uint64_t Id);
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() { close(); }

  /// This span's number, for children to name as parent (0 untraced).
  uint64_t seq() const { return Seq; }
  /// Ends the span (idempotent) and returns its length in milliseconds.
  double close();

private:
  SpanLog *Log;
  std::string Name;
  uint64_t Seq, Parent, Id;
  uint64_t StartUs = 0;
  std::chrono::steady_clock::time_point Start;
  double Ms = -1;
};

struct LegRun {
  bool Ran = false;
  std::string Answer;
  cpsflow::analysis::AnalyzerStats Stats;
  double Ms = 0;
};

struct PipelineRun {
  std::string Name;
  bool Ok = false;
  std::string Error;
  uint64_t Nodes = 0;
  double ParseMs = 0, AnfMs = 0, CpsMs = 0, TotalMs = 0;
  LegRun Legs[NumLegs];
};

/// Runs \p P through the legs in \p LegMask (bit i = Legs[i]). \p Log may
/// be null; \p Id tags every span of this program.
PipelineRun runPipeline(const NamedProgram &P, unsigned LegMask,
                        SpanLog *Log, uint64_t Id);

/// \p R as a batch record, for clients::batchJson.
cpsflow::clients::BatchProgramResult toBatchRecord(const PipelineRun &R);

/// True when a governor or goal-budget wall cut the run short.
bool degraded(const cpsflow::analysis::AnalyzerStats &S);

} // namespace perfbench

#endif // CPSFLOW_PERFBENCH_PIPELINE_H
