//===- serve/Server.h - Fault-tolerant analysis daemon ----------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cpsflow serve` daemon: line-delimited JSON over an AF_UNIX
/// stream socket, a fixed worker pool, bounded admission, and graceful
/// drain. Thread shape:
///
///   accept thread     accept()s connections, spawns one reader each
///   reader threads    frame lines, answer health/stats inline, admit
///                     analyze jobs to the bounded queue (or shed)
///   worker pool       pop jobs, run one contained analysis each,
///                     consult/fill the shared ResultCache, respond
///   grace thread      (during drain) fires the Interrupt token after
///                     the grace period so stuck analyses degrade
///                     through the governor instead of blocking exit
///
/// Invariants the tests hold the daemon to:
///
///  * Every admitted request gets exactly one response — success,
///    degraded success, or a structured error — on the connection it
///    arrived on, even when the handler throws, allocation fails, or a
///    fault is injected. A worker thread never dies.
///  * Past the queue high-water mark, new analyze requests are shed with
///    kind "shed" immediately; health/stats stay responsive because they
///    never queue.
///  * requestDrain() stops admission, lets in-flight work finish (or
///    degrade after DrainGraceMs), answers everything already queued,
///    and only then lets waitDrained() return.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_SERVE_SERVER_H
#define CPSFLOW_SERVE_SERVER_H

#include "serve/Analyze.h"
#include "serve/FlightRecorder.h"
#include "serve/Protocol.h"
#include "serve/RequestLog.h"
#include "serve/ResultCache.h"
#include "support/Metrics.h"
#include "support/Result.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cpsflow {
namespace serve {

struct ServeOptions {
  std::string SocketPath;
  unsigned Workers = 2;
  /// Admission high-water mark: analyze requests arriving while this
  /// many are already queued are shed.
  size_t QueueCap = 64;
  /// Result-cache directory; empty disables the cache.
  std::string CacheDir;
  /// How long drain lets in-flight analyses run before firing the
  /// interrupt token that degrades them.
  double DrainGraceMs = 2000;
  /// Default budgets for requests that do not override them.
  AnalyzeConfig Defaults;

  // -- observability (docs/OBSERVABILITY.md)

  /// Structured request log path; empty disables logging. One JSON line
  /// per finished analyze request (including sheds).
  std::string LogPath;
  /// Rotate the request log (FILE -> FILE.1) past this size; 0 never
  /// rotates.
  uint64_t LogRotateBytes = 64ull << 20;
  /// Flight-recorder ring capacity (last-N finished requests plus every
  /// request in flight); 0 disables the recorder.
  size_t FlightRecords = 256;
  /// Where drain and the `dump` op publish the flight-recorder frame.
  /// Empty + recorder on: derived as SocketPath + ".flight.json".
  std::string FlightDumpPath;
  /// Requests whose analysis wall time exceeds this get a Chrome trace
  /// spilled to TraceDir; 0 disables slow-request capture.
  double TraceSlowMs = 0;
  /// Spill directory for slow-request traces. Empty + capture on:
  /// derived as SocketPath + ".traces".
  std::string TraceDir;
  /// Cap on spilled trace files per daemon lifetime (bounds the disk the
  /// capture path can consume); excess slow requests count as dropped.
  uint64_t TraceSlowMax = 32;
};

class Server {
public:
  explicit Server(ServeOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts every thread. Error on bind/listen
  /// failure (socket path too long, directory missing, ...).
  Result<bool> start();

  /// Begins graceful shutdown: stop accepting, stop reading, shed
  /// nothing already queued, arm the grace timer. Idempotent,
  /// non-blocking, callable from any thread (including a worker
  /// answering a shutdown op) — but not from a signal handler; signal
  /// handlers set a flag the owning main loop polls.
  void requestDrain();

  /// Blocks until the daemon has fully drained, then joins every thread
  /// and removes the socket file. Calls requestDrain() first if nobody
  /// has. Must not be called from a server-owned thread.
  void waitDrained();

  bool draining() const { return Draining.load(); }
  const ServeOptions &options() const { return Opts; }
  ResultCache *cache() { return Cache.get(); }
  FlightRecorder *flight() { return Flight.get(); }

  /// Sum of queued and executing analyze jobs (health reporting).
  size_t inFlight() const;

private:
  struct Connection;
  struct Job {
    std::shared_ptr<Connection> Conn;
    ServeRequest Req;
    std::chrono::steady_clock::time_point Enqueued;
    RequestRecord Rec;
  };

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> C);
  void workerLoop(unsigned WorkerId);
  void handleLine(const std::shared_ptr<Connection> &C,
                  const std::string &Line);
  void processJob(Job J, unsigned WorkerId);
  std::string handleAnalyze(const ServeRequest &Req, RequestRecord &Rec,
                            unsigned WorkerId);
  std::string healthJson(const ServeRequest &Req);
  std::string statsJson(const ServeRequest &Req);
  std::string metricsResponse(const ServeRequest &Req);
  std::string dumpResponse(const ServeRequest &Req);
  /// Terminal bookkeeping for one analyze request: terminal counter,
  /// latency histograms, log record, flight-recorder completion — all
  /// before the response line goes out, so an observer that has received
  /// every response sees admitted == responded + shed + failed.
  void finishRecord(RequestRecord &Rec);
  /// Mirrors derived state (cache/queue/log/flight) into the
  /// registry. Caller holds MetricsMu; queue stats are passed in because
  /// they live under QMu and the two locks never nest.
  void refreshDerivedLocked(size_t Queued, size_t Running);
  void writeLine(Connection &C, const std::string &Line);
  void countError(ServeErrorKind Kind);

  ServeOptions Opts;
  std::unique_ptr<ResultCache> Cache;
  std::unique_ptr<RequestLog> Log;
  std::unique_ptr<FlightRecorder> Flight;
  /// One tracer per worker (slow-request capture); deque because Tracer
  /// owns a mutex and cannot move. Sized once in start().
  std::deque<support::Tracer> WorkerTracers;
  std::atomic<uint64_t> TraceFilesWritten{0};
  std::shared_ptr<support::CancelToken> Interrupt;

  int ListenFd = -1;
  bool Started = false;
  bool Drained = false;
  std::atomic<bool> Draining{false};
  std::atomic<uint64_t> NextOrdinal{0};

  std::thread AcceptThread;
  std::vector<std::thread> WorkerThreads;

  mutable std::mutex ConnMu; ///< guards Readers and Conns
  std::vector<std::thread> Readers;
  std::vector<std::weak_ptr<Connection>> Conns;

  mutable std::mutex QMu; ///< guards Queue, Executing, QStopping
  std::condition_variable QCv;
  std::deque<Job> Queue;
  size_t Executing = 0;
  bool QStopping = false;

  std::mutex GraceMu; ///< guards GraceDone + the grace thread handle
  std::condition_variable GraceCv;
  bool GraceDone = false;
  std::thread GraceThread;

  mutable std::mutex MetricsMu;
  support::MetricsRegistry Metrics;
};

} // namespace serve
} // namespace cpsflow

#endif // CPSFLOW_SERVE_SERVER_H
