//===- serve/Server.cpp - Fault-tolerant analysis daemon ------------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "gen/Digest.h"
#include "support/FaultInjector.h"
#include "support/Json.h"

#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cpsflow;
using namespace cpsflow::serve;

namespace {

/// Microseconds elapsed since \p T0, clamped non-negative.
double usSince(std::chrono::steady_clock::time_point T0) {
  double Us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  return Us < 0 ? 0 : Us;
}

} // namespace

/// One client connection. The fd is shared by the reader (recv) and any
/// worker holding a queued job for it (send); the last owner's
/// destructor closes it, so responses already queued when the client
/// stops sending still go out before the close.
struct Server::Connection {
  explicit Connection(int Fd) : Fd(Fd) {}
  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  int Fd;
  std::mutex WriteMu; ///< responses from concurrent workers interleave
                      ///< by whole lines, never by bytes
  std::atomic<bool> WriteDead{false};
};

Server::Server(ServeOptions Opts)
    : Opts(std::move(Opts)),
      Interrupt(std::make_shared<support::CancelToken>()) {
  if (this->Opts.Workers == 0)
    this->Opts.Workers = 1;
  this->Opts.Defaults.Interrupt = Interrupt;
}

Server::~Server() {
  if (Started && !Drained) {
    requestDrain();
    waitDrained();
  }
}

Result<bool> Server::start() {
  if (!Opts.CacheDir.empty()) {
    Cache = std::make_unique<ResultCache>(Opts.CacheDir);
    if (!Cache->ok())
      return Error("cannot create cache directory '" + Opts.CacheDir + "'");
  }

  if (!Opts.LogPath.empty()) {
    Log = std::make_unique<RequestLog>(Opts.LogPath, Opts.LogRotateBytes);
    if (!Log->ok())
      return Error("cannot open request log '" + Opts.LogPath + "'");
  }
  if (Opts.FlightRecords > 0) {
    Flight = std::make_unique<FlightRecorder>(Opts.FlightRecords);
    if (Opts.FlightDumpPath.empty())
      Opts.FlightDumpPath = Opts.SocketPath + ".flight.json";
  }
  if (Opts.TraceSlowMs > 0 && Opts.TraceDir.empty())
    Opts.TraceDir = Opts.SocketPath + ".traces";

  // Pre-declare the full counter vocabulary so the very first scrape
  // already carries every series at zero — dashboards and the
  // counter-consistency invariant never have to special-case "absent".
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    for (const char *Name :
         {"serve.requests", "serve.analyze.admitted",
          "serve.analyze.responded", "serve.analyze.failed", "serve.shed",
          "serve.ok", "serve.cached", "serve.degraded",
          "serve.trace.captured", "serve.trace.dropped"})
      Metrics.add(Name, 0);
    for (ServeErrorKind K :
         {ServeErrorKind::Parse, ServeErrorKind::Cps,
          ServeErrorKind::Deadline, ServeErrorKind::Memory,
          ServeErrorKind::Internal, ServeErrorKind::Shed,
          ServeErrorKind::Protocol})
      Metrics.add(std::string("serve.error.") + str(K), 0);
    Metrics.histogram("serve.latencyUs");
  }

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return Error("socket path '" + Opts.SocketPath +
                 "' is empty or too long for AF_UNIX");
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Error(std::string("socket: ") + std::strerror(errno));
  // A stale socket file from a previous (possibly crashed) daemon blocks
  // bind; removing it is safe because the path is ours by contract.
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0) {
    Error E(std::string("bind '") + Opts.SocketPath +
            "': " + std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return E;
  }
  if (::listen(ListenFd, 128) < 0) {
    Error E(std::string("listen: ") + std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return E;
  }

  Started = true;
  if (Opts.TraceSlowMs > 0)
    for (unsigned I = 0; I < Opts.Workers; ++I)
      WorkerTracers.emplace_back();
  for (unsigned I = 0; I < Opts.Workers; ++I)
    WorkerThreads.emplace_back([this, I] { workerLoop(I); });
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::requestDrain() {
  bool Expected = false;
  if (!Draining.compare_exchange_strong(Expected, true))
    return;

  // First thing at drain start, before any in-flight work finishes:
  // publish the flight-recorder frame. A post-mortem of a SIGTERM'd
  // daemon then names exactly the requests that were in flight when the
  // signal landed, not the empty ring a post-drain dump would show.
  if (Flight && !Opts.FlightDumpPath.empty())
    Flight->dumpTo(Opts.FlightDumpPath);

  // Wake accept() and stop admission at the socket layer. The fd itself
  // stays open until waitDrained so its number cannot be reused mid-run.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);

  // Stop reading every live connection; pending responses still flow.
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const std::weak_ptr<Connection> &W : Conns)
      if (std::shared_ptr<Connection> C = W.lock())
        ::shutdown(C->Fd, SHUT_RD);
  }

  // After the grace period, anything still analyzing degrades through
  // the governor's interrupt probe (the Section 4.4 cut path) rather
  // than holding up shutdown indefinitely.
  std::lock_guard<std::mutex> Lock(GraceMu);
  GraceThread = std::thread([this] {
    std::unique_lock<std::mutex> L(GraceMu);
    bool Finished = GraceCv.wait_for(
        L,
        std::chrono::duration<double, std::milli>(
            Opts.DrainGraceMs > 0 ? Opts.DrainGraceMs : 0.0),
        [this] { return GraceDone; });
    if (!Finished)
      Interrupt->cancel();
  });
}

void Server::waitDrained() {
  if (!Started || Drained)
    return;
  requestDrain();

  if (AcceptThread.joinable())
    AcceptThread.join();

  // No new readers can appear once the accept thread is gone.
  std::vector<std::thread> R;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    R.swap(Readers);
  }
  for (std::thread &T : R)
    T.join();

  // Readers are gone, so the queue only shrinks from here: tell the
  // workers to exit once they have answered everything still queued.
  {
    std::lock_guard<std::mutex> Lock(QMu);
    QStopping = true;
  }
  QCv.notify_all();
  for (std::thread &T : WorkerThreads)
    T.join();

  {
    std::lock_guard<std::mutex> Lock(GraceMu);
    GraceDone = true;
  }
  GraceCv.notify_all();
  if (GraceThread.joinable())
    GraceThread.join();

  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  ::unlink(Opts.SocketPath.c_str());
  Drained = true;
}

size_t Server::inFlight() const {
  std::lock_guard<std::mutex> Lock(QMu);
  return Queue.size() + Executing;
}

void Server::acceptLoop() {
  for (;;) {
    // Poll with a timeout so drain is observed even if the shutdown()
    // wakeup is missed (portability belt-and-braces).
    pollfd P{ListenFd, POLLIN, 0};
    int N = ::poll(&P, 1, 100);
    if (Draining.load())
      return;
    if (N <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      return; // listen socket is gone
    }
    auto C = std::make_shared<Connection>(Fd);
    std::lock_guard<std::mutex> Lock(ConnMu);
    if (Draining.load()) {
      // Lost the race with requestDrain's connection sweep; this
      // connection was never registered, so close it unserved.
      continue;
    }
    Conns.push_back(C);
    Readers.emplace_back([this, C] { readerLoop(C); });
  }
}

void Server::readerLoop(std::shared_ptr<Connection> C) {
  std::string Buf;
  char Chunk[4096];
  for (;;) {
    pollfd P{C->Fd, POLLIN, 0};
    int N = ::poll(&P, 1, 100);
    if (Draining.load())
      return;
    if (N <= 0)
      continue;
    ssize_t Got = ::recv(C->Fd, Chunk, sizeof(Chunk), 0);
    if (Got == 0)
      return; // client closed (or SHUT_RD)
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    Buf.append(Chunk, static_cast<size_t>(Got));

    size_t Start = 0;
    for (size_t Nl; (Nl = Buf.find('\n', Start)) != std::string::npos;
         Start = Nl + 1) {
      std::string Line = Buf.substr(Start, Nl - Start);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (!Line.empty())
        handleLine(C, Line);
    }
    Buf.erase(0, Start);

    if (Buf.size() > MaxRequestBytes) {
      // Framing is lost — there is no way to know where this client's
      // next request begins. Report once, then stop reading.
      countError(ServeErrorKind::Protocol);
      writeLine(*C, errorResponse(nullptr, ServeErrorKind::Protocol,
                                  "request line exceeds " +
                                      std::to_string(MaxRequestBytes) +
                                      " bytes"));
      return;
    }
  }
}

void Server::handleLine(const std::shared_ptr<Connection> &C,
                        const std::string &Line) {
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    Metrics.add("serve.requests", 1);
  }

  Result<ServeRequest> Req = parseServeRequest(Line);
  if (!Req) {
    countError(ServeErrorKind::Protocol);
    writeLine(*C, errorResponse(nullptr, ServeErrorKind::Protocol,
                                Req.error().str()));
    return;
  }

  switch (Req->Kind) {
  case ServeRequest::Op::Health:
    writeLine(*C, healthJson(*Req));
    return;
  case ServeRequest::Op::Stats:
    writeLine(*C, statsJson(*Req));
    return;
  case ServeRequest::Op::Shutdown: {
    JsonWriter W;
    W.beginObject();
    W.key("ok").value(true);
    if (Req->HasId)
      W.key("id").value(Req->Id);
    W.key("draining").value(true);
    W.endObject();
    writeLine(*C, W.str());
    requestDrain();
    return;
  }
  case ServeRequest::Op::Metrics:
    writeLine(*C, metricsResponse(*Req));
    return;
  case ServeRequest::Op::Dump:
    writeLine(*C, dumpResponse(*Req));
    return;
  case ServeRequest::Op::Analyze:
    break;
  }

  // Every well-formed analyze line is "admitted" for accounting the
  // moment it parses — sheds included — so the exposition invariant
  // admitted == responded + shed + failed closes over every fate a
  // request can meet. The record minted here rides the job to its
  // terminal bookkeeping (finishRecord).
  RequestRecord Rec;
  Rec.ReqId = NextOrdinal.fetch_add(1) + 1;
  Rec.ClientId = Req->Id;
  Rec.HasClientId = Req->HasId;
  Rec.Analyzer = Req->Analyzer;
  Rec.Domain = Req->Domain;
  Rec.SourceLen = Req->Program.size();
  Rec.SourceDigest = gen::textDigest(Req->Program);
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    Metrics.add("serve.analyze.admitted", 1);
  }
  // Recorder admission strictly precedes the queue push: once a worker
  // can see the job, its complete() must find the in-flight entry.
  if (Flight)
    Flight->admit(Rec);

  // Admission control: a full queue sheds immediately instead of letting
  // latency (and client timeouts) grow without bound.
  bool Admitted = false;
  {
    std::lock_guard<std::mutex> Lock(QMu);
    if (!QStopping && !Draining.load() && Queue.size() < Opts.QueueCap) {
      Queue.push_back(Job{C, std::move(*Req),
                          std::chrono::steady_clock::now(), Rec});
      Admitted = true;
    }
  }
  if (Admitted) {
    QCv.notify_one();
    return;
  }
  Rec.Outcome = "shed";
  Rec.ErrorKind = "shed";
  finishRecord(Rec);
  writeLine(*C, errorResponse(&*Req, ServeErrorKind::Shed,
                              Draining.load()
                                  ? "server is draining"
                                  : "server is overloaded, try again"));
}

void Server::workerLoop(unsigned WorkerId) {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QMu);
      QCv.wait(Lock, [this] { return QStopping || !Queue.empty(); });
      if (Queue.empty())
        return; // QStopping and nothing left to answer
      J = std::move(Queue.front());
      Queue.pop_front();
      ++Executing;
    }
    processJob(std::move(J), WorkerId);
    {
      std::lock_guard<std::mutex> Lock(QMu);
      --Executing;
    }
  }
}

void Server::processJob(Job J, unsigned WorkerId) {
  [[maybe_unused]] const uint64_t Ordinal = J.Rec.ReqId; // fault builds only
  J.Rec.Worker = WorkerId;
  J.Rec.QueueUs = usSince(J.Enqueued);
  std::string Resp;
  // Last line of containment: handleAnalyze contains analysis failures
  // itself, so this catches only handler-level faults (injected or
  // real) — the worker answers and survives regardless.
  try {
    CPSFLOW_FAULT_COUNTED(fault::Site::ServeHandler, Ordinal);
    Resp = handleAnalyze(J.Req, J.Rec, WorkerId);
  } catch (const std::bad_alloc &) {
    countError(ServeErrorKind::Memory);
    J.Rec.Outcome = "failed";
    J.Rec.ErrorKind = str(ServeErrorKind::Memory);
    Resp = errorResponse(&J.Req, ServeErrorKind::Memory,
                         "contained failure: out of memory");
  } catch (const std::exception &Ex) {
    countError(ServeErrorKind::Internal);
    J.Rec.Outcome = "failed";
    J.Rec.ErrorKind = str(ServeErrorKind::Internal);
    Resp = errorResponse(&J.Req, ServeErrorKind::Internal,
                         std::string("contained failure: ") + Ex.what());
  } catch (...) {
    countError(ServeErrorKind::Internal);
    J.Rec.Outcome = "failed";
    J.Rec.ErrorKind = str(ServeErrorKind::Internal);
    Resp = errorResponse(&J.Req, ServeErrorKind::Internal,
                         "contained failure: unknown exception");
  }
  J.Rec.TotalUs = usSince(J.Enqueued);
  finishRecord(J.Rec);
  writeLine(*J.Conn, Resp);
}

std::string Server::handleAnalyze(const ServeRequest &Req,
                                  RequestRecord &Rec, unsigned WorkerId) {
  const uint64_t Ordinal = Rec.ReqId;
  AnalyzeConfig Eff = Opts.Defaults;
  if (Req.MaxGoals)
    Eff.MaxGoals = Req.MaxGoals;
  if (Req.DeadlineMs >= 0)
    Eff.DeadlineMs = Req.DeadlineMs;

  CacheKey Key;
  Key.SourceDigest = gen::textDigest(Req.Program);
  Key.SourceDigest2 = gen::textDigest2(Req.Program);
  Key.SourceLen = Req.Program.size();
  Key.Analyzer = Req.Analyzer;
  Key.Domain = Req.Domain;
  Key.MaxGoals = Eff.MaxGoals;
  Key.LoopUnroll = Req.LoopUnroll;
  Key.DupBudget = Req.DupBudget;
  Key.UseSummaries = Req.UseSummaries;

  const bool UseCache = Cache && !Req.NoCache;
  Rec.CacheOutcome = Cache ? (Req.NoCache ? "bypass" : "miss") : "off";
  if (UseCache) {
    if (std::optional<std::string> Hit = Cache->lookup(Key)) {
      Rec.Outcome = "ok";
      Rec.CacheOutcome = "hit";
      std::lock_guard<std::mutex> Lock(MetricsMu);
      Metrics.add("serve.ok", 1);
      Metrics.add("serve.cached", 1);
      return analyzeResponse(Req, *Hit, /*Cached=*/true);
    }
  }

  // Slow-request capture: the worker's own tracer records this run's
  // phase spans and sampled goal instants; the events are spilled only
  // if the request turns out slow, and never touch the payload.
  support::Tracer *Tr = nullptr;
  if (Opts.TraceSlowMs > 0 && WorkerId < WorkerTracers.size()) {
    Tr = &WorkerTracers[WorkerId];
    Tr->clear();
    Eff.Trace = Tr;
    Eff.TraceTid = WorkerId;
  }

  auto TRun = std::chrono::steady_clock::now();
  AnalyzeOutcome Out = runServeAnalyze(Req, Eff, Ordinal);
  double RunMs = usSince(TRun) / 1000.0;

  Rec.Goals = Out.Goals;
  Rec.ParseUs = Out.ParseUs;
  Rec.CpsUs = Out.CpsUs;
  Rec.AnalyzeUs = Out.AnalyzeUs;

  if (Tr && RunMs > Opts.TraceSlowMs) {
    // Retroactive capture: the trace already exists in the worker's
    // tracer; a slow verdict just decides whether it is spilled. The
    // file budget (TraceSlowMax) bounds the disk this path can consume.
    uint64_t Seq = TraceFilesWritten.fetch_add(1);
    if (Seq < Opts.TraceSlowMax) {
      std::error_code Ec;
      std::filesystem::create_directories(Opts.TraceDir, Ec);
      std::string Path = Opts.TraceDir + "/req-" +
                         std::to_string(Rec.ReqId) + ".trace.json";
      std::ofstream TraceOut(Path, std::ios::binary | std::ios::trunc);
      std::string Doc = Tr->json();
      TraceOut.write(Doc.data(), static_cast<std::streamsize>(Doc.size()));
      TraceOut.flush();
      if (TraceOut) {
        Rec.SlowTracePath = Path;
        std::lock_guard<std::mutex> Lock(MetricsMu);
        Metrics.add("serve.trace.captured", 1);
      } else {
        std::lock_guard<std::mutex> Lock(MetricsMu);
        Metrics.add("serve.trace.dropped", 1);
      }
    } else {
      std::lock_guard<std::mutex> Lock(MetricsMu);
      Metrics.add("serve.trace.dropped", 1);
    }
  }

  if (!Out.Ok) {
    Rec.Outcome = "failed";
    Rec.ErrorKind = str(Out.Kind);
    countError(Out.Kind);
    return errorResponse(&Req, Out.Kind, Out.Message);
  }
  Rec.Outcome = Out.Degraded ? "degraded" : "ok";
  Rec.DegradeReason = Out.DegradeReason;

  // Only complete (non-degraded) results are cached: a degraded answer
  // depends on wall-clock and ceilings that are not part of the key.
  if (UseCache && !Out.Degraded) {
    Cache->store(Key, Out.PayloadJson);
    Rec.CacheOutcome = "store";
  }
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    Metrics.add("serve.ok", 1);
    if (Out.Degraded)
      Metrics.add("serve.degraded", 1);
  }
  return analyzeResponse(Req, Out.PayloadJson, /*Cached=*/false);
}

std::string Server::healthJson(const ServeRequest &Req) {
  size_t Queued, Running;
  {
    std::lock_guard<std::mutex> Lock(QMu);
    Queued = Queue.size();
    Running = Executing;
  }
  JsonWriter W;
  W.beginObject();
  W.key("ok").value(true);
  if (Req.HasId)
    W.key("id").value(Req.Id);
  W.key("status").value(Draining.load() ? "draining" : "ok");
  W.key("workers").value(static_cast<uint64_t>(Opts.Workers));
  W.key("queued").value(static_cast<uint64_t>(Queued));
  W.key("executing").value(static_cast<uint64_t>(Running));
  W.key("queueCap").value(static_cast<uint64_t>(Opts.QueueCap));
  W.key("cache").value(Cache != nullptr);
  W.endObject();
  return W.str();
}

std::string Server::statsJson(const ServeRequest &Req) {
  size_t Queued, Running;
  {
    std::lock_guard<std::mutex> Lock(QMu);
    Queued = Queue.size();
    Running = Executing;
  }
  JsonWriter W;
  W.beginObject();
  W.key("ok").value(true);
  if (Req.HasId)
    W.key("id").value(Req.Id);
  W.key("stats");
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    refreshDerivedLocked(Queued, Running);
    Metrics.writeJson(W);
  }
  W.endObject();
  return W.str();
}

void Server::refreshDerivedLocked(size_t Queued, size_t Running) {
  // Mirror every derived counter and gauge into the registry at read
  // time, unconditionally: a scrape of a daemon with the cache off (or
  // before the first request) carries the same key set at zero, so the
  // stats and metrics documents have one uniform vocabulary.
  ResultCache::CacheStats CS = Cache ? Cache->stats()
                                     : ResultCache::CacheStats{};
  Metrics.set("serve.cache.hits", CS.Hits);
  Metrics.set("serve.cache.misses", CS.Misses);
  Metrics.set("serve.cache.stores", CS.Stores);
  Metrics.set("serve.cache.storeFailures", CS.StoreFailures);
  Metrics.set("serve.cache.corrupt", CS.Corrupt);
  Metrics.set("serve.cache.collisions", CS.Collisions);
  Metrics.set("serve.cache.sweptTmp", CS.SweptTmp);

  Metrics.setGauge("serve.queue.depth", Queued);
  Metrics.setGauge("serve.queue.executing", Running);
  Metrics.setGauge("serve.queue.cap", Opts.QueueCap);
  Metrics.setGauge("serve.workers", Opts.Workers);

  Metrics.setGauge("serve.flight.inFlight",
                   Flight ? Flight->inFlightCount() : 0);
  Metrics.setGauge("serve.flight.recent",
                   Flight ? Flight->recentCount() : 0);
  Metrics.setGauge("serve.flight.capacity", Flight ? Flight->capacity() : 0);

  Metrics.set("serve.log.written", Log ? Log->written() : 0);
  Metrics.set("serve.log.failures", Log ? Log->failures() : 0);
  Metrics.set("serve.log.rotations", Log ? Log->rotations() : 0);
}

std::string Server::metricsResponse(const ServeRequest &Req) {
  size_t Queued, Running;
  {
    std::lock_guard<std::mutex> Lock(QMu);
    Queued = Queue.size();
    Running = Executing;
  }
  if (Req.Format == "prometheus") {
    std::ostringstream Body;
    {
      std::lock_guard<std::mutex> Lock(MetricsMu);
      refreshDerivedLocked(Queued, Running);
      Metrics.writePrometheus(Body);
    }
    JsonWriter W;
    W.beginObject();
    W.key("ok").value(true);
    if (Req.HasId)
      W.key("id").value(Req.Id);
    W.key("contentType").value("text/plain; version=0.0.4");
    W.key("body").value(Body.str());
    W.endObject();
    return W.str();
  }
  JsonWriter W;
  W.beginObject();
  W.key("ok").value(true);
  if (Req.HasId)
    W.key("id").value(Req.Id);
  W.key("metrics");
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    refreshDerivedLocked(Queued, Running);
    Metrics.writeJson(W);
  }
  W.endObject();
  return W.str();
}

std::string Server::dumpResponse(const ServeRequest &Req) {
  std::string Out = "{\"ok\":true";
  if (Req.HasId)
    Out += ",\"id\":" + std::to_string(Req.Id);
  if (!Flight) {
    Out += ",\"enabled\":false}";
    return Out;
  }
  Out += ",\"enabled\":true";
  if (!Opts.FlightDumpPath.empty()) {
    bool Wrote = Flight->dumpTo(Opts.FlightDumpPath);
    Out += ",\"path\":\"" + jsonEscape(Opts.FlightDumpPath) + "\"";
    Out += ",\"written\":";
    Out += Wrote ? "true" : "false";
  }
  Out += ",\"flight\":" + Flight->renderJson() + "}";
  return Out;
}

void Server::finishRecord(RequestRecord &Rec) {
  {
    std::lock_guard<std::mutex> Lock(MetricsMu);
    if (Rec.Outcome == "shed") {
      Metrics.add("serve.shed", 1);
    } else {
      if (Rec.Outcome == "failed")
        Metrics.add("serve.analyze.failed", 1);
      else
        Metrics.add("serve.analyze.responded", 1);
      uint64_t Us = static_cast<uint64_t>(Rec.TotalUs);
      Metrics.histogram("serve.latencyUs").record(Us);
      Metrics
          .windowed("serve.latency.window.us{analyzer=\"" + Rec.Analyzer +
                    "\"}")
          .record(Us);
    }
  }
  if (Log)
    Log->append(Rec);
  if (Flight)
    Flight->complete(Rec);
}

void Server::writeLine(Connection &C, const std::string &Line) {
  if (C.WriteDead.load())
    return;
  std::lock_guard<std::mutex> Lock(C.WriteMu);
  std::string Framed = Line;
  Framed.push_back('\n');
  size_t Off = 0;
  while (Off < Framed.size()) {
    ssize_t N = ::send(C.Fd, Framed.data() + Off, Framed.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      // The client went away; there is nobody to tell. Drop the rest of
      // this connection's output but keep the daemon healthy.
      C.WriteDead.store(true);
      return;
    }
    Off += static_cast<size_t>(N);
  }
}

void Server::countError(ServeErrorKind Kind) {
  std::lock_guard<std::mutex> Lock(MetricsMu);
  Metrics.add(std::string("serve.error.") + str(Kind), 1);
}
