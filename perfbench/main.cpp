//===- perfbench/main.cpp - The wall-clock benchmark driver ---------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload (corpus, scaling, or serve) for a fixed time, checks
/// every answer, and prints one JSON report line. Untraced, the report
/// carries the end-to-end metrics; traced (--trace 1), it carries the
/// per-layer metrics, and the spans go to --trace-out. README.md in this
/// directory defines every metric. perfbench/run.py builds this program
/// and is the supported entry point.
///
//===----------------------------------------------------------------------===//

#include "Pipeline.h"
#include "Programs.h"
#include "Serve.h"

#include "clients/Batch.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <sched.h>
#include <thread>
#include <unistd.h>

using namespace cpsflow;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root, Cpsflow, Expected, Pool, Work, TraceOut, WriteData;
};

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Nearest-rank percentile (the ceil(Q*N)-th smallest), as the batch
/// report and loadgen compute theirs.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// The process's own VmHWM in MiB.
double selfPeakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// The report line, plus failure bookkeeping.
struct Report {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  std::string Parity; ///< corpus traced run: per-leg counters, JSON

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void fail(const std::string &What) {
    if (++Failed <= 20)
      std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
  }

  std::string json() const {
    std::ostringstream Out;
    char Num[64];
    Out << "{\"correct\": " << (Failed == 0 ? "true" : "false")
        << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
        << ", \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I) {
      std::snprintf(Num, sizeof(Num), "%.17g", Metrics[I].second.first);
      Out << (I ? ", " : "") << "\"" << Metrics[I].first
          << "\": {\"value\": " << Num << ", \"unit\": \""
          << Metrics[I].second.second << "\"}";
    }
    Out << "}";
    if (!Parity.empty())
      Out << ", \"parity\": " << Parity;
    Out << "}";
    return Out.str();
  }
};

/// Checks one leg's answer against the expected file (or a computed
/// oracle answer) and its degrade state.
void checkLeg(Report &Rep, const std::string &Program, const char *Leg,
              const std::string &Want, const std::string &Got,
              bool Degraded) {
  if (Degraded)
    Rep.fail(Program + " " + Leg + ": degraded");
  else if (Got != Want)
    Rep.fail(Program + " " + Leg + ": answer " + Got + ", expected " + Want);
}

const std::string *expectedFor(const Expected &E, const std::string &Program,
                               const char *Leg) {
  auto It = E.find({Program, Leg});
  return It == E.end() ? nullptr : &It->second;
}

void checkBatch(Report &Rep, const Expected &E,
                const clients::BatchProgramResult &P) {
  if (!P.Ok) {
    Rep.fail(P.Name + ": " + P.Error);
    return;
  }
  const clients::BatchAnalyzerRecord *Recs[NumLegs] = {
      &P.Direct, &P.Semantic, &P.Syntactic, &P.Dup, &P.Pushdown};
  for (unsigned L = 0; L < NumLegs; ++L) {
    const std::string *Want = expectedFor(E, P.Name, Legs[L]);
    if (!Want)
      Rep.fail(P.Name + " " + Legs[L] + ": no expected answer");
    else
      checkLeg(Rep, P.Name, Legs[L], *Want, Recs[L]->Answer,
               degraded(Recs[L]->Stats));
  }
}

void checkPipeline(Report &Rep, const Expected &E, const PipelineRun &R) {
  if (!R.Ok) {
    Rep.fail(R.Name + ": " + R.Error);
    return;
  }
  for (unsigned L = 0; L < NumLegs; ++L) {
    const std::string *Want = expectedFor(E, R.Name, Legs[L]);
    if (!Want)
      Rep.fail(R.Name + " " + Legs[L] + ": no expected answer");
    else
      checkLeg(Rep, R.Name, Legs[L], *Want, R.Legs[L].Answer,
               degraded(R.Legs[L].Stats));
  }
}

//===----------------------------------------------------------------------===//
// Per-layer sums over one traced pass
//===----------------------------------------------------------------------===//

struct LegSums {
  double Ms = 0;
  uint64_t Goals = 0, Cuts = 0, CacheHits = 0, Stores = 0, StoreBytes = 0;
  uint64_t SummaryHits = 0, SummaryMisses = 0;
};

struct PassSums {
  double ParseMs = 0, AnfMs = 0, CpsMs = 0, RenderMs = 0, ProgramMs = 0;
  uint64_t Nodes = 0;
  LegSums Legs[NumLegs];

  void add(const PipelineRun &R) {
    ParseMs += R.ParseMs;
    AnfMs += R.AnfMs;
    CpsMs += R.CpsMs;
    ProgramMs += R.TotalMs;
    Nodes += R.Nodes;
    for (unsigned L = 0; L < NumLegs; ++L) {
      const analysis::AnalyzerStats &S = R.Legs[L].Stats;
      LegSums &Sum = Legs[L];
      Sum.Ms += R.Legs[L].Ms;
      Sum.Goals += S.Goals;
      Sum.Cuts += S.Cuts;
      Sum.CacheHits += S.CacheHits;
      Sum.Stores += S.InternedStores;
      Sum.StoreBytes += S.InternerBytes;
      Sum.SummaryHits += S.SummaryHits;
      Sum.SummaryMisses += S.SummaryMisses;
    }
  }
};

/// Medians over traced passes of the busy-time sums, and the work
/// counters (identical in every pass) from the last one.
void reportLayers(Report &Rep, const std::vector<PassSums> &Passes) {
  auto Med = [&](auto Field) {
    std::vector<double> V;
    for (const PassSums &P : Passes)
      V.push_back(Field(P));
    return median(V);
  };
  const PassSums &Last = Passes.back();
  Rep.metric("syntax.parse_ms", Med([](auto &P) { return P.ParseMs; }), "ms");
  Rep.metric("anf.normalize_ms", Med([](auto &P) { return P.AnfMs; }), "ms");
  Rep.metric("anf.nodes", double(Last.Nodes), "count");
  Rep.metric("cps.transform_ms", Med([](auto &P) { return P.CpsMs; }), "ms");
  for (unsigned L = 0; L < NumLegs; ++L) {
    const std::string A = std::string("analysis.") + Legs[L];
    const std::string D = std::string("domain.") + Legs[L];
    const LegSums &S = Last.Legs[L];
    Rep.metric(A + ".ms", Med([L](auto &P) { return P.Legs[L].Ms; }), "ms");
    Rep.metric(A + ".goals", double(S.Goals), "count");
    Rep.metric(A + ".cuts", double(S.Cuts), "count");
    Rep.metric(A + ".memo_hit_ratio", ratio(S.CacheHits, S.Goals), "ratio");
    Rep.metric(D + ".stores", double(S.Stores), "count");
    Rep.metric(D + ".store_bytes", double(S.StoreBytes), "bytes");
  }
  const LegSums &Syn = Last.Legs[2];
  Rep.metric("analysis.syntactic.summary_hit_ratio",
             ratio(Syn.SummaryHits, Syn.SummaryHits + Syn.SummaryMisses),
             "ratio");
  Rep.metric("clients.render_ms", Med([](auto &P) { return P.RenderMs; }),
             "ms");
  Rep.metric("bench.traced_passes", double(Passes.size()), "count");
}

/// One traced pass: every program through the traced pipeline, then the
/// pass rendered with clients::batchJson.
PassSums tracedPass(Report &Rep, const Expected &E,
                    const std::vector<NamedProgram> &Progs,
                    const std::vector<size_t> &Order, SpanLog &Log,
                    uint64_t &NextId, std::vector<PipelineRun> *Runs) {
  PassSums Sums;
  clients::BatchResult Batch;
  for (size_t I : Order) {
    PipelineRun R = runPipeline(Progs[I], AllLegs, &Log, ++NextId);
    ++Rep.Attempted;
    checkPipeline(Rep, E, R);
    Sums.add(R);
    Batch.Programs.push_back(toBatchRecord(R));
    if (Runs)
      Runs->push_back(std::move(R));
  }
  Span Render(&Log, "clients.render", 0, ++NextId);
  std::string Doc = clients::batchJson(Batch, clients::BatchOptions());
  Sums.RenderMs = Render.close();
  if (Doc.empty())
    Rep.fail("batchJson rendered nothing");
  return Sums;
}

/// One untraced pass through clients::runBatch, one program per call.
/// Returns the pass's busy time in milliseconds.
double untracedPass(Report &Rep, const Expected &E,
                    const std::vector<NamedProgram> &Progs,
                    const std::vector<size_t> &Order,
                    std::vector<double> *ProgramMs) {
  const clients::BatchOptions Defaults;
  double Total = 0;
  for (size_t I : Order) {
    auto T0 = Clock::now();
    clients::BatchResult R =
        clients::runBatch({{Progs[I].Name, Progs[I].Source}}, Defaults);
    double Ms = secondsSince(T0) * 1000;
    ++Rep.Attempted;
    checkBatch(Rep, E, R.Programs.at(0));
    Total += Ms;
    if (ProgramMs)
      ProgramMs->push_back(Ms);
  }
  return Total;
}

std::vector<size_t> shuffled(size_t N, Rng &R) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t{0});
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

//===----------------------------------------------------------------------===//
// Serve helpers
//===----------------------------------------------------------------------===//

/// Checks every exchange; \p WantOf gives each request's expected answer.
void checkExchanges(Report &Rep, const std::vector<Exchange> &Xs,
                    const std::function<const std::string &(uint64_t)> &WantOf,
                    const std::function<const char *(uint64_t)> &LegOf) {
  for (const Exchange &X : Xs) {
    ++Rep.Attempted;
    const std::string What = "request " + std::to_string(X.Index);
    if (X.Response.empty()) {
      Rep.fail(What + ": transport failure");
      continue;
    }
    Result<JsonValue> Doc = parseJson(X.Response);
    const JsonValue *Ok = Doc ? Doc->find("ok") : nullptr;
    if (!Ok || !Ok->isBool() || !Ok->asBool()) {
      Rep.fail(What + ": " + X.Response.substr(0, 200));
      continue;
    }
    const JsonValue *Res = Doc->find("result");
    const JsonValue *Answer = Res ? Res->find("answer") : nullptr;
    const JsonValue *Stats = Res ? Res->find("stats") : nullptr;
    const JsonValue *Reason = Stats ? Stats->find("degradeReason") : nullptr;
    const JsonValue *Exhausted =
        Stats ? Stats->find("budgetExhausted") : nullptr;
    bool Degraded = !Reason || !Reason->isString() ||
                    Reason->asString() != "none" ||
                    (Exhausted && Exhausted->isBool() && Exhausted->asBool());
    checkLeg(Rep, What, LegOf(X.Index), WantOf(X.Index),
             Answer && Answer->isString() ? Answer->asString() : "<none>",
             Degraded);
  }
}

/// Responses per second over the closed loop's wall time.
double responseRate(const std::vector<Exchange> &Xs, double WallSeconds) {
  return WallSeconds > 0 ? double(Xs.size()) / WallSeconds : 0;
}

std::vector<double> roundTrips(const std::vector<Exchange> &Xs) {
  std::vector<double> Out;
  for (const Exchange &X : Xs)
    Out.push_back(X.RoundTripUs);
  return Out;
}

/// The serve.* and transport.* layer metrics of a traced daemon run,
/// from its request log and a `metrics` scrape. Also records one span per
/// request, carrying the daemon's phase timings as args.
void reportServeLayers(Report &Rep, const std::vector<Exchange> &Xs,
                       const std::string &LogPath, const JsonValue &Registry,
                       SpanLog &Log, uint64_t LoopStartUs) {
  std::map<uint64_t, JsonValue> Records;
  std::ifstream In(LogPath);
  std::string Line;
  while (std::getline(In, Line)) {
    Result<JsonValue> R = parseJson(Line);
    if (R && R->find("id"))
      Records[static_cast<uint64_t>(R->numberOr("id", 0))] = *R;
  }
  if (Records.size() != Xs.size())
    Rep.fail("request log holds " + std::to_string(Records.size()) +
             " records for " + std::to_string(Xs.size()) + " requests");

  std::vector<double> Queue, Parse, Cps, Analyze, Total, Transport;
  double ReplayHits = 0, ReplayMisses = 0;
  for (const Exchange &X : Xs) {
    auto It = Records.find(X.Index);
    if (It == Records.end())
      continue;
    const JsonValue &R = It->second;
    const JsonValue *Cache = R.find("cache");
    bool Computed = !Cache || !Cache->isString() || Cache->asString() != "hit";
    Queue.push_back(R.numberOr("queueUs", 0));
    Total.push_back(R.numberOr("totalUs", 0));
    if (Computed) {
      Parse.push_back(R.numberOr("parseUs", 0));
      Cps.push_back(R.numberOr("cpsUs", 0));
      Analyze.push_back(R.numberOr("analyzeUs", 0));
    }
    Transport.push_back(X.RoundTripUs - R.numberOr("totalUs", 0));
    // Absent replay fields read as zero, so the benchmark outlives them.
    ReplayHits += R.numberOr("replayHits", 0);
    ReplayMisses += R.numberOr("replayMisses", 0);
    auto Us = [&](const char *K) {
      return static_cast<uint64_t>(std::llround(R.numberOr(K, 0)));
    };
    Log.Trace.span("serve.request", "perfbench",
                   LoopStartUs + static_cast<uint64_t>(X.SentS * 1e6),
                   static_cast<uint64_t>(X.RoundTripUs), /*Tid=*/1,
                   {{"span", Log.nextSpan()},
                    {"parent", 0},
                    {"id", X.Index},
                    {"queueUs", Us("queueUs")},
                    {"parseUs", Us("parseUs")},
                    {"cpsUs", Us("cpsUs")},
                    {"analyzeUs", Us("analyzeUs")},
                    {"totalUs", Us("totalUs")}});
  }
  Rep.metric("serve.log_records", double(Records.size()), "count");
  Rep.metric("serve.queue_us_p50", percentile(Queue, 0.5), "us");
  Rep.metric("serve.parse_us_p50", percentile(Parse, 0.5), "us");
  Rep.metric("serve.cps_us_p50", percentile(Cps, 0.5), "us");
  Rep.metric("serve.analyze_us_p50", percentile(Analyze, 0.5), "us");
  Rep.metric("serve.total_us_p50", percentile(Total, 0.5), "us");
  Rep.metric("transport.us_p50", percentile(Transport, 0.5), "us");
  double Hits = Registry.numberOr("serve.cache.hits", 0);
  double Misses = Registry.numberOr("serve.cache.misses", 0);
  Rep.metric("serve.cache_hit_ratio", ratio(Hits, Hits + Misses), "ratio");
  Rep.metric("serve.cache_stores", Registry.numberOr("serve.cache.stores", 0),
             "count");
  Rep.metric("serve.replay_hit_ratio",
             ratio(ReplayHits, ReplayHits + ReplayMisses), "ratio");
}

/// Clients in the closed loop: one per default serve worker.
constexpr unsigned ServeClients = 2;

/// A fresh daemon in the working directory; \p N keeps paths distinct.
std::unique_ptr<Daemon> startDaemon(const Options &O, unsigned N,
                                    bool Traced) {
  std::string Tag = std::to_string(N);
  return std::make_unique<Daemon>(O.Cpsflow, "s" + Tag + ".sock",
                                  "cache" + Tag,
                                  Traced ? "requests" + Tag + ".log" : "");
}

/// Stops \p D and records a failure unless it exited cleanly.
void stopDaemon(Report &Rep, Daemon &D) {
  if (!D.stop())
    Rep.fail("the serve daemon did not shut down cleanly");
}

/// The traced daemon pass shared by every workload: \p Count requests
/// (or \p Seconds of them) through a daemon writing a request log, turned
/// into serve layer metrics. Returns the exchanges, unchecked.
std::vector<Exchange>
tracedServe(Report &Rep, const Options &O, unsigned N, uint64_t Count,
            double Seconds, const std::function<std::string(uint64_t)> &Line,
            SpanLog &Log) {
  std::unique_ptr<Daemon> D = startDaemon(O, N, /*Traced=*/true);
  uint64_t StartUs = Log.Trace.nowUs();
  double Wall = 0;
  std::vector<Exchange> Xs =
      closedLoop(D->socket(), ServeClients, Count, Seconds, Line, Wall);
  JsonValue Registry = D->scrapeMetrics();
  stopDaemon(Rep, *D);
  reportServeLayers(Rep, Xs, "requests" + std::to_string(N) + ".log",
                    Registry, Log, StartUs);
  return Xs;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// The fewest programs in a block of consecutive passes: enough that a
/// p95 over one block has ten samples beyond it. A block's passes run on
/// one CPU.
constexpr size_t BlockPrograms = 200;

/// A run's latency percentile \p Q over \p Ms, the program times of whole
/// blocks of \p Block programs in run order: the mean, over consecutive
/// windows of the fewest whole blocks that give the percentile ten samples
/// beyond it, of each window's percentile (a short run is one window).
/// On a shared virtual machine each vCPU's speed drifts between states
/// that last seconds (up to 1.7x apart on a 4-vCPU Xeon guest). A
/// percentile over samples from several states that falls inside one
/// program's samples (corpus p95 is the middle of arithmetic.scm's) jumps
/// between them as their shares change; over one block it sees one state,
/// and the mean over blocks moves in proportion to the shares.
double windowedPercentile(const std::vector<double> &Ms, size_t Block,
                          double Q) {
  const size_t Need = static_cast<size_t>(std::lround(10 / (1 - Q)));
  const size_t Window = std::max<size_t>(1, (Need + Block - 1) / Block) * Block;
  const size_t Windows = std::max<size_t>(1, Ms.size() / Window);
  double Sum = 0;
  for (size_t W = 0; W < Windows; ++W) {
    auto Begin = Ms.begin() + W * Window;
    auto End = W + 1 == Windows ? Ms.end() : Begin + Window;
    Sum += percentile(std::vector<double>(Begin, End), Q);
  }
  return Sum / double(Windows);
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  std::vector<int> Out;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Out.push_back(C);
  return Out;
}

/// Moves the calling thread onto \p Cpu alone.
void pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

/// Runs \p Run \p Times times; the median wall time in seconds.
template <typename Fn> double medianSeconds(unsigned Times, Fn Run) {
  std::vector<double> S;
  for (unsigned I = 0; I < Times; ++I) {
    auto T0 = Clock::now();
    Run();
    S.push_back(secondsSince(T0));
  }
  return median(S);
}

/// corpus and scaling: programs through all five legs on one thread.
void inProcessWorkload(const Options &O, Report &Rep, SpanLog &Log) {
  const bool Corpus = O.Workload == "corpus";
  Expected E;
  std::vector<NamedProgram> Progs;
  auto Load = [&] {
    E = readExpected(O.Expected);
    Progs = Corpus ? corpusPrograms(O.Root)
                   : scalingPrograms(readPool(O.Pool), O.Seed);
  };
  Load();

  Rng R(O.Seed);
  // Warm-up pass: checked, not measured.
  untracedPass(Rep, E, Progs, shuffled(Progs.size(), R), nullptr);

  auto T0 = Clock::now();
  if (!O.Trace) {
    // Throughput is programs over their total time, not a median of
    // per-pass rates: pass times cluster by the machine's speed state, and
    // a median jumps between the clusters where a total moves smoothly.
    // For the same reason the inputs are loaded again before every pass:
    // setup_s is the mean, over groups of SetupGroup consecutive loads, of
    // each group's median, so it sees the states the passes see.
    // Each block of passes runs on the next allowed CPU in turn. A vCPU's
    // speed state is its own: the scheduler would keep the thread on one
    // vCPU, whose state the whole run would then follow, where the round
    // robin averages the states of all of them.
    constexpr size_t SetupGroup = 10;
    const size_t BlockPasses =
        (BlockPrograms + Progs.size() - 1) / Progs.size();
    const std::vector<int> Cpus = allowedCpus();
    std::vector<double> ProgramMs, Loads, SetupMedians;
    double BusyMs = 0;
    size_t Passes = 0;
    do {
      if (!Cpus.empty())
        pinTo(Cpus[Passes / BlockPasses % Cpus.size()]);
      auto L0 = Clock::now();
      Load();
      Loads.push_back(secondsSince(L0));
      if (Loads.size() == SetupGroup) {
        SetupMedians.push_back(median(Loads));
        Loads.clear();
      }
      BusyMs +=
          untracedPass(Rep, E, Progs, shuffled(Progs.size(), R), &ProgramMs);
      ++Passes;
    } while (secondsSince(T0) < O.Seconds || Passes < 3);
    if (SetupMedians.empty())
      SetupMedians.push_back(median(Loads));
    Rep.metric("setup_s",
               std::accumulate(SetupMedians.begin(), SetupMedians.end(), 0.0) /
                   double(SetupMedians.size()),
               "s");
    Rep.metric("ops_per_s", double(ProgramMs.size()) / (BusyMs / 1000), "1/s");
    for (auto [Name, Q] : {std::pair{"latency_us_p50", 0.50},
                           std::pair{"latency_us_p95", 0.95},
                           std::pair{"latency_us_p99", 0.99}})
      Rep.metric(Name,
                 windowedPercentile(ProgramMs, BlockPasses * Progs.size(), Q) *
                     1000,
                 "us");
    Rep.metric("latency_samples", double(ProgramMs.size()), "count");
    Rep.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    return;
  }

  // Traced: untraced and traced passes alternate over the same shuffled
  // order, so the overhead ratio sees the same machine state.
  std::vector<double> Untraced, Traced;
  std::vector<PassSums> Passes;
  std::vector<PipelineRun> Runs;
  uint64_t NextId = 0;
  do {
    std::vector<size_t> Order = shuffled(Progs.size(), R);
    auto Plain = [&] {
      Untraced.push_back(untracedPass(Rep, E, Progs, Order, nullptr));
    };
    auto Observed = [&] {
      Runs.clear();
      Passes.push_back(tracedPass(Rep, E, Progs, Order, Log, NextId, &Runs));
      Traced.push_back(Passes.back().ProgramMs);
    };
    // Which goes first alternates, so neither gains from running second.
    if (Passes.size() % 2) {
      Observed();
      Plain();
    } else {
      Plain();
      Observed();
    }
  } while (secondsSince(T0) < O.Seconds * 0.8 || Passes.size() < 2);
  reportLayers(Rep, Passes);

  // The serve layers for this workload's programs: every program and leg
  // once cold, then once more from the cache.
  const uint64_t N = Progs.size() * NumLegs;
  auto Leg = [](uint64_t I) { return Legs[I % NumLegs]; };
  auto Prog = [&](uint64_t I) -> const NamedProgram & {
    return Progs[(I % N) / NumLegs];
  };
  const std::string Missing = "<no expected answer>";
  std::vector<Exchange> Xs = tracedServe(
      Rep, O, 0, 2 * N, 0,
      [&](uint64_t I) { return analyzeLine(I, Prog(I).Source, Leg(I)); },
      Log);
  checkExchanges(
      Rep, Xs,
      [&](uint64_t I) -> const std::string & {
        const std::string *W = expectedFor(E, Prog(I).Name, Leg(I));
        return W ? *W : Missing;
      },
      Leg);
  Rep.metric("bench.trace_overhead_pct",
             (median(Traced) / median(Untraced) - 1) * 100, "%");

  if (Corpus) {
    // Per-leg counters of the last traced pass, for run.py's parity
    // check against `cpsflow batch examples/corpus --no-timing`.
    std::ostringstream P;
    P << "{";
    for (size_t I = 0; I < Runs.size(); ++I) {
      P << (I ? ", " : "") << "\"" << jsonEscape(Runs[I].Name) << "\": {";
      for (unsigned L = 0; L < NumLegs; ++L) {
        const analysis::AnalyzerStats &S = Runs[I].Legs[L].Stats;
        P << (L ? ", " : "") << "\"" << Legs[L] << "\": {\"goals\": "
          << S.Goals << ", \"cuts\": " << S.Cuts
          << ", \"summaryHits\": " << S.SummaryHits
          << ", \"summaryMisses\": " << S.SummaryMisses
          << ", \"summaryEntries\": " << S.SummaryEntries << "}";
      }
      P << "}";
    }
    P << "}";
    Rep.Parity = P.str();
  }
}

/// A serve request: a corpus program (or a one-leaf edit of it) and a leg.
struct StreamItem {
  uint32_t Program = 0;
  int32_t Site = -1; ///< index into the edit sites; -1 = unedited
  uint32_t Leg = 0;
};

struct EditSite {
  uint32_t Program;
  Leaf L;
};

/// Numeric leaves whose value does not change any leg's work: replacing
/// them with 11 and with 12 gives equal goal counts everywhere and no
/// degraded leg. Edits confined to these keep request costs independent
/// of the edited value.
std::vector<EditSite> editSites(const std::vector<NamedProgram> &Corpus) {
  std::vector<EditSite> Out;
  for (uint32_t P = 0; P < Corpus.size(); ++P)
    for (const Leaf &L : numericLeaves(Corpus[P].Source)) {
      PipelineRun A = runPipeline(
          {"", withLeaf(Corpus[P].Source, L, 11)}, AllLegs, nullptr, 0);
      PipelineRun B = runPipeline(
          {"", withLeaf(Corpus[P].Source, L, 12)}, AllLegs, nullptr, 0);
      bool Same = A.Ok && B.Ok;
      for (unsigned G = 0; Same && G < NumLegs; ++G)
        Same = A.Legs[G].Stats.Goals == B.Legs[G].Stats.Goals &&
               !degraded(A.Legs[G].Stats) && !degraded(B.Legs[G].Stats);
      if (Same)
        Out.push_back({P, L});
    }
  return Out;
}

/// The seeded request stream: about half exact repeats of corpus
/// programs, half single-leaf edits, every leg equally often. Edit values
/// are 11 + the request index, so no two edits share a cache entry.
std::vector<StreamItem> serveStream(uint64_t Seed, size_t Count,
                                    size_t Programs, size_t Sites) {
  Rng R(Seed ^ 0x5e47e0ull);
  std::vector<StreamItem> Out(Count);
  for (StreamItem &S : Out) {
    S.Leg = static_cast<uint32_t>(R.below(NumLegs));
    if (R.chance(1, 2))
      S.Program = static_cast<uint32_t>(R.below(Programs));
    else
      S.Site = static_cast<int32_t>(R.below(Sites));
  }
  return Out;
}

void serveWorkload(const Options &O, Report &Rep, SpanLog &Log) {
  const std::vector<NamedProgram> Corpus = corpusPrograms(O.Root);
  const Expected E = readExpected(O.Expected);
  const std::vector<EditSite> Sites = editSites(Corpus);
  if (Sites.empty())
    throw std::runtime_error("no corpus literal can be edited");
  // Longer than any closed loop gets through in its time.
  const std::vector<StreamItem> Stream =
      serveStream(O.Seed, 1u << 19, Corpus.size(), Sites.size());

  auto SourceOf = [&](uint64_t I) {
    const StreamItem &S = Stream[I];
    if (S.Site < 0)
      return Corpus[S.Program].Source;
    const EditSite &Site = Sites[S.Site];
    return withLeaf(Corpus[Site.Program].Source, Site.L, 11 + I);
  };
  auto Line = [&](uint64_t I) {
    return analyzeLine(I, SourceOf(I), Legs[Stream[I].Leg]);
  };
  auto LegOf = [&](uint64_t I) { return Legs[Stream[I].Leg]; };

  // Oracle answers for edited requests: a cold in-process analysis of
  // exactly that source and leg, computed after the timed loop.
  std::map<uint64_t, std::string> Oracle;
  auto Answers = [&](const std::vector<Exchange> &Xs) {
    std::vector<uint64_t> Todo;
    for (const Exchange &X : Xs)
      if (Stream[X.Index].Site >= 0)
        Todo.push_back(X.Index);
    std::vector<std::string> Got(Todo.size());
    std::atomic<size_t> Next{0};
    auto Work = [&] {
      for (size_t K; (K = Next.fetch_add(1)) < Todo.size();) {
        uint64_t I = Todo[K];
        try {
          PipelineRun R = runPipeline({"", SourceOf(I)},
                                      1u << Stream[I].Leg, nullptr, 0);
          const LegRun &L = R.Legs[Stream[I].Leg];
          Got[K] = !R.Ok ? "<" + R.Error + ">"
                   : degraded(L.Stats) ? "<degraded oracle>"
                                       : L.Answer;
        } catch (const std::exception &Ex) {
          // Recorded as an answer no response can match: a failure.
          Got[K] = std::string("<oracle threw: ") + Ex.what() + ">";
        }
      }
    };
    std::thread Helper(Work);
    Work();
    Helper.join();
    for (size_t K = 0; K < Todo.size(); ++K)
      Oracle[Todo[K]] = std::move(Got[K]);
  };
  const std::string Missing = "<no expected answer>";
  auto WantOf = [&](uint64_t I) -> const std::string & {
    const StreamItem &S = Stream[I];
    if (S.Site >= 0)
      return Oracle.at(I);
    const std::string *W = expectedFor(E, Corpus[S.Program].Name,
                                       Legs[S.Leg]);
    return W ? *W : Missing;
  };

  if (!O.Trace) {
    // Set-up is daemon start to first health answer; the median of
    // several starts. The measured run uses a fresh daemon.
    std::vector<double> Starts;
    for (unsigned N = 1; N <= 7; ++N) {
      std::unique_ptr<Daemon> D = startDaemon(O, N, /*Traced=*/false);
      Starts.push_back(D->startupSeconds());
      stopDaemon(Rep, *D);
    }
    std::unique_ptr<Daemon> D = startDaemon(O, 0, /*Traced=*/false);
    double Wall = 0;
    std::vector<Exchange> Xs = closedLoop(D->socket(), ServeClients,
                                          Stream.size(), O.Seconds, Line, Wall);
    double PeakMb = D->peakRssMb();
    stopDaemon(Rep, *D);
    Answers(Xs);
    checkExchanges(Rep, Xs, WantOf, LegOf);
    std::vector<double> Rtt = roundTrips(Xs);
    Rep.metric("setup_s", median(Starts), "s");
    Rep.metric("ops_per_s", responseRate(Xs, Wall), "1/s");
    Rep.metric("latency_us_p50", percentile(Rtt, 0.50), "us");
    Rep.metric("latency_us_p95", percentile(Rtt, 0.95), "us");
    Rep.metric("latency_us_p99", percentile(Rtt, 0.99), "us");
    Rep.metric("latency_samples", double(Rtt.size()), "count");
    Rep.metric("peak_rss_mb", PeakMb, "MB");
    return;
  }

  // Traced: two daemons, one writing its request log, take the stream in
  // alternating slices, so both see the same machine state; the p50
  // ratio is the log's own cost.
  std::unique_ptr<Daemon> Plain = startDaemon(O, 0, /*Traced=*/false);
  std::unique_ptr<Daemon> Logged = startDaemon(O, 1, /*Traced=*/true);
  std::vector<Exchange> PlainXs, LoggedXs;
  const unsigned Slices = 8;
  const uint64_t StartUs = Log.Trace.nowUs();
  auto T0 = Clock::now();
  uint64_t Base = 0;
  for (unsigned I = 0; I < Slices; ++I) {
    Daemon &D = I % 2 ? *Logged : *Plain;
    double SliceStart = secondsSince(T0), Wall = 0;
    std::vector<Exchange> Xs = closedLoop(
        D.socket(), ServeClients, Stream.size() - Base,
        O.Seconds * 0.8 / Slices,
        [&](uint64_t K) { return Line(Base + K); }, Wall);
    uint64_t Next = Base;
    for (Exchange &X : Xs) {
      X.Index += Base;
      X.SentS += SliceStart;
      Next = X.Index + 1;
      (I % 2 ? LoggedXs : PlainXs).push_back(std::move(X));
    }
    Base = Next;
  }
  JsonValue Registry = Logged->scrapeMetrics();
  stopDaemon(Rep, *Plain);
  stopDaemon(Rep, *Logged);
  for (const std::vector<Exchange> *Xs : {&PlainXs, &LoggedXs}) {
    Answers(*Xs);
    checkExchanges(Rep, *Xs, WantOf, LegOf);
  }
  reportServeLayers(Rep, LoggedXs, "requests1.log", Registry, Log, StartUs);

  // The in-process layers for the stream's base programs.
  Rng R(O.Seed);
  std::vector<PassSums> Passes;
  uint64_t NextId = 0;
  T0 = Clock::now();
  do
    Passes.push_back(tracedPass(Rep, E, Corpus, shuffled(Corpus.size(), R),
                                Log, NextId, nullptr));
  while (secondsSince(T0) < O.Seconds * 0.1 || Passes.size() < 3);
  reportLayers(Rep, Passes);
  Rep.metric("bench.trace_overhead_pct",
             (percentile(roundTrips(LoggedXs), 0.5) /
                  percentile(roundTrips(PlainXs), 0.5) -
              1) * 100,
             "%");
}

//===----------------------------------------------------------------------===//
// --write-data
//===----------------------------------------------------------------------===//

/// Adds all five answers of \p P to \p E; false when the program failed
/// or any leg degraded. Prints each leg's goals and time to stderr.
bool addAnswers(Expected &E, const NamedProgram &P) {
  clients::BatchResult R =
      clients::runBatch({{P.Name, P.Source}}, clients::BatchOptions());
  const clients::BatchProgramResult &B = R.Programs.at(0);
  if (!B.Ok)
    return false;
  const clients::BatchAnalyzerRecord *Recs[NumLegs] = {
      &B.Direct, &B.Semantic, &B.Syntactic, &B.Dup, &B.Pushdown};
  for (const auto *Rec : Recs)
    if (degraded(Rec->Stats))
      return false;
  std::fprintf(stderr, "%-22s %8.2f ms  goals", P.Name.c_str(), R.WallMs);
  for (const auto *Rec : Recs)
    std::fprintf(stderr, " %8llu/%.1fms",
                 static_cast<unsigned long long>(Rec->Stats.Goals),
                 Rec->WallMs);
  std::fprintf(stderr, "\n");
  for (unsigned L = 0; L < NumLegs; ++L)
    E[{P.Name, Legs[L]}] = Recs[L]->Answer;
  return true;
}

/// Shape of the scaling workload's generator pool, and the work bounds a
/// program must fall within to join it: enough goals to be more than a
/// parse, few enough that no single draw dominates a pass.
constexpr size_t PoolStrata = 12, PoolStratumSize = 6;
constexpr uint64_t PoolMinGoals = 500, PoolMaxGoals = 6'000;

/// Writes expected_answers.tsv and scaling_pool.txt into O.WriteData.
int writeData(const Options &O) {
  Expected E;
  for (const NamedProgram &P : corpusPrograms(O.Root))
    if (!addAnswers(E, P))
      throw std::runtime_error(P.Name + " failed or degraded");
  for (const NamedProgram &P : scalingFamilies())
    if (!addAnswers(E, P))
      throw std::runtime_error(P.Name + " failed or degraded");
  // The first generator programs within the work bounds, sorted by their
  // median wall time over five runs and cut into strata of equal size.
  std::vector<std::pair<double, std::string>> Members;
  for (uint64_t S = 1;
       Members.size() < PoolStrata * PoolStratumSize && S < 100'000; ++S) {
    NamedProgram P = generatedProgram(generatedName(S, 8 + S % 5));
    // Screen under tight ceilings first: some generator programs blow up,
    // and those must fail fast rather than take the machine's memory.
    clients::BatchOptions Screen;
    Screen.MaxGoals = 4 * PoolMaxGoals;
    Screen.MaxStoreBytes = 64ull << 20;
    Screen.DeadlineMs = 2000;
    Screen.FailOnBudget = true;
    clients::BatchResult R = clients::runBatch({{P.Name, P.Source}}, Screen);
    const clients::BatchProgramResult &B = R.Programs.at(0);
    if (!B.Ok)
      continue;
    uint64_t Goals = B.Direct.Stats.Goals + B.Semantic.Stats.Goals +
                     B.Syntactic.Stats.Goals + B.Dup.Stats.Goals +
                     B.Pushdown.Stats.Goals;
    if (Goals < PoolMinGoals || Goals > PoolMaxGoals ||
        !addAnswers(E, P))
      continue;
    Members.push_back({medianSeconds(5,
                                   [&] {
                                     clients::runBatch({{P.Name, P.Source}},
                                                       clients::BatchOptions());
                                   }),
                       P.Name});
  }
  std::sort(Members.begin(), Members.end());
  Pool P(PoolStrata);
  for (size_t I = 0; I < Members.size(); ++I)
    P[I / PoolStratumSize].push_back(Members[I].second);

  namespace fs = std::filesystem;
  std::ofstream Answers(fs::path(O.WriteData) / "expected_answers.tsv",
                        std::ios::binary);
  Answers << renderExpected(E);
  std::ofstream Strata(fs::path(O.WriteData) / "scaling_pool.txt",
                       std::ios::binary);
  Strata << renderPool(P);
  return Answers && Strata ? 0 : 1;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload corpus|scaling|serve --seed N "
               "--seconds S --trace 0|1 --root DIR --cpsflow PATH "
               "--expected FILE --pool FILE --work DIR --trace-out FILE\n"
               "       perfbench --write-data DIR --root DIR\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--root")
      O.Root = V;
    else if (A == "--cpsflow")
      O.Cpsflow = V;
    else if (A == "--expected")
      O.Expected = V;
    else if (A == "--pool")
      O.Pool = V;
    else if (A == "--work")
      O.Work = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--write-data")
      O.WriteData = V;
    else
      return usage(("unknown flag " + A).c_str());
  }
  try {
    if (!O.WriteData.empty())
      return writeData(O);
    if (O.Workload != "corpus" && O.Workload != "scaling" &&
        O.Workload != "serve")
      return usage("unknown workload");
    if (O.Seconds <= 0 || O.Work.empty() || O.Expected.empty() ||
        O.Pool.empty())
      return usage("need --seconds > 0, --work, --expected and --pool");
    // Sockets are addressed relative to the working directory, which
    // keeps their paths short wherever the checkout lives.
    std::filesystem::create_directories(O.Work);
    if (::chdir(O.Work.c_str()) != 0)
      return usage("cannot enter the working directory");

    Report Rep;
    SpanLog Log;
    if (O.Workload == "serve")
      serveWorkload(O, Rep, Log);
    else
      inProcessWorkload(O, Rep, Log);
    if (O.Trace && !O.TraceOut.empty()) {
      std::ofstream Out(O.TraceOut, std::ios::binary);
      Out << Log.Trace.json();
      if (!Out)
        Rep.fail("cannot write the span file");
    }
    std::printf("%s\n", Rep.json().c_str());
    return Rep.Failed ? 1 : 0;
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "perfbench: %s\n", Ex.what());
    return 1;
  }
}
