//===- clients/Batch.cpp - Parallel corpus driver -------------------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "clients/Batch.h"

#include "analysis/DirectAnalyzer.h"
#include "analysis/DupAnalyzer.h"
#include "analysis/PushdownAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "analysis/Compare.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "support/FaultInjector.h"
#include "support/Governor.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "syntax/Analysis.h"
#include "syntax/Parser.h"
#include "syntax/Sugar.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

namespace cpsflow {
namespace clients {

namespace {

double elapsedMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Runs one analyzer leg, timing it and rendering the answer value. The
/// analyzer is built by \p Make and torn down inside the timed scope, so
/// the leg's wall time covers its construction and teardown as well as
/// run(). When tracing, the leg gets a phase span on the worker's track.
template <typename MakeAnalyzer>
BatchAnalyzerRecord runLeg(const Context &Ctx, MakeAnalyzer Make,
                           support::Tracer *Trace, uint32_t Tid,
                           const char *Leg) {
  support::TraceSpan Span(Trace, std::string("analyze:") + Leg, "phase",
                          Tid);
  auto Start = std::chrono::steady_clock::now();
  auto R = Make().run(); // the analyzer dies at the end of this statement
  BatchAnalyzerRecord Rec;
  Rec.WallMs = elapsedMs(Start);
  Rec.Answer = R.Answer.Value.str(Ctx);
  Rec.Stats = R.Stats;
  return Rec;
}

/// Analyzes one program at a fixed numeric domain. Owns the whole
/// pipeline — Context, parse, ANF, CPS, analyzers — so concurrent calls
/// share nothing. \p Limits is the program's governor configuration (one
/// absolute deadline and cancellation token shared by all four legs).
template <typename D>
BatchProgramResult analyzeOne(const std::string &Name,
                              const std::string &Source,
                              const BatchOptions &Opts,
                              const support::GovernorLimits &Limits) {
  BatchProgramResult Out;
  Out.Name = Name;

  support::Tracer *Trace = Opts.Trace;
  const uint32_t Tid = ThreadPool::currentWorker();
  support::TraceSpan Whole(Trace, "program:" + Name, "batch", Tid);

  Context Ctx;
  Result<const syntax::Term *> Parsed = [&] {
    support::TraceSpan S(Trace, "parse", "phase", Tid);
    return syntax::parseSugaredProgram(Ctx, Source);
  }();
  if (!Parsed) {
    Out.Error = "parse error: " + Parsed.error().str();
    Out.Kind = BatchFailKind::Parse;
    return Out;
  }
  const syntax::Term *Anf = [&] {
    support::TraceSpan S(Trace, "anf", "phase", Tid);
    return anf::normalizeProgram(Ctx, *Parsed);
  }();
  Out.Nodes = syntax::countNodes(Anf);

  Result<cps::CpsProgram> Cps = [&] {
    support::TraceSpan S(Trace, "cps", "phase", Tid);
    return cps::cpsTransform(Ctx, Anf);
  }();
  if (!Cps) {
    Out.Error = "cps error: " + Cps.error().str();
    Out.Kind = BatchFailKind::Cps;
    return Out;
  }

  // Corpus programs may leave inputs free; bind them to the numeric top
  // so every analyzer sees the same closed problem.
  std::vector<analysis::DirectBinding<D>> Init;
  for (Symbol X : syntax::freeVars(Anf))
    Init.push_back({X, domain::AbsVal<D>::number(D::top())});
  std::vector<analysis::CpsBinding<D>> CInit;
  for (const analysis::DirectBinding<D> &B : Init)
    CInit.push_back({B.Var, analysis::deltaE<D>(B.Value, *Cps)});

  analysis::AnalyzerOptions AOpts;
  AOpts.MaxGoals = Opts.MaxGoals;
  AOpts.LoopUnroll = Opts.LoopUnroll;
  AOpts.UseSummaries = Opts.UseSummaries;
  AOpts.Governor = Limits;
  AOpts.Trace = Trace;
  AOpts.TraceTid = Tid;

  Out.Direct = runLeg(
      Ctx, [&] { return analysis::DirectAnalyzer<D>(Ctx, Anf, Init, AOpts); },
      Trace, Tid, "direct");
  Out.Semantic = runLeg(
      Ctx,
      [&] { return analysis::SemanticCpsAnalyzer<D>(Ctx, Anf, Init, AOpts); },
      Trace, Tid, "semantic");
  Out.Syntactic = runLeg(
      Ctx,
      [&] {
        return analysis::SyntacticCpsAnalyzer<D>(Ctx, *Cps, CInit, AOpts);
      },
      Trace, Tid, "syntactic");
  Out.Dup = runLeg(
      Ctx,
      [&] {
        return analysis::DupAnalyzer<D>(Ctx, Anf, Init, Opts.DupBudget,
                                        AOpts);
      },
      Trace, Tid, "dup");
  Out.Pushdown = runLeg(
      Ctx,
      [&] { return analysis::PushdownAnalyzer<D>(Ctx, Anf, Init, AOpts); },
      Trace, Tid, "pushdown");
  Out.Ok = true;
  return Out;
}

BatchProgramResult dispatchOne(const std::string &Name,
                               const std::string &Source,
                               const BatchOptions &Opts,
                               const support::GovernorLimits &Limits) {
  if (Opts.Domain == "constant")
    return analyzeOne<domain::ConstantDomain>(Name, Source, Opts, Limits);
  if (Opts.Domain == "unit")
    return analyzeOne<domain::UnitDomain>(Name, Source, Opts, Limits);
  if (Opts.Domain == "sign")
    return analyzeOne<domain::SignDomain>(Name, Source, Opts, Limits);
  if (Opts.Domain == "parity")
    return analyzeOne<domain::ParityDomain>(Name, Source, Opts, Limits);
  if (Opts.Domain == "interval")
    return analyzeOne<domain::IntervalDomain>(Name, Source, Opts, Limits);
  BatchProgramResult Out;
  Out.Name = Name;
  Out.Error = "unknown domain '" + Opts.Domain + "'";
  Out.Kind = BatchFailKind::Internal;
  return Out;
}

/// Watches in-flight programs and fires their cancellation tokens when
/// their (grace-extended) deadline passes. The governor normally trips a
/// deadline itself; the watchdog is the backstop for a worker stalled
/// somewhere the governor is not polled (parse, a stuck primitive, an
/// injected stall). Cancellation is cooperative — the worker observes it
/// at its next governed goal and degrades soundly.
class Watchdog {
public:
  explicit Watchdog(double PollMs)
      : Poll(std::chrono::duration<double, std::milli>(PollMs)),
        Scanner([this] { loop(); }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    Wake.notify_all();
    Scanner.join();
  }

  uint64_t add(std::shared_ptr<support::CancelToken> Token,
               std::chrono::steady_clock::time_point Deadline) {
    std::lock_guard<std::mutex> Lock(M);
    uint64_t Id = NextId++;
    Watched.push_back({Id, std::move(Token), Deadline});
    return Id;
  }

  void remove(uint64_t Id) {
    std::lock_guard<std::mutex> Lock(M);
    Watched.erase(std::remove_if(Watched.begin(), Watched.end(),
                                 [Id](const EntryT &E) { return E.Id == Id; }),
                  Watched.end());
  }

private:
  struct EntryT {
    uint64_t Id;
    std::shared_ptr<support::CancelToken> Token;
    std::chrono::steady_clock::time_point Deadline;
  };

  void loop() {
    std::unique_lock<std::mutex> Lock(M);
    while (!Stop) {
      auto Now = std::chrono::steady_clock::now();
      for (const EntryT &E : Watched)
        if (Now > E.Deadline)
          E.Token->cancel();
      Wake.wait_for(Lock, Poll, [this] { return Stop; });
    }
  }

  std::mutex M;
  std::condition_variable Wake;
  bool Stop = false;
  uint64_t NextId = 1;
  std::vector<EntryT> Watched;
  std::chrono::duration<double, std::milli> Poll;
  std::thread Scanner; // last member: starts after everything it reads
};

/// Maps a governor trip to the failure taxonomy (FailOnBudget mode). A
/// watchdog cancellation is a deadline in disguise when a deadline was
/// armed; goal/depth trips have no wall-clock meaning and classify as
/// internal budget failures.
BatchFailKind failKindFor(support::DegradeReason R, bool DeadlineArmed) {
  switch (R) {
  case support::DegradeReason::Deadline:
    return BatchFailKind::Deadline;
  case support::DegradeReason::Cancelled:
    return DeadlineArmed ? BatchFailKind::Deadline : BatchFailKind::Internal;
  case support::DegradeReason::Memory:
    return BatchFailKind::Memory;
  default:
    return BatchFailKind::Internal;
  }
}

/// The five legs of \p P in fixed report order.
std::vector<std::pair<const char *, const BatchAnalyzerRecord *>>
legsOf(const BatchProgramResult &P) {
  return {{"direct", &P.Direct},
          {"semantic", &P.Semantic},
          {"syntactic", &P.Syntactic},
          {"dup", &P.Dup},
          {"pushdown", &P.Pushdown}};
}

/// One fully-contained worker body: governs, runs, and converts any
/// escaping exception into a structured failure record. Never throws.
BatchProgramResult containedDispatch(const std::string &Name,
                                     const std::string &Source,
                                     const BatchOptions &Opts,
                                     Watchdog *Dog) {
  // A program whose turn comes after the interrupt fired never starts:
  // report it as a structured failure instead of spending post-interrupt
  // time computing an answer nobody is waiting for.
  if (Opts.Interrupt && Opts.Interrupt->cancelled()) {
    BatchProgramResult Out;
    Out.Name = Name;
    Out.Error = "interrupted before analysis";
    Out.Kind = BatchFailKind::Internal;
    Out.Worker = ThreadPool::currentWorker();
    return Out;
  }

  const bool DeadlineArmed = Opts.DeadlineMs > 0;
  support::GovernorLimits Limits;
  Limits.MaxStoreBytes = Opts.MaxStoreBytes;
  Limits.MaxDepth = Opts.MaxDepth;
  Limits.Interrupt = Opts.Interrupt;
  uint64_t DogId = 0;
  if (DeadlineArmed) {
    Limits.deadlineIn(Opts.DeadlineMs);
    Limits.Cancel = std::make_shared<support::CancelToken>();
    if (Dog)
      // Grace past the governor's own deadline: the watchdog only steps
      // in for workers that failed to self-trip.
      DogId = Dog->add(Limits.Cancel,
                       *Limits.Deadline + std::chrono::milliseconds(50));
  }

  BatchProgramResult Out;
  try {
    CPSFLOW_FAULT_NAMED(fault::Site::BatchWorker, Name);
    Out = dispatchOne(Name, Source, Opts, Limits);
  } catch (const std::bad_alloc &) {
    Out = BatchProgramResult();
    Out.Name = Name;
    Out.Error = "contained failure: out of memory";
    Out.Kind = BatchFailKind::Memory;
  } catch (const std::exception &Ex) {
    Out = BatchProgramResult();
    Out.Name = Name;
    Out.Error = std::string("contained failure: ") + Ex.what();
    Out.Kind = BatchFailKind::Internal;
  } catch (...) {
    Out = BatchProgramResult();
    Out.Name = Name;
    Out.Error = "contained failure: unknown exception";
    Out.Kind = BatchFailKind::Internal;
  }
  if (Dog && DogId)
    Dog->remove(DogId);
  Out.Worker = ThreadPool::currentWorker();

  if (Out.Ok && Opts.FailOnBudget) {
    std::string Degraded;
    BatchFailKind Worst = BatchFailKind::None;
    for (const auto &[LegName, Rec] : legsOf(Out))
      if (Rec->Stats.Degraded != support::DegradeReason::None) {
        if (!Degraded.empty())
          Degraded += ", ";
        Degraded += std::string(LegName) + "=" + str(Rec->Stats.Degraded);
        BatchFailKind K = failKindFor(Rec->Stats.Degraded, DeadlineArmed);
        // Prefer the most specific kind: deadline > memory > internal.
        if (Worst == BatchFailKind::None || K == BatchFailKind::Deadline ||
            (K == BatchFailKind::Memory && Worst == BatchFailKind::Internal))
          Worst = K;
      }
    if (Worst != BatchFailKind::None) {
      Out.Ok = false;
      Out.Kind = Worst;
      Out.Error = "degraded: " + Degraded;
    }
  }
  return Out;
}

/// ANF node count of \p Source for largest-first scheduling — a cheap
/// pre-parse whose cost is dwarfed by the analyses it orders. Programs
/// that fail to parse (or throw) size 0 and dispatch last; their failure
/// is re-discovered and recorded by the worker proper.
uint64_t scheduleSize(const std::string &Source) {
  try {
    Context Ctx;
    Result<const syntax::Term *> Parsed =
        syntax::parseSugaredProgram(Ctx, Source);
    if (!Parsed)
      return 0;
    return syntax::countNodes(anf::normalizeProgram(Ctx, *Parsed));
  } catch (...) {
    return 0;
  }
}

/// True when \p P 's first attempt died or degraded on the deadline —
/// the retry pass reruns exactly these at reduced cost.
bool deadlineTripped(const BatchProgramResult &P) {
  if (!P.Ok)
    return P.Kind == BatchFailKind::Deadline;
  for (const auto &[LegName, Rec] : legsOf(P)) {
    (void)LegName;
    if (Rec->Stats.Degraded == support::DegradeReason::Deadline ||
        Rec->Stats.Degraded == support::DegradeReason::Cancelled)
      return true;
  }
  return false;
}

void writeAnalyzerRecord(JsonWriter &W, const char *Key,
                         const BatchAnalyzerRecord &Rec,
                         const BatchOptions &Opts) {
  W.key(Key).beginObject();
  W.key("answer").value(Rec.Answer);
  W.key("goals").value(Rec.Stats.Goals);
  W.key("cacheHits").value(Rec.Stats.CacheHits);
  W.key("cuts").value(Rec.Stats.Cuts);
  W.key("joins").value(Rec.Stats.Joins);
  W.key("callMerges").value(Rec.Stats.CallMerges);
  W.key("maxDepth").value(Rec.Stats.MaxDepth);
  W.key("deadPaths").value(Rec.Stats.DeadPaths);
  W.key("prunedBranches").value(Rec.Stats.PrunedBranches);
  W.key("memoEntries").value(Rec.Stats.MemoEntries);
  W.key("stores").value(Rec.Stats.InternedStores);
  W.key("storeBytes").value(Rec.Stats.InternerBytes);
  W.key("budgetExhausted").value(Rec.Stats.BudgetExhausted);
  W.key("degradeReason").value(support::str(Rec.Stats.Degraded));
  W.key("loopBounded").value(Rec.Stats.LoopBounded);
  // Schema 5: continuation-summary counters. Uniform across legs for a
  // regular document; non-zero only in the syntactic leg with summaries.
  W.key("summaryHits").value(Rec.Stats.SummaryHits);
  W.key("summaryMisses").value(Rec.Stats.SummaryMisses);
  W.key("summaryEntries").value(Rec.Stats.SummaryEntries);
  W.key("summaryReuseDepth");
  Rec.Stats.SummaryReuseDepth.writeJson(W);
  if (Opts.IncludeTiming)
    W.key("wallMs").value(Rec.WallMs);
  W.endObject();
}

/// Per-analyzer aggregate across the corpus.
struct LegTotals {
  uint64_t Goals = 0, CacheHits = 0, Cuts = 0, Joins = 0, CallMerges = 0;
  uint64_t SummaryHits = 0, SummaryMisses = 0, SummaryEntries = 0;
  double WallMs = 0;

  void add(const BatchAnalyzerRecord &Rec) {
    Goals += Rec.Stats.Goals;
    CacheHits += Rec.Stats.CacheHits;
    Cuts += Rec.Stats.Cuts;
    Joins += Rec.Stats.Joins;
    CallMerges += Rec.Stats.CallMerges;
    SummaryHits += Rec.Stats.SummaryHits;
    SummaryMisses += Rec.Stats.SummaryMisses;
    SummaryEntries += Rec.Stats.SummaryEntries;
    WallMs += Rec.WallMs;
  }

  void write(JsonWriter &W, const char *Key,
             const BatchOptions &Opts) const {
    W.key(Key).beginObject();
    W.key("goals").value(Goals);
    W.key("cacheHits").value(CacheHits);
    W.key("cuts").value(Cuts);
    W.key("joins").value(Joins);
    W.key("callMerges").value(CallMerges);
    W.key("summaryHits").value(SummaryHits);
    W.key("summaryMisses").value(SummaryMisses);
    W.key("summaryEntries").value(SummaryEntries);
    if (Opts.IncludeTiming)
      W.key("wallMs").value(WallMs);
    W.endObject();
  }
};

/// Nearest-rank percentile of \p V (sorted in place): the
/// ceil(Q*N)-th smallest sample. Deterministic — depends only on the
/// multiset of values, never on thread interleaving.
template <typename T> T percentileOf(std::vector<T> &V, double Q) {
  if (V.empty())
    return T{};
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(V.size())));
  if (Rank == 0)
    Rank = 1;
  return V[std::min(Rank, V.size()) - 1];
}

/// Per-leg distributions across ok programs, for the "metrics" section
/// (schema 3+): every scalar AnalyzerStats counter gets {sum, p50, p95,
/// max}; schema 4 adds the joins/callMerges loss counters.
struct LegSamples {
  std::vector<uint64_t> Goals, CacheHits, Cuts, Joins, CallMerges,
      MaxDepth, MemoEntries, Stores, SummaryHits, SummaryMisses;
  std::vector<double> WallMs;

  void add(const BatchAnalyzerRecord &Rec) {
    Goals.push_back(Rec.Stats.Goals);
    CacheHits.push_back(Rec.Stats.CacheHits);
    Cuts.push_back(Rec.Stats.Cuts);
    Joins.push_back(Rec.Stats.Joins);
    CallMerges.push_back(Rec.Stats.CallMerges);
    MaxDepth.push_back(Rec.Stats.MaxDepth);
    MemoEntries.push_back(Rec.Stats.MemoEntries);
    Stores.push_back(Rec.Stats.InternedStores);
    SummaryHits.push_back(Rec.Stats.SummaryHits);
    SummaryMisses.push_back(Rec.Stats.SummaryMisses);
    WallMs.push_back(Rec.WallMs);
  }

  static void writeSummary(JsonWriter &W, const char *Key,
                           std::vector<uint64_t> &V) {
    uint64_t Sum = 0, Max = 0;
    for (uint64_t X : V) {
      Sum += X;
      Max = std::max(Max, X);
    }
    W.key(Key).beginObject();
    W.key("sum").value(Sum);
    W.key("p50").value(percentileOf(V, 0.5));
    W.key("p95").value(percentileOf(V, 0.95));
    W.key("max").value(Max);
    W.endObject();
  }

  void write(JsonWriter &W, const char *Key, const BatchOptions &Opts) {
    W.key(Key).beginObject();
    writeSummary(W, "goals", Goals);
    writeSummary(W, "cacheHits", CacheHits);
    writeSummary(W, "cuts", Cuts);
    writeSummary(W, "joins", Joins);
    writeSummary(W, "callMerges", CallMerges);
    writeSummary(W, "maxDepth", MaxDepth);
    writeSummary(W, "memoEntries", MemoEntries);
    writeSummary(W, "stores", Stores);
    writeSummary(W, "summaryHits", SummaryHits);
    writeSummary(W, "summaryMisses", SummaryMisses);
    if (Opts.IncludeTiming) {
      double Sum = 0, Max = 0;
      for (double X : WallMs) {
        Sum += X;
        Max = std::max(Max, X);
      }
      W.key("wallMs").beginObject();
      W.key("sum").value(Sum);
      W.key("p50").value(percentileOf(WallMs, 0.5));
      W.key("p95").value(percentileOf(WallMs, 0.95));
      W.key("max").value(Max);
      W.endObject();
    }
    W.endObject();
  }
};

} // namespace

const char *str(BatchFailKind K) {
  switch (K) {
  case BatchFailKind::None:
    return "none";
  case BatchFailKind::Parse:
    return "parse";
  case BatchFailKind::Cps:
    return "cps";
  case BatchFailKind::Deadline:
    return "deadline";
  case BatchFailKind::Memory:
    return "memory";
  case BatchFailKind::Internal:
    return "internal";
  }
  return "?";
}

Result<std::vector<std::string>> collectCorpus(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::directory_iterator It(Dir, Ec);
  if (Ec)
    return Error("cannot read corpus directory '" + Dir +
                 "': " + Ec.message());
  std::vector<std::string> Files;
  for (fs::directory_iterator End; It != End; It.increment(Ec)) {
    if (Ec)
      return Error("error scanning corpus directory '" + Dir +
                   "': " + Ec.message());
    const fs::directory_entry &E = *It;
    if (!E.is_regular_file(Ec) || Ec)
      continue;
    if (E.path().extension() == ".scm")
      Files.push_back(E.path().string());
  }
  if (Ec)
    return Error("error scanning corpus directory '" + Dir +
                 "': " + Ec.message());
  std::sort(Files.begin(), Files.end());
  return Files;
}

BatchResult runBatch(
    const std::vector<std::pair<std::string, std::string>> &NamedSources,
    const BatchOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  BatchResult R;
  R.Programs.resize(NamedSources.size());

  // The watchdog thread exists only when a deadline can strand a worker.
  std::optional<Watchdog> Dog;
  if (Opts.DeadlineMs > 0)
    Dog.emplace(/*PollMs=*/5.0);
  Watchdog *DogP = Dog ? &*Dog : nullptr;

  // Largest programs first: submission order is a pure scheduling hint
  // (results land at fixed indices and the report iterates input order,
  // so output bytes are identical), but dispatching the long-pole
  // programs before the cheap tail keeps workers from idling behind one
  // big program submitted last. Sizes are computed once, up front, and
  // reused by the retry pass. Stable sort: equal sizes keep input order.
  std::vector<uint64_t> Sizes;
  if (Opts.Threads > 1) {
    Sizes.resize(NamedSources.size());
    for (size_t I = 0; I < NamedSources.size(); ++I)
      Sizes[I] = scheduleSize(NamedSources[I].second);
  }

  auto runPass = [&](const std::vector<size_t> &Indices,
                     const BatchOptions &PassOpts) {
    if (PassOpts.Threads <= 1) {
      for (size_t I : Indices)
        R.Programs[I] = containedDispatch(NamedSources[I].first,
                                          NamedSources[I].second, PassOpts,
                                          DogP);
    } else {
      std::vector<size_t> Order(Indices);
      std::stable_sort(Order.begin(), Order.end(),
                       [&](size_t A, size_t B) {
                         return Sizes[A] > Sizes[B];
                       });
      // One job per program; each writes only its own pre-sized slot.
      ThreadPool Pool(PassOpts.Threads);
      for (size_t I : Order)
        Pool.submit([I, &NamedSources, &PassOpts, &R, DogP] {
          R.Programs[I] = containedDispatch(NamedSources[I].first,
                                            NamedSources[I].second, PassOpts,
                                            DogP);
        });
      Pool.wait();
    }
  };

  std::vector<size_t> All(NamedSources.size());
  std::iota(All.begin(), All.end(), size_t{0});
  runPass(All, Opts);

  R.Interrupted = Opts.Interrupt && Opts.Interrupt->cancelled();

  // No retry pass after an interrupt: the user asked the batch to stop,
  // and "cancelled" trips would re-trip immediately anyway.
  if (Opts.Retry && !R.Interrupted) {
    std::vector<size_t> Again;
    for (size_t I = 0; I < R.Programs.size(); ++I)
      if (deadlineTripped(R.Programs[I]))
        Again.push_back(I);
    if (!Again.empty()) {
      // One reduced-cost retry: cheaper loop bound and goal budget give
      // the same deadline a real chance of sufficing.
      BatchOptions Reduced = Opts;
      Reduced.LoopUnroll = std::max<uint32_t>(1, Opts.LoopUnroll / 2);
      Reduced.MaxGoals = std::max<uint64_t>(1, Opts.MaxGoals / 2);
      runPass(Again, Reduced);
      for (size_t I : Again)
        R.Programs[I].Retried = true;
    }
  }

  // Re-check: the token may have fired mid-retry.
  R.Interrupted = Opts.Interrupt && Opts.Interrupt->cancelled();
  R.WallMs = elapsedMs(Start);
  return R;
}

BatchResult runBatchFiles(const std::vector<std::string> &Files,
                          const BatchOptions &Opts) {
  std::vector<std::pair<std::string, std::string>> Sources;
  Sources.reserve(Files.size());
  for (const std::string &File : Files) {
    std::ifstream In(File);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Name = std::filesystem::path(File).filename().string();
    if (!In) {
      // Surface the read failure as a per-program error so one bad path
      // doesn't abort the whole corpus.
      Sources.emplace_back(Name, "");
    } else {
      Sources.emplace_back(Name, Buf.str());
    }
  }
  return runBatch(Sources, Opts);
}

std::string batchJson(const BatchResult &R, const BatchOptions &Opts) {
  JsonWriter W;
  W.beginObject();
  W.key("schemaVersion").value(BatchSchemaVersion);
  W.key("domain").value(Opts.Domain);
  W.key("dupBudget").value(Opts.DupBudget);
  // Only interrupted runs carry the marker: un-interrupted documents stay
  // byte-identical to every earlier schema-6 report.
  if (R.Interrupted)
    W.key("interrupted").value(true);
  if (Opts.IncludeTiming) {
    W.key("threads").value(static_cast<uint64_t>(Opts.Threads));
    W.key("wallMs").value(R.WallMs);
  }

  LegTotals Direct, Semantic, Syntactic, Dup, Pushdown;
  LegSamples DirectS, SemanticS, SyntacticS, DupS, PushdownS;
  uint64_t Failures = 0;
  uint64_t Kinds[6] = {0, 0, 0, 0, 0, 0};

  W.key("programs").beginArray();
  for (const BatchProgramResult &P : R.Programs) {
    W.beginObject();
    W.key("name").value(P.Name);
    W.key("ok").value(P.Ok);
    if (P.Retried)
      W.key("retried").value(true);
    if (Opts.IncludeTiming)
      W.key("worker").value(static_cast<uint64_t>(P.Worker));
    if (!P.Ok) {
      ++Failures;
      ++Kinds[static_cast<size_t>(P.Kind)];
      W.key("error").value(P.Error);
      W.key("failKind").value(str(P.Kind));
      W.endObject();
      continue;
    }
    W.key("nodes").value(P.Nodes);
    writeAnalyzerRecord(W, "direct", P.Direct, Opts);
    writeAnalyzerRecord(W, "semantic", P.Semantic, Opts);
    writeAnalyzerRecord(W, "syntactic", P.Syntactic, Opts);
    writeAnalyzerRecord(W, "dup", P.Dup, Opts);
    writeAnalyzerRecord(W, "pushdown", P.Pushdown, Opts);
    W.endObject();
    Direct.add(P.Direct);
    Semantic.add(P.Semantic);
    Syntactic.add(P.Syntactic);
    Dup.add(P.Dup);
    Pushdown.add(P.Pushdown);
    DirectS.add(P.Direct);
    SemanticS.add(P.Semantic);
    SyntacticS.add(P.Syntactic);
    DupS.add(P.Dup);
    PushdownS.add(P.Pushdown);
  }
  W.endArray();

  W.key("totals").beginObject();
  W.key("programs").value(static_cast<uint64_t>(R.Programs.size()));
  W.key("failures").value(Failures);
  W.key("failureKinds").beginObject();
  for (BatchFailKind K :
       {BatchFailKind::Parse, BatchFailKind::Cps, BatchFailKind::Deadline,
        BatchFailKind::Memory, BatchFailKind::Internal})
    W.key(str(K)).value(Kinds[static_cast<size_t>(K)]);
  W.endObject();
  Direct.write(W, "direct", Opts);
  Semantic.write(W, "semantic", Opts);
  Syntactic.write(W, "syntactic", Opts);
  Dup.write(W, "dup", Opts);
  Pushdown.write(W, "pushdown", Opts);
  W.endObject();

  // Schema 3: per-leg distributions across ok programs. Computed from
  // per-program counters, which are thread-count independent, so this
  // whole section is byte-identical at every --threads value; only the
  // wallMs summaries and the per-thread breakdown (both gated behind
  // IncludeTiming, like every timing field) vary run to run.
  W.key("metrics").beginObject();
  DirectS.write(W, "direct", Opts);
  SemanticS.write(W, "semantic", Opts);
  SyntacticS.write(W, "syntactic", Opts);
  DupS.write(W, "dup", Opts);
  PushdownS.write(W, "pushdown", Opts);
  if (Opts.IncludeTiming) {
    std::vector<uint64_t> Programs(std::max(1u, Opts.Threads), 0);
    std::vector<double> ThreadMs(Programs.size(), 0);
    for (const BatchProgramResult &P : R.Programs) {
      size_t Tid = std::min<size_t>(P.Worker, Programs.size() - 1);
      ++Programs[Tid];
      for (const auto &[LegName, Rec] : legsOf(P)) {
        (void)LegName;
        ThreadMs[Tid] += Rec->WallMs;
      }
    }
    W.key("perThread").beginArray();
    for (size_t I = 0; I < Programs.size(); ++I) {
      W.beginObject();
      W.key("worker").value(static_cast<uint64_t>(I));
      W.key("programs").value(Programs[I]);
      W.key("analyzeMs").value(ThreadMs[I]);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();

  W.endObject();
  return W.str();
}

} // namespace clients
} // namespace cpsflow
