//===- tools/cpsflow.cpp - Command-line driver ------------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cpsflow command-line driver: every stage of the library behind one
/// binary, for poking at programs without writing C++.
///
/// \code
///   cpsflow parse FILE                 echo the parsed program
///   cpsflow anf FILE                   print the A-normal form
///   cpsflow steps FILE                 show each A-reduction step
///   cpsflow cps FILE                   print the CPS transform
///   cpsflow run FILE [options]         run a concrete machine
///   cpsflow analyze FILE [options]     run an abstract analyzer
///   cpsflow compare FILE [options]     run all three analyzers, compare
///   cpsflow fold FILE                  constant-fold and print
///   cpsflow inline FILE                heuristically inline and print
///   cpsflow batch DIR [options]        analyze a corpus of *.scm, JSON out
///   cpsflow fuzz [DIR] [options]       differential fuzzing campaign over
///                                      the theorem oracles; DIR seeds the
///                                      mutator (optional)
///   cpsflow explain FILE --var x       derivation chain for x's final
///                                      abstract value (docs/EXPLAIN.md)
///   cpsflow serve --socket PATH        long-running analysis daemon:
///                                      line-delimited JSON over an
///                                      AF_UNIX socket, worker pool,
///                                      crash-safe result cache
///                                      (docs/SERVE.md; tools/loadgen is
///                                      the matching load driver)
///   cpsflow version                    build configuration and the JSON
///                                      schema versions this binary emits
///
/// options:
///   --machine=direct|semantic|syntactic    (run; default direct)
///   --analyzer=direct|semantic|syntactic|dup|pushdown
///                         (analyze; default direct; aliases scps=semantic,
///                         syncps=syntactic, pd=cfa2=pushdown)
///   --domain=constant|unit|sign|parity|interval (default constant)
///   --bind x=N            bind free variable x to integer N (repeatable;
///                         for analyze: to the abstract constant N)
///   --top x               bind free variable x to the numeric top
///   --budget N            dup analyzer duplication budget (default 2)
///   --fuel N              concrete step budget (default 2^20)
///   --show-cfg            print the extracted control-flow graph
///   --show-store          print the final abstract store
///   --threads N           batch worker threads (default 1)
///   --out FILE            batch: write the JSON report to FILE
///   --no-timing           batch: omit wall-time/thread fields (so outputs
///                         compare byte-for-byte across runs)
///   FILE may be "-" for stdin.
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "analysis/CfgCompare.h"
#include "analysis/Compare.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/DupAnalyzer.h"
#include "analysis/PushdownAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "anf/Anf.h"
#include "anf/Reductions.h"
#include "clients/Batch.h"
#include "clients/ConstFold.h"
#include "clients/Explain.h"
#include "clients/Inline.h"
#include "clients/Reports.h"
#include "cps/Transform.h"
#include "fuzz/Campaign.h"
#include "serve/Server.h"
#include "support/FaultInjector.h"
#include "interp/Delta.h"
#include "interp/Direct.h"
#include "interp/SemanticCps.h"
#include "interp/SyntacticCps.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/ParseNum.h"
#include "support/Trace.h"
#include "syntax/Analysis.h"
#include "syntax/Parser.h"
#include "syntax/Rename.h"
#include "syntax/Sugar.h"
#include "syntax/Printer.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace cpsflow;

namespace {

struct Options {
  std::string Command;
  std::string File;
  std::string Machine = "direct";
  std::string Analyzer = "direct";
  std::string Domain = "constant";
  std::vector<std::pair<std::string, int64_t>> Bindings;
  std::vector<std::string> TopVars;
  uint64_t Budget = 2;
  uint64_t Fuel = 1u << 20;
  unsigned Threads = 1;
  double DeadlineMs = 0;
  uint64_t MaxStoreMb = 0;
  uint32_t MaxDepthCap = 0;
  uint32_t LoopUnroll = 64;
  uint64_t MaxGoals = 0; ///< 0 = the command's default budget.
  bool NoSummaries = false;
  bool FailOnBudget = false;
  bool Retry = false;
  std::string OutFile;
  std::string TraceOut; ///< Chrome trace destination; empty = no tracing.
  bool ShowMetrics = false;
  bool NoTiming = false;
  bool ShowCfg = false;
  bool ShowStore = false;
  bool Json = false;
  bool TraceRun = false;
  bool ShowDerivation = false;

  // explain-only knobs.
  std::string Var;      ///< variable whose derivation to explain.
  std::string GraphOut; ///< derivation-graph destination (.dot or .json).

  // serve-only knobs.
  std::string ServeSocket;    ///< AF_UNIX listen path (required).
  unsigned ServeWorkers = 2;  ///< analysis worker pool size.
  uint64_t QueueCap = 64;     ///< admission high-water mark.
  std::string CacheDir;       ///< result-cache directory; empty = off.
  double DrainGraceMs = 2000; ///< drain grace before degrading work.
  std::string LogOut;         ///< request-log file; empty = off.
  uint64_t LogRotateMb = 64;  ///< request-log rotation cap (0 = never).
  uint64_t FlightRecords = 256; ///< flight-recorder ring; 0 = off.
  std::string FlightDump;     ///< dump path override.
  double TraceSlowMs = 0;     ///< slow-request trace threshold; 0 = off.
  std::string TraceDir;       ///< slow-trace spill directory override.
  uint64_t TraceSlowMax = 32; ///< spilled-trace file budget.

  // fuzz-only knobs.
  uint64_t FuzzSeed = 1;
  uint64_t Iterations = 0;
  double Seconds = 10;
  uint64_t Wave = 0;
  uint64_t MaxFindings = 32;
  bool NoShrink = false;
  std::string FindingsDir;
  std::string OracleList;
  std::string ReplayFile;
};

[[noreturn]] void usage(const char *Message = nullptr) {
  if (Message)
    std::fprintf(stderr, "error: %s\n\n", Message);
  std::fprintf(
      stderr,
      "usage: cpsflow COMMAND FILE [options]\n"
      "commands: parse | anf | steps | cps | run | analyze | compare | "
      "fold | inline | batch | fuzz | explain | serve | version\n"
      "options:  --machine=direct|semantic|syntactic\n"
      "          --analyzer=direct|semantic|syntactic|dup|pushdown\n"
      "                             (aliases: scps=semantic,\n"
      "                             syncps=syntactic, pd=cfa2=pushdown)\n"
      "          --domain=constant|unit|sign|parity|interval\n"
      "          --bind x=N   --top x   --budget N   --fuel N\n"
      "          --show-cfg   --show-store\n"
      "          --show-derivation  derivation tree (analyze with\n"
      "                             --analyzer direct|pushdown only)\n"
      "          --json   --trace\n"
      "          --deadline-ms N    soft wall-clock deadline per analysis\n"
      "          --max-store-mb N   interned-store memory ceiling\n"
      "          --max-depth N      goal-stack depth cap\n"
      "          --loop-unroll N    CPS loop unroll bound (default 64)\n"
      "          --max-goals N      proof-goal budget per analyzer leg\n"
      "          --no-summaries     disable continuation-summary reuse in\n"
      "                             the syntactic analyzer (answers are\n"
      "                             identical; only speed differs)\n"
      "          --trace-out FILE   write a Chrome trace_event JSON file\n"
      "                             (open in chrome://tracing or Perfetto)\n"
      "          --metrics          print per-leg counters/histograms\n"
      "          --on-budget=fail|degrade   degraded answers: exit 1 or\n"
      "                             report (default degrade)\n"
      "          --retry            batch: rerun deadline-tripped programs\n"
      "                             once at reduced cost\n"
      "          --threads N  --out FILE  --no-timing   (batch only;\n"
      "          batch takes a DIRECTORY of *.scm in place of FILE)\n"
      "explain options:\n"
      "          --var x            variable to explain (required)\n"
      "          --graph-out FILE   export the full derivation graph;\n"
      "                             FILE.dot for Graphviz, else JSON\n"
      "          --analyzer accepts the aliases scps (semantic),\n"
      "          syncps (syntactic), and pd/cfa2 (pushdown) here as well\n"
      "fuzz options (fuzz takes an optional seed DIRECTORY of *.scm):\n"
      "          --seconds N        wall-clock budget (default 10)\n"
      "          --iterations N     exact task count (overrides --seconds;\n"
      "                             fixed seed+iterations reproduce the\n"
      "                             same findings at any --threads)\n"
      "          --fuzz-seed N      campaign master seed (default 1)\n"
      "          --oracles LIST     comma list, e.g. O1,O3 or soundness\n"
      "          --findings-dir D   write reproducers + findings.json\n"
      "          --max-findings N   stop after N findings (default 32)\n"
      "          --wave N           tasks per scheduling wave (default 32)\n"
      "          --no-shrink        keep findings unminimized\n"
      "          --replay FILE      re-check one reproducer and exit\n"
      "serve options (serve takes no FILE; see docs/SERVE.md):\n"
      "          --socket PATH      AF_UNIX listen path (required)\n"
      "          --serve-workers N  analysis worker pool size (default 2)\n"
      "          --queue-cap N      admission high-water mark: analyze\n"
      "                             requests past it are shed (default 64)\n"
      "          --cache-dir DIR    persistent crash-safe result cache\n"
      "                             (omitted = caching off)\n"
      "          --drain-grace-ms N grace before in-flight analyses are\n"
      "                             degraded on drain (default 2000)\n"
      "          --log-out FILE     structured request log: one JSON line\n"
      "                             per finished analyze request\n"
      "          --log-rotate-mb N  rotate the request log past N MiB\n"
      "                             (default 64; 0 = never)\n"
      "          --flight-records N flight-recorder ring size (default\n"
      "                             256; 0 = off); dumped on drain and on\n"
      "                             the dump op\n"
      "          --flight-dump FILE flight dump path (default\n"
      "                             SOCKET.flight.json)\n"
      "          --trace-slow-ms N  spill a Chrome trace for requests\n"
      "                             whose analysis exceeds N ms (0 = off)\n"
      "          --trace-dir DIR    slow-trace spill directory (default\n"
      "                             SOCKET.traces)\n"
      "          --trace-slow-max N cap on spilled trace files\n"
      "                             (default 32)\n"
      "          the governor flags above (--deadline-ms, --max-goals,\n"
      "          --max-store-mb, --max-depth) set per-request defaults\n"
      "FILE may be '-' for stdin.\n");
  std::exit(2);
}

/// Checked numeric flag parsing: any malformed or out-of-range value is a
/// usage error naming the offending flag and text — never a silent 0 or a
/// truncated cast (the std::atoi failure modes this replaces).
uint64_t flagUint(const char *Flag, const char *Text,
                  uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  Result<uint64_t> R = support::parseUint(Text, Max);
  if (!R)
    usage((std::string(Flag) + ": " + R.error().str()).c_str());
  return *R;
}

int64_t flagInt(const char *Flag, const std::string &Text) {
  Result<int64_t> R = support::parseInt(Text);
  if (!R)
    usage((std::string(Flag) + ": " + R.error().str()).c_str());
  return *R;
}

double flagMs(const char *Flag, const char *Text) {
  Result<double> R = support::parseNonNegativeMs(Text);
  if (!R)
    usage((std::string(Flag) + ": " + R.error().str()).c_str());
  return *R;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  if (Argc < 2)
    usage();
  O.Command = Argv[1];
  if (O.Command == "--version")
    O.Command = "version";
  // fuzz's corpus directory is optional, and version and serve take no
  // input at all; every other command requires its FILE (or DIR)
  // positional.
  int First = 2;
  if (First < Argc && Argv[First][0] != '-') {
    O.File = Argv[First];
    ++First;
  } else if (O.Command != "fuzz" && O.Command != "version" &&
             O.Command != "serve") {
    if (First < Argc && std::strcmp(Argv[First], "-") == 0) {
      O.File = "-";
      ++First;
    } else {
      usage();
    }
  }
  for (int I = First; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const std::string &Prefix) -> std::string {
      return A.substr(Prefix.size());
    };
    if (A.rfind("--machine=", 0) == 0)
      O.Machine = Value("--machine=");
    else if (A.rfind("--analyzer=", 0) == 0)
      O.Analyzer = Value("--analyzer=");
    else if (A == "--analyzer" && I + 1 < Argc)
      O.Analyzer = Argv[++I];
    else if (A.rfind("--domain=", 0) == 0)
      O.Domain = Value("--domain=");
    else if (A == "--domain" && I + 1 < Argc)
      O.Domain = Argv[++I];
    else if (A == "--bind" && I + 1 < Argc) {
      std::string Spec = Argv[++I];
      size_t Eq = Spec.find('=');
      if (Eq == std::string::npos)
        usage("--bind expects x=N");
      O.Bindings.emplace_back(Spec.substr(0, Eq),
                              flagInt("--bind", Spec.substr(Eq + 1)));
    } else if (A == "--top" && I + 1 < Argc) {
      O.TopVars.push_back(Argv[++I]);
    } else if (A == "--budget" && I + 1 < Argc) {
      O.Budget = flagUint("--budget", Argv[++I]);
    } else if (A == "--fuel" && I + 1 < Argc) {
      O.Fuel = flagUint("--fuel", Argv[++I]);
    } else if (A == "--threads" && I + 1 < Argc) {
      O.Threads = static_cast<unsigned>(
          flagUint("--threads", Argv[++I], /*Max=*/4096));
    } else if (A == "--deadline-ms" && I + 1 < Argc) {
      O.DeadlineMs = flagMs("--deadline-ms", Argv[++I]);
    } else if (A == "--max-store-mb" && I + 1 < Argc) {
      // Cap so the byte conversion below cannot overflow.
      O.MaxStoreMb = flagUint("--max-store-mb", Argv[++I],
                              /*Max=*/uint64_t{1} << 40);
    } else if (A == "--max-depth" && I + 1 < Argc) {
      O.MaxDepthCap = static_cast<uint32_t>(
          flagUint("--max-depth", Argv[++I],
                   std::numeric_limits<uint32_t>::max()));
    } else if (A == "--loop-unroll" && I + 1 < Argc) {
      O.LoopUnroll = static_cast<uint32_t>(
          flagUint("--loop-unroll", Argv[++I],
                   std::numeric_limits<uint32_t>::max()));
    } else if (A == "--max-goals" && I + 1 < Argc) {
      O.MaxGoals = flagUint("--max-goals", Argv[++I]);
      if (O.MaxGoals == 0)
        usage("--max-goals: the budget must be at least 1");
    } else if (A == "--trace-out" && I + 1 < Argc) {
      O.TraceOut = Argv[++I];
    } else if (A == "--metrics") {
      O.ShowMetrics = true;
    } else if (A.rfind("--on-budget=", 0) == 0) {
      std::string Mode = Value("--on-budget=");
      if (Mode == "fail")
        O.FailOnBudget = true;
      else if (Mode == "degrade")
        O.FailOnBudget = false;
      else
        usage("--on-budget expects fail or degrade");
    } else if (A == "--retry") {
      O.Retry = true;
    } else if (A == "--out" && I + 1 < Argc) {
      O.OutFile = Argv[++I];
    } else if (A == "--seconds" && I + 1 < Argc) {
      O.Seconds = flagMs("--seconds", Argv[++I]);
    } else if (A == "--iterations" && I + 1 < Argc) {
      O.Iterations = flagUint("--iterations", Argv[++I]);
    } else if (A == "--fuzz-seed" && I + 1 < Argc) {
      O.FuzzSeed = flagUint("--fuzz-seed", Argv[++I]);
    } else if (A == "--wave" && I + 1 < Argc) {
      O.Wave = flagUint("--wave", Argv[++I]);
    } else if (A == "--max-findings" && I + 1 < Argc) {
      O.MaxFindings = flagUint("--max-findings", Argv[++I]);
    } else if (A == "--findings-dir" && I + 1 < Argc) {
      O.FindingsDir = Argv[++I];
    } else if (A == "--oracles" && I + 1 < Argc) {
      O.OracleList = Argv[++I];
    } else if (A == "--no-summaries") {
      O.NoSummaries = true;
    } else if (A == "--no-shrink") {
      O.NoShrink = true;
    } else if (A == "--replay" && I + 1 < Argc) {
      O.ReplayFile = Argv[++I];
    } else if (A == "--socket" && I + 1 < Argc) {
      O.ServeSocket = Argv[++I];
    } else if (A == "--serve-workers" && I + 1 < Argc) {
      O.ServeWorkers = static_cast<unsigned>(
          flagUint("--serve-workers", Argv[++I], /*Max=*/4096));
      if (O.ServeWorkers == 0)
        usage("--serve-workers: need at least 1");
    } else if (A == "--queue-cap" && I + 1 < Argc) {
      O.QueueCap = flagUint("--queue-cap", Argv[++I],
                            /*Max=*/uint64_t{1} << 20);
    } else if (A == "--cache-dir" && I + 1 < Argc) {
      O.CacheDir = Argv[++I];
    } else if (A == "--drain-grace-ms" && I + 1 < Argc) {
      O.DrainGraceMs = flagMs("--drain-grace-ms", Argv[++I]);
    } else if (A == "--log-out" && I + 1 < Argc) {
      O.LogOut = Argv[++I];
    } else if (A == "--log-rotate-mb" && I + 1 < Argc) {
      O.LogRotateMb = flagUint("--log-rotate-mb", Argv[++I],
                               /*Max=*/uint64_t{1} << 20);
    } else if (A == "--flight-records" && I + 1 < Argc) {
      O.FlightRecords = flagUint("--flight-records", Argv[++I],
                                 /*Max=*/uint64_t{1} << 20);
    } else if (A == "--flight-dump" && I + 1 < Argc) {
      O.FlightDump = Argv[++I];
    } else if (A == "--trace-slow-ms" && I + 1 < Argc) {
      O.TraceSlowMs = flagMs("--trace-slow-ms", Argv[++I]);
    } else if (A == "--trace-dir" && I + 1 < Argc) {
      O.TraceDir = Argv[++I];
    } else if (A == "--trace-slow-max" && I + 1 < Argc) {
      O.TraceSlowMax = flagUint("--trace-slow-max", Argv[++I],
                                /*Max=*/uint64_t{1} << 20);
    } else if (A == "--no-timing") {
      O.NoTiming = true;
    } else if (A == "--show-cfg") {
      O.ShowCfg = true;
    } else if (A == "--show-store") {
      O.ShowStore = true;
    } else if (A == "--json") {
      O.Json = true;
    } else if (A == "--trace") {
      O.TraceRun = true;
    } else if (A == "--show-derivation") {
      O.ShowDerivation = true;
    } else if (A == "--var" && I + 1 < Argc) {
      O.Var = Argv[++I];
    } else if (A == "--graph-out" && I + 1 < Argc) {
      O.GraphOut = Argv[++I];
    } else {
      usage(("unknown option '" + A + "'").c_str());
    }
  }
  // Fold the documented shorthands (scps, syncps, pd, cfa2) into the
  // canonical analyzer names via the shared registry, and reject unknown
  // names up front with the valid-choices list.
  if (std::optional<std::string> Canon =
          analysis::canonicalAnalyzerName(O.Analyzer)) {
    O.Analyzer = *Canon;
  } else {
    usage(("unknown analyzer '" + O.Analyzer +
           "' (valid: " + analysis::knownAnalyzerNames() +
           "; aliases: " + analysis::knownAnalyzerAliases() + ")")
              .c_str());
  }
  // Only the direct and pushdown analyzers record a derivation tree.
  if (O.ShowDerivation &&
      (O.Command != "analyze" ||
       (O.Analyzer != "direct" && O.Analyzer != "pushdown")))
    usage("--show-derivation: only `analyze --analyzer direct|pushdown` "
          "records a derivation");
  return O;
}

std::string readInput(const std::string &File) {
  std::ostringstream Buf;
  if (File == "-") {
    Buf << std::cin.rdbuf();
  } else {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      std::exit(1);
    }
    Buf << In.rdbuf();
  }
  return Buf.str();
}

/// Everything the subcommands need after the common front end. The
/// Context is not movable, so subcommands construct a Loaded and call
/// load() on it.
struct Loaded {
  Context Ctx;
  const syntax::Term *Raw = nullptr;
  const syntax::Term *Anf = nullptr;
  support::Tracer *Trace = nullptr; ///< Set before load() to span phases.

  void load(const Options &O) {
    // The surface language (syntax/Sugar.h) is a superset of core A:
    // defines, curried lambdas/applications, let*, rec, +/- literals.
    Result<const syntax::Term *> R = [&] {
      support::TraceSpan S(Trace, "parse");
      return syntax::parseSugaredProgram(Ctx, readInput(O.File));
    }();
    if (!R) {
      // Exit 2, like flag/usage errors: the input never reached an
      // analyzer, so this is an input error, not an analysis failure.
      std::fprintf(stderr, "parse error: %s\n", R.error().str().c_str());
      std::exit(2);
    }
    Raw = *R;
    support::TraceSpan S(Trace, "anf");
    Anf = anf::normalizeProgram(Ctx, Raw);
  }
};

/// Writes \p Trace as a Chrome trace_event JSON document to O.TraceOut.
/// Returns false (after reporting) when the file cannot be written.
bool writeTraceFile(const Options &O, const support::Tracer &Trace) {
  std::ofstream Out(O.TraceOut);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                 O.TraceOut.c_str());
    return false;
  }
  Out << Trace.json() << '\n';
  return true;
}

int cmdParse(const Options &O) {
  Loaded L;
  L.load(O);
  std::printf("%s\n", syntax::printIndented(L.Ctx, L.Raw).c_str());
  return 0;
}

int cmdAnf(const Options &O) {
  Loaded L;
  L.load(O);
  std::printf("%s\n", syntax::printIndented(L.Ctx, L.Anf).c_str());
  return 0;
}

int cmdSteps(const Options &O) {
  Loaded L;
  L.load(O);
  const syntax::Term *T = syntax::renameUnique(L.Ctx, L.Raw);
  std::printf("    %s\n", syntax::print(L.Ctx, T).c_str());
  size_t N = 0;
  while (auto S = anf::stepA(L.Ctx, T)) {
    T = S->Next;
    std::printf("%s  %s\n", anf::str(S->Rule),
                syntax::print(L.Ctx, T).c_str());
    if (++N > 10000) {
      std::fprintf(stderr, "error: reduction did not terminate\n");
      return 1;
    }
  }
  std::printf("(%zu steps to A-normal form)\n", N);
  return 0;
}

int cmdCps(const Options &O) {
  Loaded L;
  L.load(O);
  Result<cps::CpsProgram> P = cps::cpsTransform(L.Ctx, L.Anf);
  if (!P) {
    std::fprintf(stderr, "error: %s\n", P.error().str().c_str());
    return 1;
  }
  std::printf("%s\n", cps::printCps(L.Ctx, P->Root).c_str());
  return 0;
}

const char *statusName(interp::RunStatus S) {
  switch (S) {
  case interp::RunStatus::Ok:
    return "ok";
  case interp::RunStatus::Stuck:
    return "stuck";
  case interp::RunStatus::Diverged:
    return "diverged";
  case interp::RunStatus::OutOfFuel:
    return "out of fuel";
  }
  return "?";
}

int cmdRun(const Options &O) {
  Loaded L;
  L.load(O);
  interp::RunLimits Limits;
  Limits.MaxSteps = O.Fuel;

  std::vector<interp::InitialBinding> Init;
  for (const auto &[Name, Value] : O.Bindings)
    Init.push_back({L.Ctx.intern(Name), interp::RtValue::number(Value)});

  auto PrintTrace = [&](const std::vector<std::string> &Lines) {
    for (const std::string &Line : Lines)
      std::printf("  | %s\n", Line.c_str());
  };

  if (O.Machine == "direct" || O.Machine == "semantic") {
    interp::RunResult R;
    if (O.Machine == "direct") {
      interp::DirectInterp I(Limits);
      if (O.TraceRun)
        I.enableTrace(L.Ctx);
      R = I.run(L.Anf, Init);
      if (O.TraceRun)
        PrintTrace(I.trace());
    } else {
      interp::SemanticCpsInterp I(Limits);
      if (O.TraceRun)
        I.enableTrace(L.Ctx);
      R = I.run(L.Anf, Init);
      if (O.TraceRun)
        PrintTrace(I.trace());
    }
    std::printf("status: %s\n", statusName(R.Status));
    if (R.ok())
      std::printf("value:  %s\n", interp::str(L.Ctx, R.Value).c_str());
    else if (!R.Message.empty())
      std::printf("reason: %s\n", R.Message.c_str());
    std::printf("steps:  %llu\n", (unsigned long long)R.Steps);
    return R.ok() ? 0 : 1;
  }
  if (O.Machine == "syntactic") {
    Result<cps::CpsProgram> P = cps::cpsTransform(L.Ctx, L.Anf);
    if (!P) {
      std::fprintf(stderr, "error: %s\n", P.error().str().c_str());
      return 1;
    }
    std::vector<interp::CpsInitialBinding> CInit;
    for (const auto &[Name, Value] : O.Bindings)
      CInit.push_back(
          {L.Ctx.intern(Name), interp::CpsRtValue::number(Value)});
    interp::SyntacticCpsInterp I(Limits);
    if (O.TraceRun)
      I.enableTrace(L.Ctx);
    interp::CpsRunResult R = I.run(*P, CInit);
    if (O.TraceRun)
      for (const std::string &Line : I.trace())
        std::printf("  | %s\n", Line.c_str());
    std::printf("status: %s\n", statusName(R.Status));
    if (R.ok())
      std::printf("value:  %s\n", interp::str(L.Ctx, R.Value).c_str());
    std::printf("steps:  %llu\n", (unsigned long long)R.Steps);
    return R.ok() ? 0 : 1;
  }
  usage("unknown machine");
}

/// Runs `analyze` or `compare` at a fixed numeric domain.
template <typename D> int analyzeAt(const Options &O, Loaded &L) {
  support::TraceSpan BindSpan(L.Trace, "bind");
  std::vector<analysis::DirectBinding<D>> Init;
  for (const auto &[Name, Value] : O.Bindings)
    Init.push_back({L.Ctx.intern(Name),
                    domain::AbsVal<D>::number(D::constant(Value))});
  for (const std::string &Name : O.TopVars)
    Init.push_back(
        {L.Ctx.intern(Name), domain::AbsVal<D>::number(D::top())});
  BindSpan.close();

  Result<cps::CpsProgram> P = [&] {
    support::TraceSpan S(L.Trace, "cps");
    return cps::cpsTransform(L.Ctx, L.Anf);
  }();
  if (!P) {
    std::fprintf(stderr, "error: %s\n", P.error().str().c_str());
    return 1;
  }
  support::TraceSpan CBindSpan(L.Trace, "bind");
  std::vector<analysis::CpsBinding<D>> CInit;
  for (const analysis::DirectBinding<D> &B : Init)
    CInit.push_back({B.Var, analysis::deltaE<D>(B.Value, *P)});

  std::vector<Symbol> Vars = syntax::collectVariables(L.Anf);
  CBindSpan.close();

  // One governed options block shared by every analyzer this command
  // runs; compare's three legs share one absolute deadline.
  analysis::AnalyzerOptions AOpts;
  AOpts.LoopUnroll = O.LoopUnroll;
  AOpts.Governor.MaxStoreBytes = O.MaxStoreMb * 1024 * 1024;
  AOpts.Governor.MaxDepth = O.MaxDepthCap;
  if (O.DeadlineMs > 0)
    AOpts.Governor.deadlineIn(O.DeadlineMs);
  if (O.MaxGoals)
    AOpts.MaxGoals = O.MaxGoals;
  AOpts.UseSummaries = !O.NoSummaries;
  AOpts.Trace = L.Trace;

  // `explain` runs one analyzer with the provenance recorder attached and
  // prints the derivation chain of --var back to the program points that
  // produced (or lost) its value. See docs/EXPLAIN.md.
  if (O.Command == "explain") {
    if (O.Var.empty())
      usage("explain requires --var x");
    domain::Provenance Prov;
    AOpts.Prov = &Prov;

    auto WriteGraph = [&](const domain::VarIndex &VI) {
      if (O.GraphOut.empty())
        return true;
      bool Dot = O.GraphOut.size() >= 4 &&
                 O.GraphOut.compare(O.GraphOut.size() - 4, 4, ".dot") == 0;
      std::ofstream Out(O.GraphOut);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     O.GraphOut.c_str());
        return false;
      }
      Out << (Dot ? clients::provenanceDot(Prov, VI, L.Ctx)
                  : clients::provenanceJson(Prov, VI, L.Ctx))
          << '\n';
      return true;
    };

    auto ExplainLeg = [&](const char *Leg, const auto &A, const auto &R) {
      const domain::VarIndex &VI = *R.Vars;
      std::optional<uint32_t> Slot = VI.tryOf(L.Ctx.intern(O.Var));
      if (!Slot) {
        std::fprintf(stderr,
                     "error: '%s' is not a variable of this program\n",
                     O.Var.c_str());
        return 1;
      }
      domain::StoreId S = Prov.finalStore();
      const auto &In = A.interner();
      std::string Shown = S == domain::NoStore
                              ? std::string("bottom (dead)")
                              : In.get(S, *Slot).str(L.Ctx);
      std::printf("%s: %s = %s\n", Leg, O.Var.c_str(), Shown.c_str());
      std::vector<std::string> Lines =
          clients::explainSlot(Prov, In, VI, L.Ctx, *Slot, S);
      if (Lines.empty())
        std::printf("  (no recorded derivation: the variable keeps its "
                    "initial value)\n");
      for (const std::string &Line : Lines)
        std::printf("  %s\n", Line.c_str());
      if (R.Stats.BudgetExhausted)
        std::printf("  note: this analysis degraded (%s); cut edges above "
                    "may carry that reason\n",
                    support::str(R.Stats.Degraded));
      return WriteGraph(VI) ? 0 : 1;
    };

    if (O.Analyzer == "direct") {
      analysis::DirectAnalyzer<D> A(L.Ctx, L.Anf, Init, AOpts);
      auto R = A.run();
      return ExplainLeg("direct", A, R);
    }
    if (O.Analyzer == "semantic") {
      analysis::SemanticCpsAnalyzer<D> A(L.Ctx, L.Anf, Init, AOpts);
      auto R = A.run();
      return ExplainLeg("semantic", A, R);
    }
    if (O.Analyzer == "syntactic") {
      analysis::SyntacticCpsAnalyzer<D> A(L.Ctx, *P, CInit, AOpts);
      auto R = A.run();
      return ExplainLeg("syntactic", A, R);
    }
    if (O.Analyzer == "dup") {
      analysis::DupAnalyzer<D> A(L.Ctx, L.Anf, Init, O.Budget, AOpts);
      auto R = A.run();
      return ExplainLeg("dup", A, R);
    }
    if (O.Analyzer == "pushdown") {
      analysis::PushdownAnalyzer<D> A(L.Ctx, L.Anf, Init, AOpts);
      auto R = A.run();
      return ExplainLeg("pushdown", A, R);
    }
    usage("unknown analyzer");
  }

  // --metrics: one registry per analyzer leg, rendered as a table after
  // the report. Deque keeps registry addresses stable while legs append.
  std::deque<support::MetricsRegistry> Registries;
  std::vector<std::pair<std::string, const support::MetricsRegistry *>>
      MetricLegs;
  auto legOptions = [&](const char *Leg) {
    analysis::AnalyzerOptions LOpts = AOpts;
    if (O.ShowMetrics) {
      Registries.emplace_back();
      MetricLegs.emplace_back(Leg, &Registries.back());
      LOpts.Metrics = &Registries.back();
    }
    return LOpts;
  };
  auto finishLeg = [&](std::chrono::steady_clock::time_point Start) {
    if (!O.ShowMetrics)
      return;
    Registries.back().set(
        "wallUs",
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Start)
                .count()));
  };
  auto printMetrics = [&] {
    if (!O.ShowMetrics)
      return;
    std::string Table = clients::metricsTable(MetricLegs);
    // With --json, stdout is a JSON document; keep the table on stderr.
    std::fprintf(O.Json ? stderr : stdout, "\nmetrics:\n%s",
                 Table.c_str());
  };

  bool AnyDegraded = false;
  auto Finish = [&](int RC) {
    return (O.FailOnBudget && AnyDegraded && RC == 0) ? 1 : RC;
  };

  // Shared JSON document across Report calls (compare emits several).
  JsonWriter W;
  bool JsonOpen = false;
  auto JsonBegin = [&] {
    if (!O.Json || JsonOpen)
      return;
    W.beginObject();
    W.key("command").value(O.Command.c_str());
    W.key("domain").value(O.Domain.c_str());
    W.key("results").beginArray();
    JsonOpen = true;
  };
  auto JsonEnd = [&](const char *VerdictDvC, const char *VerdictSvD,
                     const char *VerdictPvD = nullptr,
                     const char *VerdictPvC = nullptr) {
    if (!O.Json)
      return 0;
    W.endArray();
    if (VerdictDvC) {
      W.key("direct_vs_syntactic").value(VerdictDvC);
      W.key("semantic_vs_direct").value(VerdictSvD);
    }
    if (VerdictPvD) {
      W.key("pushdown_vs_direct").value(VerdictPvD);
      W.key("pushdown_vs_syntactic").value(VerdictPvC);
    }
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return 0;
  };

  auto Report = [&](const char *RawName, const auto &R) {
    support::TraceSpan S(L.Trace, "report");
    AnyDegraded |= R.Stats.BudgetExhausted;
    std::string Padded = RawName;
    Padded.resize(9, ' ');
    const char *Name = Padded.c_str();
    if (O.Json) {
      Name = RawName;
      JsonBegin();
      W.beginObject();
      W.key("analyzer").value(Name);
      W.key("answer").value(R.Answer.Value.str(L.Ctx));
      W.key("stats").beginObject();
      W.key("goals").value(R.Stats.Goals);
      W.key("cacheHits").value(R.Stats.CacheHits);
      W.key("cuts").value(R.Stats.Cuts);
      W.key("maxDepth").value(R.Stats.MaxDepth);
      W.key("deadPaths").value(R.Stats.DeadPaths);
      W.key("prunedBranches").value(R.Stats.PrunedBranches);
      W.key("budgetExhausted").value(R.Stats.BudgetExhausted);
      W.key("degradeReason").value(support::str(R.Stats.Degraded));
      W.key("loopBounded").value(R.Stats.LoopBounded);
      W.endObject();
      if (O.ShowStore) {
        W.key("store").beginObject();
        for (Symbol X : Vars)
          W.key(std::string(L.Ctx.spelling(X)))
              .value(R.valueOf(X).str(L.Ctx));
        W.endObject();
      }
      W.endObject();
      return;
    }
    std::printf("%s answer: %s\n", Name, R.Answer.Value.str(L.Ctx).c_str());
    std::printf("%s stats:  %s\n", Name,
                clients::describeStats(R.Stats).c_str());
    if (O.ShowStore)
      std::printf("%s store:\n%s", Name,
                  clients::describeVars(L.Ctx, R, Vars).c_str());
    if (O.ShowCfg)
      std::printf("%s cfg:\n%s", Name,
                  clients::describeCfg(L.Ctx, R.Cfg).c_str());
  };

  if (O.Command == "compare") {
    // Each leg records provenance so disagreements can be attributed to
    // the first precision-loss edge on the variable's derivation chain
    // (the Theorem 5.1/5.2 narratives; docs/EXPLAIN.md). The analyzers
    // outlive the reports because loss attribution reads their interners.
    domain::Provenance DProv, SProv, CProv;
    auto DOpts = legOptions("direct");
    DOpts.Prov = &DProv;
    analysis::DirectAnalyzer<D> DA(L.Ctx, L.Anf, Init, DOpts);
    auto T0 = std::chrono::steady_clock::now();
    auto AD = [&] {
      support::TraceSpan S(L.Trace, "analyze:direct");
      return DA.run();
    }();
    finishLeg(T0);
    auto SOpts = legOptions("semantic");
    SOpts.Prov = &SProv;
    analysis::SemanticCpsAnalyzer<D> SA(L.Ctx, L.Anf, Init, SOpts);
    auto T1 = std::chrono::steady_clock::now();
    auto AS = [&] {
      support::TraceSpan S(L.Trace, "analyze:semantic");
      return SA.run();
    }();
    finishLeg(T1);
    auto COpts = legOptions("syntactic");
    COpts.Prov = &CProv;
    analysis::SyntacticCpsAnalyzer<D> CA(L.Ctx, *P, CInit, COpts);
    auto T2 = std::chrono::steady_clock::now();
    auto AC = [&] {
      support::TraceSpan S(L.Trace, "analyze:syntactic");
      return CA.run();
    }();
    finishLeg(T2);
    // `compare --analyzer pushdown` adds the fifth leg and its verdicts
    // against direct (equal on merge-free programs like the Theorem 5.1
    // witness) and against syntactic (never RightMorePrecise).
    domain::Provenance PProv;
    std::optional<analysis::PushdownAnalyzer<D>> PA;
    std::optional<analysis::PushdownResult<D>> APd;
    if (O.Analyzer == "pushdown") {
      auto POpts = legOptions("pushdown");
      POpts.Prov = &PProv;
      PA.emplace(L.Ctx, L.Anf, Init, POpts);
      auto T3 = std::chrono::steady_clock::now();
      APd = [&] {
        support::TraceSpan S(L.Trace, "analyze:pushdown");
        return PA->run();
      }();
      finishLeg(T3);
    }
    Report("direct", AD);
    Report("semantic", AS);
    Report("syntactic", AC);
    if (APd)
      Report("pushdown", *APd);

    // The first loss edge on a leg's derivation chain for \p Var, as a
    // printable note — empty when the chain is pure flow (that leg did
    // not lose anything; the other one did).
    auto LossNote = [&](const domain::Provenance &Prov, const auto &A,
                        const auto &R, Symbol Var) -> std::string {
      std::optional<uint32_t> Slot = R.Vars->tryOf(Var);
      if (!Slot)
        return {};
      domain::ProvId Eid = clients::firstLossEdge(
          Prov, A.interner(), *Slot, Prov.finalStore());
      if (Eid == domain::NoProv)
        return {};
      const domain::ProvEdge &E = Prov.edge(Eid);
      std::string Where = E.Loc.isValid()
                              ? E.Loc.str()
                              : "node " + std::to_string(E.NodeId);
      return std::string(domain::str(E.Kind)) + " at " + Where;
    };
    auto PrintLoss = [&](const char *Leg, std::string Note) {
      if (!Note.empty())
        std::printf("      %s first loses precision via %s\n", Leg,
                    Note.c_str());
    };

    support::TraceSpan VS(L.Trace, "report");
    analysis::Comparison DvC = analysis::compareWithSyntactic<D>(
        L.Ctx, AD, AC, *P, Vars);
    analysis::Comparison SvD =
        analysis::compareDirectWorld<D>(L.Ctx, AS, AD, Vars);
    std::optional<analysis::Comparison> PvD, PvC;
    if (APd) {
      PvD = analysis::compareDirectWorld<D>(L.Ctx, *APd, AD, Vars);
      PvC = analysis::compareWithSyntactic<D>(L.Ctx, *APd, AC, *P, Vars);
    }
    if (O.Json) {
      int RC = Finish(JsonEnd(str(DvC.Overall), str(SvD.Overall),
                              PvD ? str(PvD->Overall) : nullptr,
                              PvC ? str(PvC->Overall) : nullptr));
      printMetrics();
      return RC;
    }
    std::printf("\ndirect vs syntactic-CPS: %s\n", str(DvC.Overall));
    std::printf("semantic vs direct:      %s\n", str(SvD.Overall));
    if (PvD) {
      std::printf("pushdown vs direct:      %s\n", str(PvD->Overall));
      std::printf("pushdown vs syntactic:   %s\n", str(PvC->Overall));
    }
    for (const analysis::VarComparison &VC : DvC.Vars)
      if (VC.Order != analysis::PrecisionOrder::Equal) {
        std::printf("  %s: direct %s vs cps %s (%s)\n",
                    std::string(L.Ctx.spelling(VC.Var)).c_str(),
                    VC.Left.c_str(), VC.Right.c_str(), str(VC.Order));
        PrintLoss("direct", LossNote(DProv, DA, AD, VC.Var));
        PrintLoss("syntactic", LossNote(CProv, CA, AC, VC.Var));
      }
    for (const analysis::VarComparison &VC : SvD.Vars)
      if (VC.Order != analysis::PrecisionOrder::Equal) {
        std::printf("  %s: semantic %s vs direct %s (%s)\n",
                    std::string(L.Ctx.spelling(VC.Var)).c_str(),
                    VC.Left.c_str(), VC.Right.c_str(), str(VC.Order));
        PrintLoss("semantic", LossNote(SProv, SA, AS, VC.Var));
        PrintLoss("direct", LossNote(DProv, DA, AD, VC.Var));
      }
    if (PvD)
      for (const analysis::VarComparison &VC : PvD->Vars)
        if (VC.Order != analysis::PrecisionOrder::Equal) {
          std::printf("  %s: pushdown %s vs direct %s (%s)\n",
                      std::string(L.Ctx.spelling(VC.Var)).c_str(),
                      VC.Left.c_str(), VC.Right.c_str(), str(VC.Order));
          PrintLoss("pushdown", LossNote(PProv, *PA, *APd, VC.Var));
          PrintLoss("direct", LossNote(DProv, DA, AD, VC.Var));
        }
    printMetrics();
    return Finish(0);
  }

  if (O.Analyzer == "direct") {
    std::vector<std::string> Derivation;
    auto LOpts = legOptions("direct");
    if (O.ShowDerivation)
      LOpts.DerivationSink = &Derivation;
    auto T0 = std::chrono::steady_clock::now();
    auto R = [&] {
      support::TraceSpan S(L.Trace, "analyze:direct");
      return analysis::DirectAnalyzer<D>(L.Ctx, L.Anf, Init, LOpts).run();
    }();
    finishLeg(T0);
    if (O.ShowDerivation && !O.Json) {
      std::printf("derivation (Figure 4 style, goal |- answer):\n");
      for (const std::string &Line : Derivation)
        std::printf("  %s\n", Line.c_str());
    }
    Report("direct", R);
  } else if (O.Analyzer == "semantic") {
    auto LOpts = legOptions("semantic");
    auto T0 = std::chrono::steady_clock::now();
    auto R = [&] {
      support::TraceSpan S(L.Trace, "analyze:semantic");
      return analysis::SemanticCpsAnalyzer<D>(L.Ctx, L.Anf, Init, LOpts)
          .run();
    }();
    finishLeg(T0);
    Report("semantic", R);
  } else if (O.Analyzer == "syntactic") {
    auto LOpts = legOptions("syntactic");
    auto T0 = std::chrono::steady_clock::now();
    auto R = [&] {
      support::TraceSpan S(L.Trace, "analyze:syntactic");
      return analysis::SyntacticCpsAnalyzer<D>(L.Ctx, *P, CInit, LOpts)
          .run();
    }();
    finishLeg(T0);
    Report("syntactic", R);
  } else if (O.Analyzer == "dup") {
    auto LOpts = legOptions("dup");
    auto T0 = std::chrono::steady_clock::now();
    auto R = [&] {
      support::TraceSpan S(L.Trace, "analyze:dup");
      return analysis::DupAnalyzer<D>(L.Ctx, L.Anf, Init, O.Budget, LOpts)
          .run();
    }();
    finishLeg(T0);
    Report("dup", R);
  } else if (O.Analyzer == "pushdown") {
    std::vector<std::string> Derivation;
    auto LOpts = legOptions("pushdown");
    if (O.ShowDerivation)
      LOpts.DerivationSink = &Derivation;
    auto T0 = std::chrono::steady_clock::now();
    auto R = [&] {
      support::TraceSpan S(L.Trace, "analyze:pushdown");
      return analysis::PushdownAnalyzer<D>(L.Ctx, L.Anf, Init, LOpts).run();
    }();
    finishLeg(T0);
    if (O.ShowDerivation && !O.Json) {
      std::printf("derivation (pushdown summaries, goal |- paths):\n");
      for (const std::string &Line : Derivation)
        std::printf("  %s\n", Line.c_str());
    }
    Report("pushdown", R);
  } else {
    usage("unknown analyzer");
  }
  int RC = O.Json ? Finish(JsonEnd(nullptr, nullptr)) : Finish(0);
  printMetrics();
  return RC;
}

int cmdAnalyze(const Options &O) {
  support::Tracer T;
  Loaded L;
  if (!O.TraceOut.empty())
    L.Trace = &T;
  int RC = [&] {
    // One "total" span brackets the whole pipeline so phase coverage is
    // auditable (the phase spans should tile nearly all of it).
    support::TraceSpan Total(L.Trace, "total");
    L.load(O);
    if (O.Domain == "constant")
      return analyzeAt<domain::ConstantDomain>(O, L);
    if (O.Domain == "unit")
      return analyzeAt<domain::UnitDomain>(O, L);
    if (O.Domain == "sign")
      return analyzeAt<domain::SignDomain>(O, L);
    if (O.Domain == "parity")
      return analyzeAt<domain::ParityDomain>(O, L);
    if (O.Domain == "interval")
      return analyzeAt<domain::IntervalDomain>(O, L);
    usage("unknown domain");
  }();
  if (L.Trace && !writeTraceFile(O, T))
    return 1;
  return RC;
}

// Process-wide signal state for the long-running commands (batch, fuzz,
// serve). The handler touches only async-signal-safe state: a lock-free
// atomic flag plus the lock-free CancelToken registered before the
// handler was installed. Analyses see the token through the governor's
// periodic probe and degrade via the Section 4.4 cut path, so the report
// that follows an interrupt is valid JSON over sound partial results.
std::atomic<int> GSignal{0};
support::CancelToken *GInterrupt = nullptr;

/// Installs SIGINT/SIGTERM handlers. The returned token is anchored in a
/// function-local static, so the handler's raw pointer outlives every
/// command that runs after installation.
std::shared_ptr<support::CancelToken> installInterruptHandlers() {
  static std::shared_ptr<support::CancelToken> Tok =
      std::make_shared<support::CancelToken>();
  GInterrupt = Tok.get();
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = [](int Sig) {
    GSignal.store(Sig);
    if (GInterrupt)
      GInterrupt->cancel();
  };
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = SA_RESTART;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
  return Tok;
}

/// 130 for SIGINT, 143 for SIGTERM — the conventional 128+signal codes,
/// emitted after the partial report has been flushed.
int interruptExitCode() {
  int Sig = GSignal.load();
  return 128 + (Sig ? Sig : SIGINT);
}

serve::FlightRecorder *GFlight = nullptr;
char GFlightCrashPath[512] = {};

/// Installs best-effort fatal-signal handlers (SIGSEGV/SIGBUS/SIGABRT)
/// that spill the flight recorder before the process dies, so even a
/// crash leaves a post-mortem naming the requests in flight. fatalDump
/// is written for this context: try_lock, pre-rendered records, raw
/// write+rename, checksummed frame so a torn dump is detectable.
/// SA_RESETHAND restores the default action, and the handler re-raises,
/// so the process still dies with the original signal disposition.
void installFatalDumpHandlers(serve::FlightRecorder *Flight,
                              const std::string &CrashPath) {
  GFlight = Flight;
  std::snprintf(GFlightCrashPath, sizeof(GFlightCrashPath), "%s",
                CrashPath.c_str());
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = [](int Sig) {
    if (GFlight)
      GFlight->fatalDump(GFlightCrashPath);
    ::raise(Sig);
  };
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = SA_RESETHAND;
  sigaction(SIGSEGV, &SA, nullptr);
  sigaction(SIGBUS, &SA, nullptr);
  sigaction(SIGABRT, &SA, nullptr);
}

int cmdBatch(const Options &O) {
  // O.File is a corpus directory here, not a single program.
  Result<std::vector<std::string>> Files = clients::collectCorpus(O.File);
  if (!Files) {
    std::fprintf(stderr, "error: %s\n", Files.error().str().c_str());
    return 1;
  }
  if (Files->empty()) {
    std::fprintf(stderr, "error: no *.scm programs under '%s'\n",
                 O.File.c_str());
    return 1;
  }
  clients::BatchOptions BOpts;
  BOpts.Threads = O.Threads;
  BOpts.Domain = O.Domain;
  BOpts.DupBudget = O.Budget;
  BOpts.MaxGoals = O.MaxGoals ? O.MaxGoals : 5'000'000;
  BOpts.LoopUnroll = O.LoopUnroll;
  BOpts.DeadlineMs = O.DeadlineMs;
  BOpts.MaxStoreBytes = O.MaxStoreMb * 1024 * 1024;
  BOpts.MaxDepth = O.MaxDepthCap;
  BOpts.FailOnBudget = O.FailOnBudget;
  BOpts.Retry = O.Retry;
  BOpts.UseSummaries = !O.NoSummaries;
  BOpts.IncludeTiming = !O.NoTiming;
  BOpts.Interrupt = installInterruptHandlers();
  support::Tracer T;
  if (!O.TraceOut.empty())
    BOpts.Trace = &T;
  clients::BatchResult R = clients::runBatchFiles(*Files, BOpts);
  if (BOpts.Trace && !writeTraceFile(O, T))
    return 1;
  std::string Json = clients::batchJson(R, BOpts);
  if (!O.OutFile.empty()) {
    std::ofstream Out(O.OutFile);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", O.OutFile.c_str());
      return 1;
    }
    Out << Json << '\n';
  } else {
    std::printf("%s\n", Json.c_str());
  }
  uint64_t Failures = 0;
  for (const clients::BatchProgramResult &P : R.Programs)
    if (!P.Ok) {
      ++Failures;
      std::fprintf(stderr, "warning: %s: [%s] %s\n", P.Name.c_str(),
                   clients::str(P.Kind), P.Error.c_str());
    }
  // The report above is complete and valid even after an interrupt
  // (degraded/skipped programs are ordinary records); the exit code is
  // what tells callers the run was cut short.
  if (R.Interrupted) {
    std::fprintf(stderr, "interrupted: partial report flushed\n");
    return interruptExitCode();
  }
  // Failures are contained per-program records by design; only strict
  // mode turns them into a failing exit.
  return (O.FailOnBudget && Failures) ? 1 : 0;
}

/// Builds the oracle knobs shared by `fuzz` campaigns and --replay.
Result<fuzz::OracleOptions> fuzzOracleOptions(const Options &O) {
  fuzz::OracleOptions OOpts;
  OOpts.Domain = O.Domain;
  if (!O.OracleList.empty()) {
    Result<uint32_t> Mask = fuzz::parseOracleMask(O.OracleList);
    if (!Mask)
      return Mask.error();
    OOpts.Mask = *Mask;
  }
  if (O.MaxGoals)
    OOpts.MaxGoals = O.MaxGoals;
  OOpts.MaxSteps = O.Fuel;
  OOpts.LoopUnroll = O.LoopUnroll;
  OOpts.DupBudget = O.Budget;
  OOpts.DeadlineMs = O.DeadlineMs;
  OOpts.MaxStoreBytes = O.MaxStoreMb * 1024 * 1024;
  OOpts.MaxDepth = O.MaxDepthCap;
  return OOpts;
}

int cmdFuzz(const Options &O) {
  Result<fuzz::OracleOptions> OOpts = fuzzOracleOptions(O);
  if (!OOpts) {
    std::fprintf(stderr, "error: %s\n", OOpts.error().str().c_str());
    return 2;
  }

#ifdef CPSFLOW_FAULT_INJECTION
  // CPSFLOW_FUZZ_INJECT=<oracle tag> forces a violation at that oracle's
  // fault site — the end-to-end canary for detect -> shrink -> replay
  // ("" or "all" trips every oracle).
  if (const char *Inject = std::getenv("CPSFLOW_FUZZ_INJECT")) {
    fault::Plan P;
    P.Where = fault::Site::FuzzOracle;
    P.What = fault::Action::Throw;
    if (std::strcmp(Inject, "all") != 0)
      P.Name = Inject;
    fault::arm(P);
  }
#endif

  if (!O.ReplayFile.empty()) {
    Result<fuzz::OracleOutcome> Out =
        fuzz::replaySource(readInput(O.ReplayFile), *OOpts);
    if (!Out) {
      std::fprintf(stderr, "error: %s\n", Out.error().str().c_str());
      return 1;
    }
    for (const fuzz::OracleViolation &V : Out->Violations)
      std::printf("[%s] %s\n", fuzz::tag(V.Id), V.Message.c_str());
    if (Out->Violations.empty()) {
      std::printf("clean: no enabled oracle is violated\n");
      return 0;
    }
    return 1;
  }

  // The optional positional is a seed corpus directory for the mutator.
  std::vector<std::pair<std::string, std::string>> Seeds;
  if (!O.File.empty()) {
    Result<std::vector<std::string>> Files = clients::collectCorpus(O.File);
    if (!Files) {
      std::fprintf(stderr, "error: %s\n", Files.error().str().c_str());
      return 1;
    }
    for (const std::string &Path : *Files)
      Seeds.emplace_back(std::filesystem::path(Path).filename().string(),
                         readInput(Path));
  }

  fuzz::CampaignOptions COpts;
  COpts.FuzzSeed = O.FuzzSeed;
  COpts.Threads = O.Threads;
  COpts.Iterations = O.Iterations;
  COpts.Seconds = O.Seconds;
  COpts.Wave = O.Wave;
  COpts.MaxFindings = O.MaxFindings;
  COpts.Shrink = !O.NoShrink;
  COpts.Oracle = *OOpts;
  COpts.Oracle.Interrupt = installInterruptHandlers();
  COpts.IncludeTiming = !O.NoTiming;
  support::Tracer T;
  if (!O.TraceOut.empty())
    COpts.Trace = &T;

  fuzz::CampaignResult R = fuzz::runCampaign(COpts, Seeds);
  if (COpts.Trace && !writeTraceFile(O, T))
    return 1;

  std::string Json = fuzz::campaignJson(R, COpts);
  if (!O.OutFile.empty()) {
    std::ofstream Out(O.OutFile);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", O.OutFile.c_str());
      return 1;
    }
    Out << Json << '\n';
  } else {
    std::printf("%s\n", Json.c_str());
  }

  if (!O.FindingsDir.empty()) {
    Result<size_t> N = fuzz::writeFindings(O.FindingsDir, R, COpts);
    if (!N) {
      std::fprintf(stderr, "error: %s\n", N.error().str().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu file(s) under %s\n", *N,
                 O.FindingsDir.c_str());
  }

  std::fprintf(stderr, "%s", fuzz::campaignSummary(R, COpts).c_str());
  if (R.Interrupted) {
    std::fprintf(stderr, "interrupted: partial report flushed\n");
    return interruptExitCode();
  }
  return R.Findings.empty() ? 0 : 1;
}

int cmdServe(const Options &O) {
  if (O.ServeSocket.empty())
    usage("serve requires --socket PATH");

#ifdef CPSFLOW_FAULT_INJECTION
  // CPSFLOW_SERVE_INJECT=SPEC[,SPEC...] arms serve-layer faults for soak
  // runs, the serving analogue of CPSFLOW_FUZZ_INJECT. Each SPEC is
  // worker | handler | memory | stall (optionally :N = every Nth
  // request; default every 3rd) or tear (every cache entry write is
  // torn). The soak test's claim is that none of these ever kills the
  // process or wedges a worker — only per-request structured errors.
  if (const char *Inject = std::getenv("CPSFLOW_SERVE_INJECT")) {
    std::stringstream Specs(Inject);
    std::string Spec;
    while (std::getline(Specs, Spec, ',')) {
      if (Spec.empty())
        continue;
      uint64_t Every = 3;
      size_t Colon = Spec.find(':');
      if (Colon != std::string::npos) {
        Every = flagUint("CPSFLOW_SERVE_INJECT", Spec.c_str() + Colon + 1,
                         /*Max=*/uint64_t{1} << 32);
        Spec.resize(Colon);
      }
      fault::Plan P;
      P.AtCount = 0;
      P.Every = Every;
      if (Spec == "worker") {
        P.Where = fault::Site::ServeWorker;
        P.What = fault::Action::Throw;
      } else if (Spec == "handler") {
        P.Where = fault::Site::ServeHandler;
        P.What = fault::Action::Throw;
      } else if (Spec == "memory") {
        P.Where = fault::Site::ServeWorker;
        P.What = fault::Action::BadAlloc;
      } else if (Spec == "stall") {
        P.Where = fault::Site::ServeHandler;
        P.What = fault::Action::Stall;
        P.StallMs = 200;
      } else if (Spec == "tear") {
        P.Where = fault::Site::CacheWrite;
        P.What = fault::Action::Tear;
      } else {
        std::fprintf(stderr,
                     "error: CPSFLOW_SERVE_INJECT: unknown spec '%s'\n",
                     Spec.c_str());
        return 2;
      }
      fault::arm(P);
    }
  }
#endif

  serve::ServeOptions SOpts;
  SOpts.SocketPath = O.ServeSocket;
  SOpts.Workers = O.ServeWorkers;
  SOpts.QueueCap = static_cast<size_t>(O.QueueCap);
  SOpts.CacheDir = O.CacheDir;
  SOpts.DrainGraceMs = O.DrainGraceMs;
  SOpts.LogPath = O.LogOut;
  SOpts.LogRotateBytes = O.LogRotateMb * 1024 * 1024;
  SOpts.FlightRecords = static_cast<size_t>(O.FlightRecords);
  SOpts.FlightDumpPath = O.FlightDump;
  SOpts.TraceSlowMs = O.TraceSlowMs;
  SOpts.TraceDir = O.TraceDir;
  SOpts.TraceSlowMax = O.TraceSlowMax;
  if (O.MaxGoals)
    SOpts.Defaults.MaxGoals = O.MaxGoals;
  if (O.DeadlineMs > 0)
    SOpts.Defaults.DeadlineMs = O.DeadlineMs;
  if (O.MaxStoreMb)
    SOpts.Defaults.MaxStoreBytes = O.MaxStoreMb * 1024 * 1024;
  if (O.MaxDepthCap)
    SOpts.Defaults.MaxDepth = O.MaxDepthCap;

  serve::Server S(SOpts);
  Result<bool> Started = S.start();
  if (!Started) {
    std::fprintf(stderr, "error: %s\n", Started.error().str().c_str());
    return 1;
  }
  // Handlers only set the flag this loop polls: requestDrain() takes
  // locks, so it must not run inside the handler itself.
  installInterruptHandlers();
  if (S.flight())
    installFatalDumpHandlers(S.flight(),
                             S.options().FlightDumpPath + ".crash");
  std::fprintf(stderr,
               "cpsflow serve: listening on %s (%u workers, queue cap "
               "%zu, cache %s)\n",
               O.ServeSocket.c_str(), SOpts.Workers, SOpts.QueueCap,
               O.CacheDir.empty() ? "off" : O.CacheDir.c_str());
  while (GSignal.load() == 0 && !S.draining())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::fprintf(stderr, "cpsflow serve: draining\n");
  S.requestDrain();
  S.waitDrained();
  std::fprintf(stderr, "cpsflow serve: drained, exiting\n");
  // A signal-initiated exit reports 128+sig; a shutdown op is a clean 0.
  return GSignal.load() ? interruptExitCode() : 0;
}

int cmdVersion() {
  std::printf("cpsflow — direct vs CPS data-flow analysis testbed\n");
  std::printf("build configuration:\n");
#ifdef NDEBUG
  std::printf("  assertions:       off\n");
#else
  std::printf("  assertions:       on\n");
#endif
#ifdef CPSFLOW_FAULT_INJECTION
  std::printf("  fault injection:  available\n");
#else
  std::printf("  fault injection:  unavailable\n");
#endif
#ifdef __VERSION__
  std::printf("  compiler:         %s\n", __VERSION__);
#endif
  std::printf("JSON schema versions this binary emits:\n");
  std::printf("  batch report (batch --out):       %d\n",
              clients::BatchSchemaVersion);
  std::printf("  fuzz findings (fuzz):             %d\n",
              fuzz::FindingsSchemaVersion);
  std::printf("  provenance graph (explain --graph-out): %d\n",
              clients::ProvenanceGraphSchemaVersion);
  std::printf("  serve request log (serve --log-out):    %d\n",
              serve::RequestLogSchemaVersion);
  std::printf("  serve flight recorder (dump frames):    %d\n",
              serve::FlightRecorderSchemaVersion);
  return 0;
}

int cmdInline(const Options &O) {
  Loaded L;
  L.load(O);
  clients::InlineResult R = clients::inlineCalls(L.Ctx, L.Anf);
  std::printf("%s\n", syntax::printIndented(L.Ctx, R.Inlined).c_str());
  std::fprintf(stderr, "; inlined %zu calls in %u passes\n",
               R.InlinedCalls, R.Passes);
  return 0;
}

int cmdFold(const Options &O) {
  Loaded L;
  L.load(O);
  auto R = analysis::DirectAnalyzer<domain::ConstantDomain>(L.Ctx, L.Anf)
               .run();
  clients::FoldResult F = clients::constantFold(L.Ctx, L.Anf, R);
  std::printf("%s\n", syntax::printIndented(L.Ctx, F.Folded).c_str());
  std::fprintf(stderr, "; folded %zu applications, removed %zu branches\n",
               F.FoldedApps, F.ElimBranches);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (O.Command == "parse")
    return cmdParse(O);
  if (O.Command == "anf")
    return cmdAnf(O);
  if (O.Command == "steps")
    return cmdSteps(O);
  if (O.Command == "cps")
    return cmdCps(O);
  if (O.Command == "run")
    return cmdRun(O);
  if (O.Command == "analyze" || O.Command == "compare" ||
      O.Command == "explain")
    return cmdAnalyze(O);
  if (O.Command == "version")
    return cmdVersion();
  if (O.Command == "fold")
    return cmdFold(O);
  if (O.Command == "inline")
    return cmdInline(O);
  if (O.Command == "batch")
    return cmdBatch(O);
  if (O.Command == "fuzz")
    return cmdFuzz(O);
  if (O.Command == "serve")
    return cmdServe(O);
  usage(("unknown command '" + O.Command + "'").c_str());
}
