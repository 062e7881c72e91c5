//===- tools/loadgen.cpp - Concurrent load driver for cpsflow serve -------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a corpus directory of *.scm programs against a running
/// `cpsflow serve` daemon at N concurrent clients and reports what the
/// service did with the load:
///
///   loadgen SOCKET DIR [--clients N] [--iterations K] [--analyzer A]
///           [--domain D] [--verify] [--out FILE]
///
/// Each client opens one connection and issues K requests sequentially
/// (request i of client c targets program (c*31+i) mod |corpus|, so
/// clients interleave the corpus instead of marching in lockstep).
/// Every response is parsed and classified: ok, ok-degraded, cached,
/// shed, or error-by-kind. The report is bench_diff-compatible — a
/// "programs" array carrying the per-leg work counters from each
/// program's first clean response — plus a "loadgen" section with
/// latency percentiles, shed/error/degraded counts, and the cache hit
/// rate. With --verify every clean response's answer is checked against
/// a fresh in-process analysis of the same program; a mismatch is an
/// unsound response and a failing exit.
///
/// Exit codes: 0 success; 1 transport failure, a response that is not
/// valid protocol JSON, or an unsound answer under --verify; 2 usage.
///
//===----------------------------------------------------------------------===//

#include "serve/Analyze.h"
#include "serve/Protocol.h"
#include "support/JsonParse.h"
#include "support/ParseNum.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace cpsflow;

namespace {

struct Options {
  std::string Socket;
  std::string Dir;
  unsigned Clients = 4;
  uint64_t Iterations = 0; ///< requests per client; 0 = one corpus pass
  std::string Analyzer = "direct";
  std::string Domain = "constant";
  bool Verify = false;
  std::string OutFile;
  /// Scrape mode: fetch the metrics op in both formats, validate the
  /// Prometheus exposition, and check the counter-consistency invariant.
  bool Scrape = false;
  /// Scrape: require admitted == responded + shed + failed exactly
  /// (valid only once every issued request has been answered); default
  /// checks the always-true mid-run direction, admitted >= sum.
  bool StrictInvariant = false;
};

[[noreturn]] void usage(const char *Message = nullptr) {
  if (Message)
    std::fprintf(stderr, "loadgen: %s\n", Message);
  std::fprintf(stderr,
               "usage: loadgen SOCKET DIR [--clients N] [--iterations K]\n"
               "               [--analyzer direct|semantic|syntactic|dup|"
               "pushdown]\n"
               "               [--domain constant|unit|sign|parity|interval]\n"
               "               [--verify] [--out FILE]\n"
               "       loadgen SOCKET --scrape [--strict-invariant] "
               "[--out FILE]\n"
               "--scrape fetches the metrics op (Prometheus + JSON),\n"
               "validates the exposition, and fails unless admitted >=\n"
               "responded + shed + failed (== with --strict-invariant)\n");
  std::exit(2);
}

uint64_t flagUint(const char *Flag, const char *Text) {
  Result<uint64_t> R = support::parseUint(Text, /*Max=*/uint64_t{1} << 32);
  if (!R)
    usage((std::string(Flag) + ": " + R.error().str()).c_str());
  return *R;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  std::vector<std::string> Positional;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--clients" && I + 1 < Argc) {
      O.Clients = static_cast<unsigned>(flagUint("--clients", Argv[++I]));
      if (O.Clients == 0)
        usage("--clients: need at least 1");
    } else if (A == "--iterations" && I + 1 < Argc) {
      O.Iterations = flagUint("--iterations", Argv[++I]);
    } else if (A == "--analyzer" && I + 1 < Argc) {
      O.Analyzer = Argv[++I];
    } else if (A == "--domain" && I + 1 < Argc) {
      O.Domain = Argv[++I];
    } else if (A == "--verify") {
      O.Verify = true;
    } else if (A == "--scrape") {
      O.Scrape = true;
    } else if (A == "--strict-invariant") {
      O.StrictInvariant = true;
    } else if (A == "--out" && I + 1 < Argc) {
      O.OutFile = Argv[++I];
    } else if (A == "--help" || A == "-h") {
      usage();
    } else if (!A.empty() && A[0] == '-') {
      usage(("unknown flag '" + A + "'").c_str());
    } else {
      Positional.push_back(A);
    }
  }
  if (O.Scrape) {
    if (Positional.size() != 1)
      usage("--scrape takes just the SOCKET positional");
    O.Socket = Positional[0];
    return O;
  }
  if (Positional.size() != 2)
    usage("expected SOCKET and DIR positionals");
  O.Socket = Positional[0];
  O.Dir = Positional[1];
  return O;
}

struct Program {
  std::string Name;
  std::string Source;
};

std::vector<Program> loadCorpus(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<Program> Out;
  std::error_code Ec;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec)) {
    if (!E.is_regular_file() || E.path().extension() != ".scm")
      continue;
    std::ifstream In(E.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out.push_back({E.path().filename().string(), Buf.str()});
  }
  if (Ec)
    usage(("cannot read corpus directory '" + Dir + "'").c_str());
  std::sort(Out.begin(), Out.end(),
            [](const Program &A, const Program &B) { return A.Name < B.Name; });
  return Out;
}

/// One blocking request/response client over the daemon's line protocol.
class Client {
public:
  /// Retries for up to ~2s: the daemon creates the socket file on bind
  /// but only accepts after listen, so a driver that starts the daemon
  /// and immediately connects can land in that window (ECONNREFUSED),
  /// or race the file itself (ENOENT). Only a persistent failure is a
  /// transport failure.
  bool connectTo(const std::string &Path) {
    for (int Attempt = 0; Attempt < 40; ++Attempt) {
      if (Attempt)
        ::usleep(50 * 1000);
      if (Fd >= 0)
        ::close(Fd);
      Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd < 0)
        return false;
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      if (Path.size() >= sizeof(Addr.sun_path))
        return false;
      std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                    sizeof(Addr)) == 0)
        return true;
      if (errno != ECONNREFUSED && errno != ENOENT)
        return false;
    }
    return false;
  }

  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Sends \p Line (newline appended) and blocks for one response line.
  /// Empty return = transport failure.
  std::string roundTrip(const std::string &Line) {
    std::string Out = Line;
    Out.push_back('\n');
    size_t Sent = 0;
    while (Sent < Out.size()) {
      ssize_t N = ::send(Fd, Out.data() + Sent, Out.size() - Sent,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return {};
      Sent += static_cast<size_t>(N);
    }
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Response = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Response;
      }
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return {};
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// JSON-escapes \p S for embedding in a request line.
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Hex[8];
        std::snprintf(Hex, sizeof(Hex), "\\u%04x", C);
        Out += Hex;
      } else {
        Out.push_back(C);
      }
    }
  }
  Out.push_back('"');
  return Out;
}

/// What one client observed; merged under a mutex at the end.
struct Tally {
  uint64_t Requests = 0;
  uint64_t Ok = 0;
  uint64_t Cached = 0;
  uint64_t Degraded = 0;
  uint64_t Shed = 0;
  std::map<std::string, uint64_t> Errors; ///< by taxonomy kind
  std::vector<double> LatencyUs;
  uint64_t Transport = 0; ///< dead connections / invalid response JSON
  uint64_t Unsound = 0;   ///< --verify mismatches
  /// First clean (ok, uncached-or-cached, non-degraded) stats payload
  /// per program name, for the bench_diff "programs" array.
  std::map<std::string, std::string> CleanStats;
  /// First clean answer per program, for cold-vs-cached identity checks.
  std::map<std::string, std::string> Answers;
};

/// The work-counter keys bench_diff sums per leg.
const char *const BenchCounters[] = {"goals",      "cacheHits",  "cuts",
                                     "joins",      "callMerges", "summaryHits",
                                     "summaryMisses"};

void runClient(const Options &O, const std::vector<Program> &Corpus,
               unsigned Id, uint64_t Requests, Tally &T) {
  Client C;
  if (!C.connectTo(O.Socket)) {
    ++T.Transport;
    return;
  }
  for (uint64_t I = 0; I < Requests; ++I) {
    const Program &P = Corpus[(Id * 31 + I) % Corpus.size()];
    std::string Req = "{\"op\":\"analyze\",\"id\":" + std::to_string(I) +
                      ",\"program\":" + quoted(P.Source) +
                      ",\"analyzer\":" + quoted(O.Analyzer) +
                      ",\"domain\":" + quoted(O.Domain) + "}";
    auto Start = std::chrono::steady_clock::now();
    std::string Line = C.roundTrip(Req);
    double Us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    ++T.Requests;
    if (Line.empty()) {
      ++T.Transport;
      return; // the connection is dead; this client is done
    }
    Result<JsonValue> Doc = parseJson(Line);
    if (!Doc || !Doc->isObject()) {
      ++T.Transport;
      continue;
    }
    T.LatencyUs.push_back(Us);
    const JsonValue *Ok = Doc->find("ok");
    if (Ok && Ok->asBool()) {
      ++T.Ok;
      if (const JsonValue *Cached = Doc->find("cached"))
        if (Cached->asBool())
          ++T.Cached;
      const JsonValue *R = Doc->find("result");
      const JsonValue *Stats = R ? R->find("stats") : nullptr;
      const JsonValue *Exhausted =
          Stats ? Stats->find("budgetExhausted") : nullptr;
      const JsonValue *Reason = Stats ? Stats->find("degradeReason") : nullptr;
      bool Degraded = (Exhausted && Exhausted->asBool()) ||
                      (Reason && Reason->asString() != "none");
      if (Degraded) {
        ++T.Degraded;
      } else if (R && Stats) {
        const std::string &Name = P.Name;
        std::string Answer =
            R->find("answer") ? R->find("answer")->asString() : "";
        auto It = T.Answers.find(Name);
        if (It == T.Answers.end()) {
          T.Answers.emplace(Name, Answer);
          // Re-render just the counters bench_diff reads, keyed by leg.
          std::string S = "{";
          bool FirstKey = true;
          for (const char *K : BenchCounters) {
            if (!FirstKey)
              S += ",";
            FirstKey = false;
            char Num[32];
            std::snprintf(Num, sizeof(Num), "%.0f", Stats->numberOr(K, 0));
            S += "\"" + std::string(K) + "\":" + Num;
          }
          S += "}";
          T.CleanStats.emplace(Name, S);
        } else if (It->second != Answer) {
          // A later response (cached or not) disagreeing with the first
          // clean answer is exactly the cached-answer-identity violation
          // the acceptance test looks for.
          ++T.Unsound;
          std::fprintf(stderr,
                       "loadgen: UNSOUND: %s answered '%s' then '%s'\n",
                       Name.c_str(), It->second.c_str(), Answer.c_str());
        }
      }
    } else {
      const JsonValue *Err = Doc->find("error");
      std::string Kind =
          Err && Err->find("kind") ? Err->find("kind")->asString() : "?";
      if (Kind == "shed")
        ++T.Shed;
      else
        ++T.Errors[Kind];
    }
  }
}

/// Ceiling nearest-rank percentile — the ceil(P*N)-th smallest sample —
/// matching the batch reporter's convention. The report schema's latency
/// percentiles are nearest-rank, never interpolated: the old
/// floor(P*(N-1)) indexing biased p95 one sample low on small N.
double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  size_t Rank =
      static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  if (Rank == 0)
    Rank = 1;
  size_t I = std::min(Rank, V.size()) - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<long>(I), V.end());
  return V[I];
}

// ===-- Scrape mode (--scrape) --========================================//

/// Validates one Prometheus exposition line: `# ...` comments pass; data
/// lines must be `name[{labels}] value` with a well-formed metric name
/// and a numeric value.
bool validExpositionLine(const std::string &Line) {
  if (Line.empty() || Line[0] == '#')
    return true;
  size_t I = 0;
  auto NameChar = [](char C, bool First) {
    bool Alpha = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                 C == '_' || C == ':';
    return Alpha || (!First && C >= '0' && C <= '9');
  };
  if (I >= Line.size() || !NameChar(Line[I], true))
    return false;
  while (I < Line.size() && NameChar(Line[I], false))
    ++I;
  if (I < Line.size() && Line[I] == '{') {
    size_t Close = Line.find('}', I);
    if (Close == std::string::npos)
      return false;
    I = Close + 1;
  }
  if (I >= Line.size() || Line[I] != ' ')
    return false;
  const char *Num = Line.c_str() + I + 1;
  if (std::strcmp(Num, "+Inf") == 0 || std::strcmp(Num, "NaN") == 0)
    return true;
  char *End = nullptr;
  std::strtod(Num, &End);
  return End && *End == '\0' && End != Num;
}

/// --scrape: one connection, two metrics requests (Prometheus text and
/// the JSON registry), exposition syntax validation, and the
/// counter-consistency check: every well-formed analyze request is
/// admitted exactly once and meets exactly one of the three terminal
/// fates, so admitted >= responded + shed + failed always, with equality
/// once every issued request has been answered.
int runScrape(const Options &O) {
  Client C;
  if (!C.connectTo(O.Socket)) {
    std::fprintf(stderr, "loadgen: cannot connect to '%s'\n",
                 O.Socket.c_str());
    return 1;
  }

  std::string PromLine =
      C.roundTrip("{\"op\":\"metrics\",\"format\":\"prometheus\"}");
  Result<JsonValue> Prom = parseJson(PromLine);
  if (PromLine.empty() || !Prom || !Prom->isObject()) {
    std::fprintf(stderr, "loadgen: scrape: bad metrics response\n");
    return 1;
  }
  const JsonValue *Ok = Prom->find("ok");
  const JsonValue *Body = Prom->find("body");
  if (!Ok || !Ok->asBool() || !Body || !Body->isString()) {
    std::fprintf(stderr,
                 "loadgen: scrape: metrics op refused or carried no body\n");
    return 1;
  }

  const std::string &Text = Body->asString();
  uint64_t DataLines = 0, BadLines = 0;
  {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line)) {
      if (!validExpositionLine(Line)) {
        ++BadLines;
        std::fprintf(stderr, "loadgen: scrape: malformed line: %s\n",
                     Line.c_str());
      } else if (!Line.empty() && Line[0] != '#') {
        ++DataLines;
      }
    }
  }

  std::string JsonLine = C.roundTrip("{\"op\":\"metrics\"}");
  Result<JsonValue> Doc = parseJson(JsonLine);
  const JsonValue *M =
      Doc && Doc->isObject() ? Doc->find("metrics") : nullptr;
  if (!M || !M->isObject()) {
    std::fprintf(stderr, "loadgen: scrape: bad JSON metrics response\n");
    return 1;
  }
  double Admitted = M->numberOr("serve.analyze.admitted", -1);
  double Responded = M->numberOr("serve.analyze.responded", -1);
  double Shed = M->numberOr("serve.shed", -1);
  double Failed = M->numberOr("serve.analyze.failed", -1);
  bool Missing = Admitted < 0 || Responded < 0 || Shed < 0 || Failed < 0;
  double Settled = Responded + Shed + Failed;
  bool Violated = Missing || Admitted < Settled ||
                  (O.StrictInvariant && Admitted != Settled);

  if (!O.OutFile.empty()) {
    std::ofstream F(O.OutFile);
    if (!F) {
      std::fprintf(stderr, "loadgen: cannot write '%s'\n",
                   O.OutFile.c_str());
      return 1;
    }
    F << Text;
  } else {
    std::fputs(Text.c_str(), stdout);
  }
  std::fprintf(stderr,
               "loadgen: scrape: %llu series lines (%llu malformed), "
               "admitted %.0f %s responded %.0f + shed %.0f + failed "
               "%.0f%s\n",
               (unsigned long long)DataLines, (unsigned long long)BadLines,
               Admitted, Violated ? "VIOLATES" : "vs", Responded, Shed,
               Failed, Missing ? " (missing counters)" : "");
  return (BadLines || Violated || DataLines == 0) ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (O.Scrape)
    return runScrape(O);
  std::vector<Program> Corpus = loadCorpus(O.Dir);
  if (Corpus.empty())
    usage(("no *.scm programs under '" + O.Dir + "'").c_str());
  uint64_t Requests = O.Iterations ? O.Iterations : Corpus.size();

  auto Start = std::chrono::steady_clock::now();
  std::vector<Tally> Tallies(O.Clients);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < O.Clients; ++I)
    Threads.emplace_back([&, I] {
      runClient(O, Corpus, I, Requests, Tallies[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();

  // Merge.
  Tally All;
  std::vector<double> Lat;
  for (Tally &T : Tallies) {
    All.Requests += T.Requests;
    All.Ok += T.Ok;
    All.Cached += T.Cached;
    All.Degraded += T.Degraded;
    All.Shed += T.Shed;
    All.Transport += T.Transport;
    All.Unsound += T.Unsound;
    for (const auto &[K, N] : T.Errors)
      All.Errors[K] += N;
    Lat.insert(Lat.end(), T.LatencyUs.begin(), T.LatencyUs.end());
    for (const auto &[Name, S] : T.CleanStats)
      All.CleanStats.emplace(Name, S);
    // Cross-client answer identity: every client must have seen the same
    // answer for the same program (shared cache or not).
    for (const auto &[Name, A] : T.Answers) {
      auto It = All.Answers.find(Name);
      if (It == All.Answers.end())
        All.Answers.emplace(Name, A);
      else if (It->second != A) {
        ++All.Unsound;
        std::fprintf(stderr,
                     "loadgen: UNSOUND: %s differs across clients\n",
                     Name.c_str());
      }
    }
  }

  // --verify: fresh in-process analysis (server-default budgets, no
  // deadline so the reference never degrades) per distinct program.
  if (O.Verify) {
    serve::AnalyzeConfig Cfg;
    Cfg.DeadlineMs = 0;
    for (const Program &P : Corpus) {
      auto It = All.Answers.find(P.Name);
      if (It == All.Answers.end())
        continue;
      serve::ServeRequest Req;
      Req.Program = P.Source;
      Req.Analyzer = O.Analyzer;
      Req.Domain = O.Domain;
      serve::AnalyzeOutcome Ref = serve::runServeAnalyze(Req, Cfg, 0);
      if (Ref.Ok && !Ref.Degraded && Ref.Answer != It->second) {
        ++All.Unsound;
        std::fprintf(stderr,
                     "loadgen: UNSOUND: %s served '%s', reference '%s'\n",
                     P.Name.c_str(), It->second.c_str(), Ref.Answer.c_str());
      }
    }
  }

  double P50 = percentile(Lat, 0.50);
  double P95 = percentile(Lat, 0.95);
  double Max = Lat.empty() ? 0 : *std::max_element(Lat.begin(), Lat.end());

  std::ostringstream Out;
  Out << "{\"schemaVersion\":1,\"kind\":\"loadgen\"";
  char NumBuf[64];
  std::snprintf(NumBuf, sizeof(NumBuf), "%.3f", WallMs);
  Out << ",\"wallMs\":" << NumBuf;
  Out << ",\"programs\":[";
  bool First = true;
  for (const auto &[Name, Stats] : All.CleanStats) {
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":" << quoted(Name) << ",\"ok\":true,\""
        << O.Analyzer << "\":" << Stats << "}";
  }
  Out << "],\"loadgen\":{";
  Out << "\"clients\":" << O.Clients;
  Out << ",\"requests\":" << All.Requests;
  Out << ",\"ok\":" << All.Ok;
  Out << ",\"cached\":" << All.Cached;
  Out << ",\"degraded\":" << All.Degraded;
  Out << ",\"shed\":" << All.Shed;
  uint64_t ErrorTotal = 0;
  Out << ",\"errors\":{";
  First = true;
  for (const auto &[K, N] : All.Errors) {
    if (!First)
      Out << ",";
    First = false;
    Out << quoted(K) << ":" << N;
    ErrorTotal += N;
  }
  Out << "}";
  Out << ",\"transportFailures\":" << All.Transport;
  Out << ",\"unsound\":" << All.Unsound;
  double HitRate = All.Ok ? static_cast<double>(All.Cached) /
                                static_cast<double>(All.Ok)
                          : 0;
  std::snprintf(NumBuf, sizeof(NumBuf), "%.4f", HitRate);
  Out << ",\"cacheHitRate\":" << NumBuf;
  Out << ",\"latencyUs\":{";
  std::snprintf(NumBuf, sizeof(NumBuf), "%.1f", P50);
  Out << "\"p50\":" << NumBuf;
  std::snprintf(NumBuf, sizeof(NumBuf), "%.1f", P95);
  Out << ",\"p95\":" << NumBuf;
  std::snprintf(NumBuf, sizeof(NumBuf), "%.1f", Max);
  Out << ",\"max\":" << NumBuf;
  Out << "}}}";

  std::string Json = Out.str();
  if (!O.OutFile.empty()) {
    std::ofstream F(O.OutFile);
    if (!F) {
      std::fprintf(stderr, "loadgen: cannot write '%s'\n", O.OutFile.c_str());
      return 1;
    }
    F << Json << '\n';
  } else {
    std::printf("%s\n", Json.c_str());
  }
  std::fprintf(stderr,
               "loadgen: %llu requests, %llu ok (%llu cached, %llu "
               "degraded), %llu shed, %llu errors, %llu transport "
               "failures, %llu unsound, p50 %.0fus p95 %.0fus\n",
               (unsigned long long)All.Requests, (unsigned long long)All.Ok,
               (unsigned long long)All.Cached,
               (unsigned long long)All.Degraded,
               (unsigned long long)All.Shed, (unsigned long long)ErrorTotal,
               (unsigned long long)All.Transport,
               (unsigned long long)All.Unsound, P50, P95);
  return (All.Transport || All.Unsound) ? 1 : 0;
}
