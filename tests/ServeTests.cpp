//===- tests/ServeTests.cpp - Fault-tolerant analysis daemon ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cpsflow serve` daemon's robustness contract, exercised against
/// an in-process Server on a throwaway AF_UNIX socket: every request
/// gets exactly one structured response (success, degraded success, or a
/// taxonomy error) even under injected worker faults; malformed input is
/// a protocol error, never a dead connection; admission past the queue
/// high-water mark sheds with kind "shed"; the result cache serves
/// byte-identical answers; drain answers everything before exit; and
/// every served answer is the one the in-process batch driver computes.
///
//===----------------------------------------------------------------------===//

#include "clients/Batch.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/FaultInjector.h"
#include "support/JsonParse.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

using namespace cpsflow;
using namespace cpsflow::serve;
namespace fs = std::filesystem;

namespace {

/// A blocking line-protocol client with a receive timeout, so a daemon
/// bug can fail a test instead of wedging the suite.
class TestClient {
public:
  bool connectTo(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    timeval Tv{10, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return false;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }

  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool sendLine(const std::string &Line) {
    std::string Out = Line;
    Out.push_back('\n');
    size_t Sent = 0;
    while (Sent < Out.size()) {
      ssize_t N = ::send(Fd, Out.data() + Sent, Out.size() - Sent,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Sent += static_cast<size_t>(N);
    }
    return true;
  }

  /// One response line, or "" on timeout/close.
  std::string recvLine() {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Line;
      }
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return {};
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  std::string roundTrip(const std::string &Line) {
    if (!sendLine(Line))
      return {};
    return recvLine();
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// Starts a daemon on a unique socket (and optional cache dir) per test,
/// and tears both down.
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    const char *Name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Base = fs::temp_directory_path() /
           ("cpsflow-serve-" + std::to_string(::getpid()) + "-" + Name);
    fs::remove_all(Base);
    fs::create_directories(Base);
    Opts.SocketPath = (Base / "s.sock").string();
  }
  void TearDown() override {
    Server.reset();
    fs::remove_all(Base);
  }

  /// Builds and starts the server with the current Opts.
  void start() {
    Server = std::make_unique<serve::Server>(Opts);
    Result<bool> R = Server->start();
    ASSERT_TRUE(R.hasValue()) << (R.hasValue() ? "" : R.error().str());
  }

  /// Parses a response line or fails the test.
  JsonValue parsed(const std::string &Line) {
    Result<JsonValue> Doc = parseJson(Line);
    EXPECT_TRUE(Doc.hasValue()) << "not JSON: " << Line;
    return Doc.hasValue() ? Doc.take() : JsonValue();
  }

  static bool isOk(const JsonValue &Doc) {
    const JsonValue *Ok = Doc.find("ok");
    return Ok && Ok->asBool();
  }

  static std::string errorKind(const JsonValue &Doc) {
    const JsonValue *Err = Doc.find("error");
    const JsonValue *Kind = Err ? Err->find("kind") : nullptr;
    return Kind ? Kind->asString() : "";
  }

  fs::path Base;
  ServeOptions Opts;
  std::unique_ptr<serve::Server> Server;
};

const char *const Program = "(let (x 2) (+ x 3))";

std::string analyzeReq(const std::string &Program,
                       const std::string &Extra = "") {
  std::string P;
  for (char C : Program) {
    if (C == '\n') {
      P += "\\n";
      continue;
    }
    if (C == '"' || C == '\\')
      P.push_back('\\');
    P.push_back(C);
  }
  return "{\"op\":\"analyze\",\"program\":\"" + P + "\"" + Extra + "}";
}

TEST_F(ServeTest, AnalyzeAnswersAcrossAnalyzersAndDomains) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  for (const char *Analyzer :
       {"direct", "semantic", "syntactic", "dup", "pushdown", "pd"})
    for (const char *Domain : {"constant", "interval"}) {
      std::string Line = C.roundTrip(analyzeReq(
          Program, std::string(",\"analyzer\":\"") + Analyzer +
                       "\",\"domain\":\"" + Domain + "\""));
      JsonValue Doc = parsed(Line);
      EXPECT_TRUE(isOk(Doc)) << Analyzer << "/" << Domain << ": " << Line;
      const JsonValue *R = Doc.find("result");
      ASSERT_NE(R, nullptr);
      EXPECT_NE(R->find("answer"), nullptr);
      EXPECT_NE(R->find("stats"), nullptr);
    }
}

/// The batch leg that runs \p Analyzer (a canonical serve name).
const clients::BatchAnalyzerRecord &
batchLeg(const clients::BatchProgramResult &P, const std::string &Analyzer) {
  if (Analyzer == "semantic")
    return P.Semantic;
  if (Analyzer == "syntactic")
    return P.Syntactic;
  if (Analyzer == "dup")
    return P.Dup;
  if (Analyzer == "pushdown")
    return P.Pushdown;
  return P.Direct;
}

TEST_F(ServeTest, ServedAnswersEqualInProcessRuns) {
  // A serve request runs the same cold analyzer code as the batch
  // driver. For every corpus program and analyzer, the served answer and
  // its goal and cut counts equal an in-process batch run at the same
  // options (the defaults of both), and asking again returns a
  // byte-identical result block. Cache off, two concurrent clients, at
  // one and at four workers.
  std::vector<std::string> Files =
      clients::collectCorpus(std::string(CPSFLOW_SOURCE_DIR) +
                             "/examples/corpus")
          .take();
  ASSERT_FALSE(Files.empty());
  clients::BatchResult Ref =
      clients::runBatchFiles(Files, clients::BatchOptions());
  for (const clients::BatchProgramResult &P : Ref.Programs)
    ASSERT_TRUE(P.Ok) << P.Name << ": " << P.Error;
  std::vector<std::string> Sources;
  for (const std::string &F : Files) {
    std::ifstream In(F);
    Sources.emplace_back(std::istreambuf_iterator<char>(In),
                         std::istreambuf_iterator<char>());
  }

  for (unsigned Workers : {1u, 4u}) {
    Server.reset();
    Opts.Workers = Workers;
    start();
    std::vector<std::string> Failures[2];
    std::vector<std::thread> Clients;
    for (int T = 0; T < 2; ++T)
      Clients.emplace_back([&, T] {
        std::vector<std::string> &Fail = Failures[T];
        TestClient C;
        if (!C.connectTo(Opts.SocketPath)) {
          Fail.push_back("cannot connect");
          return;
        }
        for (size_t I = 0; I < Files.size(); ++I)
          for (std::string A :
               {"direct", "semantic", "syntactic", "dup", "pushdown"}) {
            std::string Where = Ref.Programs[I].Name + "/" + A + ": ";
            std::string Req =
                analyzeReq(Sources[I], ",\"analyzer\":\"" + A + "\"");
            std::string First = C.roundTrip(Req);
            std::string Second = C.roundTrip(Req);
            Result<JsonValue> Doc = parseJson(First);
            const JsonValue *R =
                Doc.hasValue() && isOk(*Doc) ? Doc->find("result") : nullptr;
            const JsonValue *Stats = R ? R->find("stats") : nullptr;
            if (!Stats || !R->find("answer")) {
              Fail.push_back(Where + "no result in " + First);
              continue;
            }
            const clients::BatchAnalyzerRecord &Leg =
                batchLeg(Ref.Programs[I], A);
            if (R->find("answer")->asString() != Leg.Answer)
              Fail.push_back(Where + "answer " +
                             R->find("answer")->asString() + " vs " +
                             Leg.Answer);
            if (Stats->numberOr("goals", -1) !=
                    static_cast<double>(Leg.Stats.Goals) ||
                Stats->numberOr("cuts", -1) !=
                    static_cast<double>(Leg.Stats.Cuts))
              Fail.push_back(Where + "goals/cuts differ from batch");
            size_t R1 = First.find("\"result\":");
            size_t R2 = Second.find("\"result\":");
            if (R2 == std::string::npos ||
                First.substr(R1) != Second.substr(R2))
              Fail.push_back(Where + "second answer differs: " + Second);
          }
      });
    for (std::thread &T : Clients)
      T.join();
    for (int T = 0; T < 2; ++T)
      for (const std::string &F : Failures[T])
        ADD_FAILURE() << Workers << " workers, client " << T << ": " << F;
  }
}

TEST_F(ServeTest, CacheServesByteIdenticalSecondAnswer) {
  Opts.CacheDir = (Base / "cache").string();
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  std::string First = C.roundTrip(analyzeReq(Program));
  std::string Second = C.roundTrip(analyzeReq(Program));
  JsonValue D1 = parsed(First), D2 = parsed(Second);
  ASSERT_TRUE(isOk(D1)) << First;
  ASSERT_TRUE(isOk(D2)) << Second;
  EXPECT_FALSE(D1.find("cached")->asBool());
  EXPECT_TRUE(D2.find("cached")->asBool());
  // Identical modulo the "cached" flag itself: the result payloads must
  // be byte-identical (the acceptance criterion for the cache).
  size_t R1 = First.find("\"result\":");
  size_t R2 = Second.find("\"result\":");
  ASSERT_NE(R1, std::string::npos);
  ASSERT_NE(R2, std::string::npos);
  EXPECT_EQ(First.substr(R1), Second.substr(R2));
}

TEST_F(ServeTest, CorruptedCacheEntryIsRecomputedIdentically) {
  Opts.CacheDir = (Base / "cache").string();
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  std::string Cold = C.roundTrip(analyzeReq(Program));
  ASSERT_TRUE(isOk(parsed(Cold)));

  // Corrupt the single entry on disk behind the daemon's back.
  fs::path Entries = fs::path(Opts.CacheDir) / "entries";
  size_t Count = 0;
  for (const auto &E : fs::directory_iterator(Entries)) {
    std::ofstream Out(E.path(), std::ios::binary | std::ios::trunc);
    Out << "garbage";
    ++Count;
  }
  ASSERT_EQ(Count, 1u);

  std::string Again = C.roundTrip(analyzeReq(Program));
  JsonValue D = parsed(Again);
  ASSERT_TRUE(isOk(D)) << Again;
  EXPECT_FALSE(D.find("cached")->asBool())
      << "a corrupt entry must recompute, not serve";
  size_t R1 = Cold.find("\"result\":"), R2 = Again.find("\"result\":");
  EXPECT_EQ(Cold.substr(R1), Again.substr(R2))
      << "recomputed answer must match the original byte for byte";
  ASSERT_NE(Server->cache(), nullptr);
  EXPECT_EQ(Server->cache()->stats().Corrupt, 1u);
}

TEST_F(ServeTest, MalformedInputIsAProtocolErrorNotADeadConnection) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  for (const std::string &Bad : {
           std::string("this is not json"),
           std::string("{\"op\":\"analyze\"}"),           // missing program
           std::string("{\"op\":\"nope\"}"),              // unknown op
           std::string("{\"op\":\"analyze\",\"program\":\"(+ 1 2)\","
                       "\"frobnicate\":1}"),              // unknown field
           std::string("{\"op\":\"analyze\",\"program\":\"(+ 1 2)\","
                       "\"maxGoals\":-3}"),               // bad count
           std::string("{\"op\":\"analyze\",\"program\":\"(+ 1 2)\","
                       "\"analyzer\":\"quantum\"}"),      // unknown leg
       }) {
    JsonValue Doc = parsed(C.roundTrip(Bad));
    EXPECT_FALSE(isOk(Doc)) << Bad;
    EXPECT_EQ(errorKind(Doc), "protocol") << Bad;
  }
  // The connection is still alive and serving.
  EXPECT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
}

TEST_F(ServeTest, ParseFailureCarriesTheParseTaxonomy) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  JsonValue Doc = parsed(C.roundTrip(analyzeReq("(let (x 1)")));
  EXPECT_FALSE(isOk(Doc));
  EXPECT_EQ(errorKind(Doc), "parse");
}

TEST_F(ServeTest, DegradedAnswersAreMarkedAndNeverCached) {
  Opts.CacheDir = (Base / "cache").string();
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  // A one-goal budget forces Section 4.4 degradation deterministically.
  std::string Req = analyzeReq(Program, ",\"maxGoals\":1");
  for (int I = 0; I < 2; ++I) {
    JsonValue Doc = parsed(C.roundTrip(Req));
    ASSERT_TRUE(isOk(Doc));
    EXPECT_FALSE(Doc.find("cached")->asBool())
        << "degraded results must not enter the cache";
    const JsonValue *Stats = Doc.find("result")->find("stats");
    ASSERT_NE(Stats, nullptr);
    EXPECT_TRUE(Stats->find("budgetExhausted")->asBool());
  }
}

TEST_F(ServeTest, QueuePastHighWaterMarkSheds) {
  Opts.QueueCap = 0; // everything analyze-shaped sheds, deterministically
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  JsonValue Doc = parsed(C.roundTrip(analyzeReq(Program)));
  EXPECT_FALSE(isOk(Doc));
  EXPECT_EQ(errorKind(Doc), "shed");
  // health and stats never queue, so they answer even when analyze sheds.
  EXPECT_TRUE(isOk(parsed(C.roundTrip("{\"op\":\"health\"}"))));
  EXPECT_TRUE(isOk(parsed(C.roundTrip("{\"op\":\"stats\"}"))));
}

TEST_F(ServeTest, HealthAndStatsReportTheRegistry) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  ASSERT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));

  JsonValue H = parsed(C.roundTrip("{\"op\":\"health\",\"id\":7}"));
  EXPECT_TRUE(isOk(H));
  EXPECT_EQ(H.find("status")->asString(), "ok");
  ASSERT_NE(H.find("id"), nullptr);
  EXPECT_EQ(H.find("id")->asNumber(), 7);
  EXPECT_NE(H.find("workers"), nullptr);
  EXPECT_NE(H.find("queueCap"), nullptr);

  JsonValue S = parsed(C.roundTrip("{\"op\":\"stats\"}"));
  ASSERT_TRUE(isOk(S));
  const JsonValue *Stats = S.find("stats");
  ASSERT_NE(Stats, nullptr);
  EXPECT_GE(Stats->numberOr("serve.requests", 0), 2.0);
  EXPECT_GE(Stats->numberOr("serve.ok", 0), 1.0);
}

TEST_F(ServeTest, ShutdownOpDrainsAndExitsCleanly) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  ASSERT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
  JsonValue Doc = parsed(C.roundTrip("{\"op\":\"shutdown\"}"));
  EXPECT_TRUE(isOk(Doc));
  EXPECT_TRUE(Doc.find("draining")->asBool());
  Server->waitDrained();
  EXPECT_FALSE(fs::exists(Opts.SocketPath))
      << "drain must remove the socket file";
}

TEST_F(ServeTest, DrainWhileIdleIsImmediate) {
  start();
  Server->requestDrain();
  Server->waitDrained();
  EXPECT_TRUE(Server->draining());
}

TEST_F(ServeTest, AnalyzeAfterDrainIsShedNotHung) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  ASSERT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
  Server->requestDrain();
  // The reader may already be gone (drain shuts connections down); what
  // must not happen is an accepted-but-never-answered request. Either a
  // shed response or a closed connection is a correct outcome.
  if (C.sendLine(analyzeReq(Program))) {
    std::string Line = C.recvLine();
    if (!Line.empty()) {
      EXPECT_EQ(errorKind(parsed(Line)), "shed");
    }
  }
  Server->waitDrained();
}

#ifdef CPSFLOW_FAULT_INJECTION
TEST_F(ServeTest, InjectedWorkerThrowIsContainedPerRequest) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  // Request ordinal 1 throws inside the worker; the response must be a
  // structured internal error, and the daemon (and connection!) live on.
  fault::ScopedFault F({fault::Site::ServeWorker, fault::Action::Throw,
                        /*Name=*/"", /*AtCount=*/1, /*Every=*/0,
                        /*StallMs=*/0});
  JsonValue Doc = parsed(C.roundTrip(analyzeReq(Program)));
  EXPECT_FALSE(isOk(Doc));
  EXPECT_EQ(errorKind(Doc), "internal");
  // Ordinal 2: same worker pool, no fault, full answer.
  EXPECT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
}

TEST_F(ServeTest, InjectedAllocationFailureMapsToMemoryKind) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  fault::ScopedFault F({fault::Site::ServeWorker, fault::Action::BadAlloc,
                        /*Name=*/"", /*AtCount=*/1, /*Every=*/0,
                        /*StallMs=*/0});
  JsonValue Doc = parsed(C.roundTrip(analyzeReq(Program)));
  EXPECT_FALSE(isOk(Doc));
  EXPECT_EQ(errorKind(Doc), "memory");
  EXPECT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
}

TEST_F(ServeTest, InjectedHandlerFaultStillAnswers) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  fault::ScopedFault F({fault::Site::ServeHandler, fault::Action::Throw,
                        /*Name=*/"", /*AtCount=*/1, /*Every=*/0,
                        /*StallMs=*/0});
  JsonValue Doc = parsed(C.roundTrip(analyzeReq(Program)));
  EXPECT_FALSE(isOk(Doc));
  EXPECT_EQ(errorKind(Doc), "internal");
  EXPECT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
}

TEST_F(ServeTest, TornCacheWriteDegradesToUncachedService) {
  Opts.CacheDir = (Base / "cache").string();
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  fault::ScopedFault F({fault::Site::CacheWrite, fault::Action::Tear,
                        /*Name=*/"", /*AtCount=*/1, /*Every=*/0,
                        /*StallMs=*/0});
  // Every store is torn: both requests recompute, answers stay correct
  // and identical, nothing is ever served from the torn frames.
  std::string First = C.roundTrip(analyzeReq(Program));
  std::string Second = C.roundTrip(analyzeReq(Program));
  JsonValue D1 = parsed(First), D2 = parsed(Second);
  ASSERT_TRUE(isOk(D1));
  ASSERT_TRUE(isOk(D2));
  EXPECT_FALSE(D2.find("cached")->asBool());
  size_t R1 = First.find("\"result\":"), R2 = Second.find("\"result\":");
  EXPECT_EQ(First.substr(R1), Second.substr(R2));
  ASSERT_NE(Server->cache(), nullptr);
  EXPECT_GE(Server->cache()->stats().StoreFailures, 1u);
}
#endif // CPSFLOW_FAULT_INJECTION

// Protocol-layer unit checks that need no socket.
TEST(ServeProtocol, RequestDepthCapRejectsDeepJson) {
  std::string Deep;
  for (int I = 0; I < 64; ++I)
    Deep += "{\"op\":";
  Result<ServeRequest> R = parseServeRequest(Deep);
  EXPECT_FALSE(R.hasValue());
}

TEST(ServeProtocol, OversizedRequestIsRejected) {
  std::string Big = "{\"op\":\"analyze\",\"program\":\"";
  Big.append(MaxRequestBytes, 'x');
  Big += "\"}";
  Result<ServeRequest> R = parseServeRequest(Big);
  EXPECT_FALSE(R.hasValue());
}

TEST(ServeProtocol, IncrementalFieldIsAcceptedAndIgnoredButTypeChecked) {
  // Kept for old clients: every request runs cold, so a boolean is a
  // no-op, while any other type is still a protocol error.
  for (const char *Flag : {"true", "false"}) {
    Result<ServeRequest> R = parseServeRequest(
        std::string("{\"op\":\"analyze\",\"program\":\"1\","
                    "\"incremental\":") +
        Flag + "}");
    EXPECT_TRUE(R.hasValue()) << Flag;
  }
  Result<ServeRequest> Bad = parseServeRequest(
      "{\"op\":\"analyze\",\"program\":\"1\",\"incremental\":1}");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.error().str().find("incremental"), std::string::npos)
      << Bad.error().str();
}

TEST(ServeProtocol, ErrorKindsRenderTheTaxonomy) {
  EXPECT_STREQ(str(ServeErrorKind::Parse), "parse");
  EXPECT_STREQ(str(ServeErrorKind::Cps), "cps");
  EXPECT_STREQ(str(ServeErrorKind::Deadline), "deadline");
  EXPECT_STREQ(str(ServeErrorKind::Memory), "memory");
  EXPECT_STREQ(str(ServeErrorKind::Internal), "internal");
  EXPECT_STREQ(str(ServeErrorKind::Shed), "shed");
  EXPECT_STREQ(str(ServeErrorKind::Protocol), "protocol");
}

} // namespace
