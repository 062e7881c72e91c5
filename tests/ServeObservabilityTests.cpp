//===- tests/ServeObservabilityTests.cpp - Serve observability --*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability contract of `cpsflow serve` (docs/OBSERVABILITY.md):
/// the `metrics` op exposes the registry in both JSON and Prometheus
/// text format and its counters satisfy admitted == responded + shed +
/// failed once every response has been received; every admitted analyze
/// request (including sheds and fault-injected failures) produces
/// exactly one well-formed request-log record; analyze response payloads
/// are byte-identical with observability on and off; the flight
/// recorder's dump frame round-trips through its checksum; and slow
/// requests retroactively spill a Chrome trace, bounded by the cap.
///
//===----------------------------------------------------------------------===//

#include "serve/FlightRecorder.h"
#include "serve/Protocol.h"
#include "serve/RequestLog.h"
#include "serve/Server.h"
#include "support/FaultInjector.h"
#include "support/JsonParse.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
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

/// Starts a daemon on a unique socket per test, with a request log and
/// flight recorder parked in the same throwaway directory.
class ServeObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    const char *Name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Base = fs::temp_directory_path() /
           ("cpsflow-serve-obs-" + std::to_string(::getpid()) + "-" + Name);
    fs::remove_all(Base);
    fs::create_directories(Base);
    Opts.SocketPath = (Base / "s.sock").string();
  }
  void TearDown() override {
    Server.reset();
    fs::remove_all(Base);
  }

  void start() {
    Server = std::make_unique<serve::Server>(Opts);
    Result<bool> R = Server->start();
    ASSERT_TRUE(R.hasValue()) << (R.hasValue() ? "" : R.error().str());
  }

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

  /// Reads the metric \p Name from a `metrics` op JSON response, or -1.
  static double metricOf(const JsonValue &Doc, const char *Name) {
    const JsonValue *M = Doc.find("metrics");
    const JsonValue *V = M ? M->find(Name) : nullptr;
    return V && V->isNumber() ? V->asNumber() : -1;
  }

  /// Non-empty lines of a request log file, oldest first.
  static std::vector<std::string> logLines(const fs::path &P) {
    std::vector<std::string> Lines;
    std::ifstream In(P);
    std::string Line;
    while (std::getline(In, Line))
      if (!Line.empty())
        Lines.push_back(Line);
    return Lines;
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
    if (C == '"' || C == '\\')
      P.push_back('\\');
    P.push_back(C);
  }
  return "{\"op\":\"analyze\",\"program\":\"" + P + "\"" + Extra + "}";
}

/// One line of the Prometheus text exposition: a comment, or
/// `name{labels} value`.
bool validExpositionLine(const std::string &Line) {
  if (Line.empty())
    return false;
  if (Line[0] == '#')
    return true;
  size_t I = 0;
  auto NameStart = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
           C == ':';
  };
  if (!NameStart(Line[I]))
    return false;
  while (I < Line.size() &&
         (NameStart(Line[I]) || (Line[I] >= '0' && Line[I] <= '9')))
    ++I;
  if (I < Line.size() && Line[I] == '{') {
    size_t Close = Line.find('}', I);
    if (Close == std::string::npos)
      return false;
    I = Close + 1;
  }
  if (I >= Line.size() || Line[I] != ' ')
    return false;
  std::string Value = Line.substr(I + 1);
  if (Value == "+Inf" || Value == "NaN")
    return true;
  char *End = nullptr;
  std::strtod(Value.c_str(), &End);
  return End && *End == '\0' && End != Value.c_str();
}

//===----------------------------------------------------------------------===//
// Registry units: gauges, windowed histograms, Prometheus rendering
//===----------------------------------------------------------------------===//

TEST(MetricsObservability, GaugeIsPointInTimeAndMergesByMax) {
  support::MetricsRegistry A, B;
  A.setGauge("queue.depth", 7);
  A.setGauge("queue.depth", 3); // gauges overwrite, not accumulate
  EXPECT_EQ(A.gauge("queue.depth"), 3u);
  B.setGauge("queue.depth", 5);
  A.merge(B); // merge takes the max — a high-water view
  EXPECT_EQ(A.gauge("queue.depth"), 5u);
}

TEST(MetricsObservability, WindowedHistogramForgetsOldGenerations) {
  support::MetricsRegistry R;
  support::WindowedHistogram &W = R.windowed("lat", /*WindowSamples=*/4);
  for (int I = 0; I < 4; ++I)
    W.record(1000); // slow generation fills the window and rotates to Prev
  EXPECT_EQ(W.snapshot().count(), 4u);
  EXPECT_EQ(W.snapshot().max(), 1000u);
  for (int I = 0; I < 2; ++I)
    W.record(1); // partial fast generation: both visible
  EXPECT_EQ(W.snapshot().count(), 6u);
  for (int I = 0; I < 2; ++I)
    W.record(1); // fast generation completes: slow generation evicted
  support::Histogram S = W.snapshot();
  EXPECT_EQ(S.count(), 4u);
  EXPECT_LT(S.max(), 1000u) << "evicted generation still visible";
  EXPECT_EQ(W.totalRecorded(), 8u); // lifetime total keeps counting
}

TEST(MetricsObservability, PrometheusSeriesSplitsLabelsAndSanitizes) {
  support::MetricsRegistry::PromSeries P =
      support::MetricsRegistry::prometheusSeries(
          "serve.latency.window.us{analyzer=\"direct\"}", "cpsflow_");
  EXPECT_EQ(P.Metric, "cpsflow_serve_latency_window_us");
  EXPECT_EQ(P.Labels, "analyzer=\"direct\"");
  support::MetricsRegistry::PromSeries Q =
      support::MetricsRegistry::prometheusSeries("serve.ok", "cpsflow_");
  EXPECT_EQ(Q.Metric, "cpsflow_serve_ok");
  EXPECT_EQ(Q.Labels, "");
}

TEST(MetricsObservability, WritePrometheusEmitsValidTypedFamilies) {
  support::MetricsRegistry R;
  R.add("serve.ok", 3);
  R.setGauge("serve.queue.depth", 2);
  R.histogram("serve.latencyUs").record(100);
  R.windowed("serve.latency.window.us{analyzer=\"direct\"}", 8).record(50);
  R.windowed("serve.latency.window.us{analyzer=\"dup\"}", 8).record(70);
  std::ostringstream Os;
  R.writePrometheus(Os);
  std::istringstream In(Os.str());
  std::string Line;
  int TypeCounter = 0, TypeGauge = 0, TypeHistogram = 0, Data = 0;
  int WindowTypeLines = 0;
  while (std::getline(In, Line)) {
    ASSERT_TRUE(validExpositionLine(Line)) << "bad line: " << Line;
    if (Line.rfind("# TYPE", 0) == 0) {
      if (Line.find(" counter") != std::string::npos)
        ++TypeCounter;
      if (Line.find(" gauge") != std::string::npos)
        ++TypeGauge;
      if (Line.find(" histogram") != std::string::npos)
        ++TypeHistogram;
      if (Line.find("cpsflow_serve_latency_window_us ") != std::string::npos)
        ++WindowTypeLines;
    } else if (Line[0] != '#') {
      ++Data;
    }
  }
  EXPECT_EQ(TypeCounter, 1);
  EXPECT_EQ(TypeGauge, 1);
  EXPECT_EQ(TypeHistogram, 2);
  // Both labeled series share one family: exactly one TYPE line.
  EXPECT_EQ(WindowTypeLines, 1);
  EXPECT_GT(Data, 6); // buckets + sum + count + scalars
  // Histogram families end with the canonical +Inf bucket.
  EXPECT_NE(Os.str().find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(Os.str().find("cpsflow_serve_latencyUs_sum"), std::string::npos)
      << Os.str();
}

//===----------------------------------------------------------------------===//
// Request-log units: record shape, rotation
//===----------------------------------------------------------------------===//

TEST(RequestLogUnit, RenderedRecordHasStableSchemaAndFieldOrder) {
  RequestRecord R;
  R.ReqId = 7;
  R.ClientId = 42;
  R.HasClientId = true;
  R.Analyzer = "direct";
  R.Domain = "constant";
  R.SourceLen = 19;
  R.SourceDigest = 0xdeadbeefull;
  R.Outcome = "degraded";
  R.DegradeReason = "deadline";
  R.CacheOutcome = "miss";
  R.Goals = 5;
  R.QueueUs = 12.25;
  R.TotalUs = 99.5;
  R.Worker = 1;
  std::string Line = renderRequestRecord(R);
  EXPECT_EQ(Line.find("{\"schema\":2,\"req\":7,\"id\":42,"), 0u) << Line;
  // Field order is part of the schema: timings always in queue -> parse
  // -> cps -> analyze -> total order, so log consumers can stream-parse.
  size_t Q = Line.find("\"queueUs\":12.2");
  size_t P = Line.find("\"parseUs\":");
  size_t C = Line.find("\"cpsUs\":");
  size_t A = Line.find("\"analyzeUs\":");
  size_t T = Line.find("\"totalUs\":99.5");
  ASSERT_NE(Q, std::string::npos) << Line;
  ASSERT_NE(T, std::string::npos) << Line;
  EXPECT_TRUE(Q < P && P < C && C < A && A < T) << Line;
  // The goal count is the only work field; the timings follow it.
  EXPECT_NE(Line.find("\"goals\":5,\"queueUs\":"), std::string::npos)
      << Line;
  EXPECT_NE(Line.find("\"outcome\":\"degraded\""), std::string::npos);
  EXPECT_NE(Line.find("\"degradeReason\":\"deadline\""), std::string::npos);
  EXPECT_NE(Line.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(Line.find("\"sourceDigest\":\"00000000deadbeef\""),
            std::string::npos);
  // Empty optionals are omitted, not rendered as empty strings.
  EXPECT_EQ(Line.find("errorKind"), std::string::npos);
  EXPECT_EQ(Line.find("slowTrace"), std::string::npos);
  // And every record parses back as JSON.
  EXPECT_TRUE(parseJson(Line).hasValue()) << Line;
}

TEST(RequestLogUnit, RotationKeepsTwoGenerationsAndCountsThem) {
  fs::path Dir = fs::temp_directory_path() /
                 ("cpsflow-obs-rot-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  fs::path P = Dir / "req.log";
  {
    RequestLog Log(P.string(), /*RotateBytes=*/512);
    ASSERT_TRUE(Log.ok());
    RequestRecord R;
    R.Analyzer = "direct";
    R.Domain = "constant";
    R.Outcome = "ok";
    for (uint64_t I = 1; I <= 40; ++I) {
      R.ReqId = I;
      Log.append(R);
    }
    EXPECT_EQ(Log.written(), 40u);
    EXPECT_EQ(Log.failures(), 0u);
    EXPECT_GT(Log.rotations(), 0u);
  }
  EXPECT_TRUE(fs::exists(P));
  EXPECT_TRUE(fs::exists(Dir / "req.log.1"));
  // The freshest records are in FILE; every surviving line is intact.
  std::ifstream In(P);
  std::string Line, Last;
  while (std::getline(In, Line)) {
    EXPECT_TRUE(parseJson(Line).hasValue()) << Line;
    Last = Line;
  }
  EXPECT_NE(Last.find("\"req\":40"), std::string::npos) << Last;
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Flight-recorder units: ring, frame checksum, crash path
//===----------------------------------------------------------------------===//

TEST(FlightRecorderUnit, RingEvictsOldestAndTracksInFlight) {
  FlightRecorder F(2);
  RequestRecord R;
  R.Analyzer = "direct";
  for (uint64_t I = 1; I <= 3; ++I) {
    R.ReqId = I;
    F.admit(R);
  }
  EXPECT_EQ(F.inFlightCount(), 3u);
  EXPECT_EQ(F.admitted(), 3u);
  for (uint64_t I = 1; I <= 3; ++I) {
    R.ReqId = I;
    R.Outcome = "ok";
    F.complete(R);
  }
  EXPECT_EQ(F.inFlightCount(), 0u);
  EXPECT_EQ(F.recentCount(), 2u); // capacity 2: request 1 evicted
  std::string Doc = F.renderJson();
  EXPECT_EQ(Doc.find("req\":1"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"req\":2"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"req\":3"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"schemaVersion\":1"), std::string::npos) << Doc;
}

TEST(FlightRecorderUnit, DumpFrameRoundTripsAndDetectsTampering) {
  fs::path Dir = fs::temp_directory_path() /
                 ("cpsflow-obs-frame-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  fs::path P = Dir / "dump.json";
  FlightRecorder F(4);
  RequestRecord R;
  R.ReqId = 1;
  R.Analyzer = "pushdown";
  F.admit(R);
  R.Outcome = "ok";
  F.complete(R);
  ASSERT_TRUE(F.dumpTo(P.string()));
  std::ifstream In(P, std::ios::binary);
  std::string Raw((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  std::string Payload;
  ASSERT_TRUE(FlightRecorder::checkFrame(Raw, &Payload)) << Raw;
  Result<JsonValue> Doc = parseJson(Payload);
  ASSERT_TRUE(Doc.hasValue());
  EXPECT_EQ(Doc->numberOr("schemaVersion", 0), 1);
  EXPECT_EQ(Doc->numberOr("capacity", 0), 4);
  // Flip one payload byte: the checksum must catch it.
  std::string Tampered = Raw;
  Tampered[Tampered.size() - 2] ^= 0x20;
  EXPECT_FALSE(FlightRecorder::checkFrame(Tampered, nullptr));
  // Truncation (a torn write) is equally detectable.
  EXPECT_FALSE(
      FlightRecorder::checkFrame(Raw.substr(0, Raw.size() / 2), nullptr));
  fs::remove_all(Dir);
}

TEST(FlightRecorderUnit, FatalDumpWritesAFrameWithoutAllocating) {
  fs::path Dir = fs::temp_directory_path() /
                 ("cpsflow-obs-fatal-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  fs::path P = Dir / "crash.json";
  FlightRecorder F(4);
  RequestRecord R;
  R.ReqId = 9;
  R.Analyzer = "direct";
  F.admit(R); // still in flight at "crash" time
  F.fatalDump(P.string().c_str());
  std::ifstream In(P, std::ios::binary);
  std::string Raw((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  std::string Payload;
  ASSERT_TRUE(FlightRecorder::checkFrame(Raw, &Payload)) << Raw;
  EXPECT_NE(Payload.find("\"req\":9"), std::string::npos) << Payload;
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Daemon-level: metrics op, invariants, logs, dump op, slow traces
//===----------------------------------------------------------------------===//

TEST_F(ServeObsTest, MetricsOpServesJsonAndPrometheusConsistently) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
  // One parse failure is still an admitted (and responded-to) request...
  JsonValue Bad = parsed(C.roundTrip(analyzeReq("(let (x")));
  EXPECT_FALSE(isOk(Bad));
  EXPECT_EQ(errorKind(Bad), "parse");

  JsonValue M = parsed(C.roundTrip("{\"op\":\"metrics\",\"id\":5}"));
  ASSERT_TRUE(isOk(M));
  EXPECT_EQ(M.numberOr("id", 0), 5);
  double Admitted = metricOf(M, "serve.analyze.admitted");
  double Responded = metricOf(M, "serve.analyze.responded");
  double Shed = metricOf(M, "serve.shed");
  double Failed = metricOf(M, "serve.analyze.failed");
  ASSERT_GE(Admitted, 0);
  ASSERT_GE(Responded, 0);
  ASSERT_GE(Shed, 0);
  ASSERT_GE(Failed, 0);
  EXPECT_EQ(Admitted, 4);
  // All responses received on this connection: the books must balance.
  EXPECT_EQ(Admitted, Responded + Shed + Failed);
  EXPECT_EQ(Failed, 1); // ...counted under failed, kind parse
  EXPECT_EQ(metricOf(M, "serve.error.parse"), 1);
  // Gauges are present even at idle.
  EXPECT_EQ(metricOf(M, "serve.queue.depth"), 0);
  EXPECT_EQ(metricOf(M, "serve.workers"), Opts.Workers);

  JsonValue P =
      parsed(C.roundTrip("{\"op\":\"metrics\",\"format\":\"prometheus\"}"));
  ASSERT_TRUE(isOk(P));
  EXPECT_EQ(P.find("contentType")->asString(),
            "text/plain; version=0.0.4");
  std::istringstream Body(P.find("body")->asString());
  std::string Line;
  int Data = 0;
  bool SawAdmitted = false, SawWindow = false;
  while (std::getline(Body, Line)) {
    ASSERT_TRUE(validExpositionLine(Line)) << "bad line: " << Line;
    if (Line[0] != '#')
      ++Data;
    if (Line.rfind("cpsflow_serve_analyze_admitted 4", 0) == 0)
      SawAdmitted = true;
    if (Line.find("cpsflow_serve_latency_window_us") != std::string::npos &&
        Line.find("analyzer=\"direct\"") != std::string::npos)
      SawWindow = true;
  }
  EXPECT_GT(Data, 20);
  EXPECT_TRUE(SawAdmitted);
  EXPECT_TRUE(SawWindow) << "per-analyzer windowed latency missing";
}

TEST_F(ServeObsTest, FormatFieldIsAProtocolErrorOutsideMetrics) {
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  JsonValue D =
      parsed(C.roundTrip("{\"op\":\"health\",\"format\":\"prometheus\"}"));
  EXPECT_FALSE(isOk(D));
  EXPECT_EQ(errorKind(D), "protocol");
  JsonValue Bad =
      parsed(C.roundTrip("{\"op\":\"metrics\",\"format\":\"xml\"}"));
  EXPECT_FALSE(isOk(Bad));
  EXPECT_EQ(errorKind(Bad), "protocol");
}

TEST_F(ServeObsTest, StatsExposesMemoAndCacheCountersUniformly) {
  // Satellite contract: the stats surface carries serve.cache.* keys
  // whether or not the cache is enabled, so dashboards never see a key
  // flap. No serve.memo.* key exists: there is no cross-request memo.
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  JsonValue D = parsed(C.roundTrip("{\"op\":\"stats\"}"));
  ASSERT_TRUE(isOk(D));
  const JsonValue *S = D.find("stats");
  ASSERT_NE(S, nullptr);
  for (const char *Key :
       {"serve.cache.hits", "serve.cache.misses", "serve.queue.depth",
        "serve.log.written", "serve.flight.capacity"})
    EXPECT_NE(S->find(Key), nullptr) << "stats missing " << Key;
  EXPECT_EQ(S->numberOr("serve.cache.hits", -1), 0);
  for (const auto &[Key, Val] : S->members())
    EXPECT_NE(Key.rfind("serve.memo.", 0), 0u) << "stale key " << Key;
}

TEST_F(ServeObsTest, EveryAdmittedRequestGetsExactlyOneLogRecord) {
  Opts.LogPath = (Base / "req.log").string();
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  const int Good = 4;
  for (int I = 0; I < Good; ++I)
    ASSERT_TRUE(isOk(parsed(C.roundTrip(
        analyzeReq(Program, ",\"id\":" + std::to_string(100 + I))))));
  ASSERT_FALSE(isOk(parsed(C.roundTrip(analyzeReq("(oops")))));
  // Protocol garbage is rejected before admission: no log record.
  ASSERT_FALSE(isOk(parsed(C.roundTrip("{\"op\":\"nope\"}"))));
  Server->requestDrain();
  Server->waitDrained();

  std::vector<std::string> Lines = logLines(Opts.LogPath);
  ASSERT_EQ(Lines.size(), static_cast<size_t>(Good + 1));
  std::vector<bool> SeenReq(Good + 2, false);
  for (const std::string &L : Lines) {
    Result<JsonValue> Doc = parseJson(L);
    ASSERT_TRUE(Doc.hasValue()) << L;
    EXPECT_EQ(Doc->numberOr("schema", 0),
              RequestLogSchemaVersion);
    uint64_t Req =
        static_cast<uint64_t>(Doc->numberOr("req", 0));
    ASSERT_GE(Req, 1u);
    ASSERT_LE(Req, static_cast<uint64_t>(Good + 1));
    EXPECT_FALSE(SeenReq[Req]) << "duplicate record for req " << Req;
    SeenReq[Req] = true;
    std::string Outcome = Doc->find("outcome")->asString();
    if (Outcome == "failed")
      EXPECT_EQ(Doc->find("errorKind")->asString(), "parse") << L;
    else
      EXPECT_EQ(Outcome, "ok") << L;
    EXPECT_GT(Doc->numberOr("totalUs", -1), 0) << L;
    EXPECT_NE(Doc->find("sourceDigest"), nullptr);
  }
  for (int I = 1; I <= Good + 1; ++I)
    EXPECT_TRUE(SeenReq[I]) << "no record for req " << I;
}

TEST_F(ServeObsTest, AnalyzeResponsesAreByteIdenticalWithObservabilityOff) {
  // Observability must never leak into the answer payload: run the same
  // requests against a fully-instrumented daemon and a bare one.
  std::vector<std::string> Requests;
  for (const char *Analyzer : {"direct", "dup", "pushdown"})
    Requests.push_back(analyzeReq(
        Program, std::string(",\"analyzer\":\"") + Analyzer + "\""));
  Requests.push_back(analyzeReq("(oops")); // failure payloads too

  std::vector<std::string> WithObs, WithoutObs;
  {
    Opts.LogPath = (Base / "req.log").string();
    Opts.FlightRecords = 16;
    Opts.TraceSlowMs = 0.000001; // everything is "slow": traces on
    Opts.TraceSlowMax = 8;
    start();
    TestClient C;
    ASSERT_TRUE(C.connectTo(Opts.SocketPath));
    for (const std::string &R : Requests)
      WithObs.push_back(C.roundTrip(R));
    Server.reset();
  }
  {
    ServeOptions Bare;
    Bare.SocketPath = (Base / "bare.sock").string();
    Bare.LogPath.clear();
    Bare.FlightRecords = 0;
    Bare.TraceSlowMs = 0;
    Server = std::make_unique<serve::Server>(Bare);
    Result<bool> R = Server->start();
    ASSERT_TRUE(R.hasValue());
    TestClient C;
    ASSERT_TRUE(C.connectTo(Bare.SocketPath));
    for (const std::string &Req : Requests)
      WithoutObs.push_back(C.roundTrip(Req));
  }
  ASSERT_EQ(WithObs.size(), WithoutObs.size());
  for (size_t I = 0; I < WithObs.size(); ++I)
    EXPECT_EQ(WithObs[I], WithoutObs[I]) << "request " << I;
}

TEST_F(ServeObsTest, DumpOpPublishesACheckableFrame) {
  Opts.FlightRecords = 8;
  Opts.FlightDumpPath = (Base / "flight.json").string();
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  ASSERT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
  JsonValue D = parsed(C.roundTrip("{\"op\":\"dump\",\"id\":3}"));
  ASSERT_TRUE(isOk(D));
  EXPECT_EQ(D.numberOr("id", 0), 3);
  EXPECT_TRUE(D.find("enabled")->asBool());
  EXPECT_TRUE(D.find("written")->asBool());
  const JsonValue *Flight = D.find("flight");
  ASSERT_NE(Flight, nullptr);
  EXPECT_EQ(Flight->numberOr("schemaVersion", 0),
            FlightRecorderSchemaVersion);
  EXPECT_GE(Flight->numberOr("admitted", 0), 1);

  std::ifstream In(Opts.FlightDumpPath, std::ios::binary);
  std::string Raw((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  std::string Payload;
  ASSERT_TRUE(FlightRecorder::checkFrame(Raw, &Payload)) << Raw;
  EXPECT_NE(Payload.find("\"analyzer\":\"direct\""), std::string::npos)
      << Payload;
}

TEST_F(ServeObsTest, DumpOpReportsDisabledWithoutARecorder) {
  Opts.FlightRecords = 0;
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  JsonValue D = parsed(C.roundTrip("{\"op\":\"dump\"}"));
  ASSERT_TRUE(isOk(D));
  EXPECT_FALSE(D.find("enabled")->asBool());
}

TEST_F(ServeObsTest, DrainDumpsTheFlightRecorder) {
  Opts.FlightRecords = 8;
  Opts.FlightDumpPath = (Base / "drain-flight.json").string();
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  ASSERT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
  Server->requestDrain();
  Server->waitDrained();
  std::ifstream In(Opts.FlightDumpPath, std::ios::binary);
  std::string Raw((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  ASSERT_TRUE(FlightRecorder::checkFrame(Raw, nullptr)) << Raw;
}

TEST_F(ServeObsTest, SlowRequestsSpillBoundedChromeTraces) {
  Opts.LogPath = (Base / "req.log").string();
  Opts.TraceSlowMs = 0.000001; // every request overshoots
  Opts.TraceDir = (Base / "traces").string();
  Opts.TraceSlowMax = 2;
  Opts.Workers = 1; // deterministic: one tracer, sequential spills
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(isOk(parsed(C.roundTrip(analyzeReq(Program)))));
  JsonValue M = parsed(C.roundTrip("{\"op\":\"metrics\"}"));
  ASSERT_TRUE(isOk(M));
  EXPECT_EQ(metricOf(M, "serve.trace.captured"), 2);
  EXPECT_EQ(metricOf(M, "serve.trace.dropped"), 2);
  Server->requestDrain();
  Server->waitDrained();

  // Exactly TraceSlowMax files, each a Chrome trace with phase spans.
  size_t Files = 0;
  for (const auto &E : fs::directory_iterator(Opts.TraceDir)) {
    ++Files;
    std::ifstream In(E.path());
    std::string Raw((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
    Result<JsonValue> Doc = parseJson(Raw);
    ASSERT_TRUE(Doc.hasValue()) << E.path();
    EXPECT_NE(Doc->find("traceEvents"), nullptr);
    EXPECT_NE(Raw.find("analyze:direct"), std::string::npos) << Raw;
    EXPECT_NE(Raw.find("\"parse\""), std::string::npos) << Raw;
  }
  EXPECT_EQ(Files, 2u);

  // The first two log records carry the spill path; later ones do not.
  std::vector<std::string> Lines = logLines(Opts.LogPath);
  ASSERT_EQ(Lines.size(), 4u);
  int WithTrace = 0;
  for (const std::string &L : Lines)
    if (L.find("\"slowTrace\":") != std::string::npos)
      ++WithTrace;
  EXPECT_EQ(WithTrace, 2);
}

TEST_F(ServeObsTest, SchemaVersionsAreStable) {
  EXPECT_EQ(RequestLogSchemaVersion, 2);
  EXPECT_EQ(FlightRecorderSchemaVersion, 1);
}

#ifdef CPSFLOW_FAULT_INJECTION

TEST_F(ServeObsTest, CountersBalanceAndLogsCoverFaultedRequests) {
  Opts.LogPath = (Base / "req.log").string();
  Opts.FlightRecords = 8;
  start();
  TestClient C;
  ASSERT_TRUE(C.connectTo(Opts.SocketPath));
  const int N = 6;
  int Failed = 0;
  {
    // Every second worker dispatch throws mid-request.
    fault::ScopedFault F(
        {fault::Site::ServeWorker, fault::Action::Throw, "", 0, 2, 0});
    for (int I = 0; I < N; ++I) {
      JsonValue D = parsed(C.roundTrip(analyzeReq(Program)));
      if (!isOk(D)) {
        ++Failed;
        EXPECT_EQ(errorKind(D), "internal");
      }
    }
  }
  EXPECT_GT(Failed, 0);
  JsonValue M = parsed(C.roundTrip("{\"op\":\"metrics\"}"));
  ASSERT_TRUE(isOk(M));
  double Admitted = metricOf(M, "serve.analyze.admitted");
  EXPECT_EQ(Admitted, N);
  EXPECT_EQ(Admitted, metricOf(M, "serve.analyze.responded") +
                          metricOf(M, "serve.shed") +
                          metricOf(M, "serve.analyze.failed"));
  EXPECT_EQ(metricOf(M, "serve.analyze.failed"), Failed);
  Server->requestDrain();
  Server->waitDrained();

  std::vector<std::string> Lines = logLines(Opts.LogPath);
  ASSERT_EQ(Lines.size(), static_cast<size_t>(N));
  int LoggedFailed = 0;
  for (const std::string &L : Lines) {
    Result<JsonValue> Doc = parseJson(L);
    ASSERT_TRUE(Doc.hasValue()) << L;
    if (Doc->find("outcome")->asString() == "failed") {
      ++LoggedFailed;
      EXPECT_EQ(Doc->find("errorKind")->asString(), "internal") << L;
    }
  }
  EXPECT_EQ(LoggedFailed, Failed);
}

TEST_F(ServeObsTest, ShedRequestsAreCountedAndLogged) {
  Opts.LogPath = (Base / "req.log").string();
  Opts.Workers = 1;
  Opts.QueueCap = 1;
  start();
  TestClient Stalled, Fast;
  ASSERT_TRUE(Stalled.connectTo(Opts.SocketPath));
  ASSERT_TRUE(Fast.connectTo(Opts.SocketPath));
  // Poll the queue gauges over the (never-queueing) metrics op.
  auto QueueState = [&](const char *Gauge) {
    JsonValue M = parsed(Fast.roundTrip("{\"op\":\"metrics\"}"));
    return metricOf(M, Gauge);
  };
  int Shed = 0, Ok = 0;
  {
    // Wedge the single worker on the first request, fill the queue with
    // the second, then watch the rest shed at admission. Sends are
    // sequenced on the observed gauges: request 2 must not race the
    // worker's pickup of request 1 (it would be shed itself), and the
    // fast requests below must not race the queueing of request 2.
    fault::ScopedFault F(
        {fault::Site::ServeWorker, fault::Action::Stall, "", 1, 0, 1200});
    ASSERT_TRUE(Stalled.sendLine(analyzeReq(Program)));
    for (int I = 0; I < 800 && QueueState("serve.queue.executing") < 1; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(QueueState("serve.queue.executing"), 1);
    ASSERT_TRUE(Stalled.sendLine(analyzeReq(Program)));
    for (int I = 0; I < 800 && QueueState("serve.queue.depth") < 1; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(QueueState("serve.queue.depth"), 1);
    for (int I = 0; I < 4; ++I) {
      JsonValue D = parsed(Fast.roundTrip(analyzeReq(Program)));
      if (errorKind(D) == "shed")
        ++Shed;
      else if (isOk(D))
        ++Ok;
    }
    // Unblock: collect the stalled answers so drain has nothing queued.
    ASSERT_FALSE(Stalled.recvLine().empty());
    ASSERT_FALSE(Stalled.recvLine().empty());
  }
  EXPECT_GT(Shed, 0) << "queue never saturated";
  JsonValue M = parsed(Fast.roundTrip("{\"op\":\"metrics\"}"));
  ASSERT_TRUE(isOk(M));
  EXPECT_EQ(metricOf(M, "serve.shed"), Shed);
  double Admitted = metricOf(M, "serve.analyze.admitted");
  EXPECT_EQ(Admitted, 6);
  EXPECT_EQ(Admitted, metricOf(M, "serve.analyze.responded") +
                          metricOf(M, "serve.shed") +
                          metricOf(M, "serve.analyze.failed"));
  Server->requestDrain();
  Server->waitDrained();

  std::vector<std::string> Lines = logLines(Opts.LogPath);
  ASSERT_EQ(Lines.size(), 6u);
  int LoggedShed = 0;
  for (const std::string &L : Lines) {
    Result<JsonValue> Doc = parseJson(L);
    ASSERT_TRUE(Doc.hasValue()) << L;
    if (Doc->find("outcome")->asString() == "shed") {
      ++LoggedShed;
      EXPECT_EQ(Doc->find("errorKind")->asString(), "shed") << L;
    }
  }
  EXPECT_EQ(LoggedShed, Shed);
}

#endif // CPSFLOW_FAULT_INJECTION

} // namespace
