//===- serve/Protocol.cpp - Serve wire protocol -----------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "analysis/PushdownAnalyzer.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <cmath>

using namespace cpsflow;
using namespace cpsflow::serve;

const char *cpsflow::serve::str(ServeErrorKind K) {
  switch (K) {
  case ServeErrorKind::Parse:
    return "parse";
  case ServeErrorKind::Cps:
    return "cps";
  case ServeErrorKind::Deadline:
    return "deadline";
  case ServeErrorKind::Memory:
    return "memory";
  case ServeErrorKind::Internal:
    return "internal";
  case ServeErrorKind::Shed:
    return "shed";
  case ServeErrorKind::Protocol:
    return "protocol";
  }
  return "internal";
}

namespace {

bool knownDomain(const std::string &D) {
  return D == "constant" || D == "unit" || D == "sign" || D == "parity" ||
         D == "interval";
}

/// A non-negative integral number, or an error. Guards against "maxGoals":
/// 1.5 or -3 silently truncating.
Result<uint64_t> asCount(const JsonValue &V, const char *Field) {
  if (!V.isNumber())
    return Error(std::string("field '") + Field + "' must be a number");
  double N = V.asNumber();
  if (N < 0 || N != std::floor(N) || N > 9e15)
    return Error(std::string("field '") + Field +
                 "' must be a non-negative integer");
  return static_cast<uint64_t>(N);
}

} // namespace

Result<ServeRequest> cpsflow::serve::parseServeRequest(const std::string &Line) {
  if (Line.size() > MaxRequestBytes)
    return Error("request line exceeds " + std::to_string(MaxRequestBytes) +
                 " bytes");
  JsonParseOptions Opts;
  Opts.MaxDepth = MaxRequestJsonDepth;
  Result<JsonValue> Doc = parseJson(Line, Opts);
  if (!Doc)
    return Doc.error();
  if (!Doc->isObject())
    return Error("request must be a JSON object");

  ServeRequest Req;
  bool SawOp = false;
  bool SawFormat = false;
  for (const auto &[Key, Val] : Doc->members()) {
    if (Key == "op") {
      if (!Val.isString())
        return Error("field 'op' must be a string");
      const std::string &Op = Val.asString();
      if (Op == "analyze")
        Req.Kind = ServeRequest::Op::Analyze;
      else if (Op == "health")
        Req.Kind = ServeRequest::Op::Health;
      else if (Op == "stats")
        Req.Kind = ServeRequest::Op::Stats;
      else if (Op == "shutdown")
        Req.Kind = ServeRequest::Op::Shutdown;
      else if (Op == "metrics")
        Req.Kind = ServeRequest::Op::Metrics;
      else if (Op == "dump")
        Req.Kind = ServeRequest::Op::Dump;
      else
        return Error("unknown op '" + Op + "'");
      SawOp = true;
    } else if (Key == "id") {
      Result<uint64_t> N = asCount(Val, "id");
      if (!N)
        return N.error();
      Req.Id = *N;
      Req.HasId = true;
    } else if (Key == "program") {
      if (!Val.isString())
        return Error("field 'program' must be a string");
      Req.Program = Val.asString();
    } else if (Key == "analyzer") {
      // Canonicalize through the shared analyzer-name registry so aliases
      // (pd, scps, ...) resolve here exactly as in the CLI — and so the
      // result cache, keyed on the canonical spelling, never splits one
      // analyzer's results across an alias and its canonical name.
      std::optional<std::string> Canon;
      if (Val.isString())
        Canon = analysis::canonicalAnalyzerName(Val.asString());
      if (!Canon)
        return Error(std::string("field 'analyzer' must be one of ") +
                     analysis::knownAnalyzerNames() + " (aliases: " +
                     analysis::knownAnalyzerAliases() + ")");
      Req.Analyzer = *Canon;
    } else if (Key == "domain") {
      if (!Val.isString() || !knownDomain(Val.asString()))
        return Error("field 'domain' must be one of "
                     "constant|unit|sign|parity|interval");
      Req.Domain = Val.asString();
    } else if (Key == "maxGoals") {
      Result<uint64_t> N = asCount(Val, "maxGoals");
      if (!N)
        return N.error();
      Req.MaxGoals = *N;
    } else if (Key == "loopUnroll") {
      Result<uint64_t> N = asCount(Val, "loopUnroll");
      if (!N)
        return N.error();
      if (*N > 1u << 20)
        return Error("field 'loopUnroll' is unreasonably large");
      Req.LoopUnroll = static_cast<uint32_t>(*N);
    } else if (Key == "dupBudget") {
      Result<uint64_t> N = asCount(Val, "dupBudget");
      if (!N)
        return N.error();
      Req.DupBudget = *N;
    } else if (Key == "deadlineMs") {
      Result<uint64_t> N = asCount(Val, "deadlineMs");
      if (!N)
        return N.error();
      Req.DeadlineMs = static_cast<double>(*N);
    } else if (Key == "summaries") {
      if (!Val.isBool())
        return Error("field 'summaries' must be a boolean");
      Req.UseSummaries = Val.asBool();
    } else if (Key == "noCache") {
      if (!Val.isBool())
        return Error("field 'noCache' must be a boolean");
      Req.NoCache = Val.asBool();
    } else if (Key == "incremental") {
      // Accepted and ignored: every request runs cold. Still type-checked
      // so old clients keep working and a malformed value stays an error.
      if (!Val.isBool())
        return Error("field 'incremental' must be a boolean");
    } else if (Key == "format") {
      if (!Val.isString() ||
          (Val.asString() != "json" && Val.asString() != "prometheus"))
        return Error("field 'format' must be \"json\" or \"prometheus\"");
      Req.Format = Val.asString();
      SawFormat = true;
    } else {
      return Error("unknown field '" + Key + "'");
    }
  }

  if (!SawOp)
    return Error("request needs an 'op' field");
  if (Req.Kind == ServeRequest::Op::Analyze && Req.Program.empty())
    return Error("analyze needs a non-empty 'program' field");
  if (SawFormat && Req.Kind != ServeRequest::Op::Metrics)
    return Error("field 'format' only applies to op 'metrics'");
  return Req;
}

std::string cpsflow::serve::errorResponse(const ServeRequest *Req,
                                          ServeErrorKind Kind,
                                          const std::string &Message) {
  JsonWriter W;
  W.beginObject();
  W.key("ok");
  W.value(false);
  if (Req && Req->HasId) {
    W.key("id");
    W.value(Req->Id);
  }
  W.key("error");
  W.beginObject();
  W.key("kind");
  W.value(str(Kind));
  W.key("message");
  W.value(Message);
  W.endObject();
  W.endObject();
  return W.str();
}

std::string cpsflow::serve::analyzeResponse(const ServeRequest &Req,
                                            const std::string &PayloadJson,
                                            bool Cached) {
  std::string Out = "{\"ok\":true";
  if (Req.HasId) {
    Out += ",\"id\":";
    Out += std::to_string(Req.Id);
  }
  Out += ",\"cached\":";
  Out += Cached ? "true" : "false";
  Out += ",\"result\":";
  Out += PayloadJson;
  Out += "}";
  return Out;
}
