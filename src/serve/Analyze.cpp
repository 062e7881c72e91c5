//===- serve/Analyze.cpp - One contained serve analysis -------------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Analyze.h"

#include "analysis/Compare.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/DupAnalyzer.h"
#include "analysis/PushdownAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "support/FaultInjector.h"
#include "support/Json.h"
#include "syntax/Analysis.h"
#include "syntax/Sugar.h"

#include <exception>
#include <new>

using namespace cpsflow;
using namespace cpsflow::serve;

namespace {

AnalyzeOutcome fail(ServeErrorKind Kind, std::string Message) {
  AnalyzeOutcome Out;
  Out.Kind = Kind;
  Out.Message = std::move(Message);
  return Out;
}

/// Renders the deterministic result payload: same stats vocabulary as a
/// batch program record, minus every timing field, plus the leg identity
/// (a batch record carries all four legs; a serve response carries one).
AnalyzeOutcome renderResult(const Context &Ctx, const ServeRequest &Req,
                            uint64_t Nodes, const std::string &Answer,
                            const analysis::AnalyzerStats &Stats) {
  AnalyzeOutcome Out;
  Out.Ok = true;
  Out.Degraded = Stats.Degraded != support::DegradeReason::None ||
                 Stats.BudgetExhausted;
  Out.Answer = Answer;
  (void)Ctx;

  JsonWriter W;
  W.beginObject();
  W.key("analyzer").value(Req.Analyzer);
  W.key("domain").value(Req.Domain);
  W.key("nodes").value(Nodes);
  W.key("answer").value(Answer);
  W.key("stats").beginObject();
  W.key("goals").value(Stats.Goals);
  W.key("cacheHits").value(Stats.CacheHits);
  W.key("cuts").value(Stats.Cuts);
  W.key("joins").value(Stats.Joins);
  W.key("callMerges").value(Stats.CallMerges);
  W.key("maxDepth").value(Stats.MaxDepth);
  W.key("deadPaths").value(Stats.DeadPaths);
  W.key("prunedBranches").value(Stats.PrunedBranches);
  W.key("memoEntries").value(Stats.MemoEntries);
  W.key("stores").value(Stats.InternedStores);
  W.key("storeBytes").value(Stats.InternerBytes);
  W.key("budgetExhausted").value(Stats.BudgetExhausted);
  W.key("degradeReason").value(support::str(Stats.Degraded));
  W.key("loopBounded").value(Stats.LoopBounded);
  W.key("summaryHits").value(Stats.SummaryHits);
  W.key("summaryMisses").value(Stats.SummaryMisses);
  W.key("summaryEntries").value(Stats.SummaryEntries);
  W.key("summaryReuseDepth");
  Stats.SummaryReuseDepth.writeJson(W);
  W.endObject();
  W.endObject();
  Out.PayloadJson = W.str();
  Out.Goals = Stats.Goals;
  Out.DegradeReason = support::str(Stats.Degraded);
  return Out;
}

/// Microseconds elapsed since \p T0.
double usSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

template <typename D>
AnalyzeOutcome analyzeLeg(const ServeRequest &Req, const AnalyzeConfig &Cfg) {
  Context Ctx;
  double ParseUs = 0, CpsUs = 0;

  auto TParse = std::chrono::steady_clock::now();
  support::TraceSpan ParseSpan(Cfg.Trace, "parse", "phase", Cfg.TraceTid);
  Result<const syntax::Term *> Parsed =
      syntax::parseSugaredProgram(Ctx, Req.Program);
  if (!Parsed) {
    AnalyzeOutcome Out = fail(ServeErrorKind::Parse,
                              "parse error: " + Parsed.error().str());
    Out.ParseUs = usSince(TParse);
    return Out;
  }
  const syntax::Term *Anf = anf::normalizeProgram(Ctx, *Parsed);
  uint64_t Nodes = syntax::countNodes(Anf);
  ParseSpan.close();
  ParseUs = usSince(TParse);

  auto TCps = std::chrono::steady_clock::now();
  support::TraceSpan CpsSpan(Cfg.Trace, "cps", "phase", Cfg.TraceTid);
  Result<cps::CpsProgram> Cps = cps::cpsTransform(Ctx, Anf);
  if (!Cps) {
    AnalyzeOutcome Out =
        fail(ServeErrorKind::Cps, "cps error: " + Cps.error().str());
    Out.ParseUs = ParseUs;
    Out.CpsUs = usSince(TCps);
    return Out;
  }
  CpsSpan.close();
  CpsUs = usSince(TCps);

  // Free inputs bind to numeric top, like the batch driver: every request
  // for the same source sees the same closed problem.
  std::vector<analysis::DirectBinding<D>> Init;
  for (Symbol X : syntax::freeVars(Anf))
    Init.push_back({X, domain::AbsVal<D>::number(D::top())});
  std::vector<analysis::CpsBinding<D>> CInit;
  for (const analysis::DirectBinding<D> &B : Init)
    CInit.push_back({B.Var, analysis::deltaE<D>(B.Value, *Cps)});

  analysis::AnalyzerOptions AOpts;
  AOpts.MaxGoals = Cfg.MaxGoals;
  AOpts.LoopUnroll = Req.LoopUnroll;
  AOpts.UseSummaries = Req.UseSummaries;
  AOpts.Trace = Cfg.Trace;
  AOpts.TraceTid = Cfg.TraceTid;
  support::GovernorLimits Limits;
  Limits.MaxStoreBytes = Cfg.MaxStoreBytes;
  Limits.MaxDepth = Cfg.MaxDepth;
  Limits.Interrupt = Cfg.Interrupt;
  Limits.deadlineIn(Cfg.DeadlineMs);
  AOpts.Governor = Limits;

  auto TAnalyze = std::chrono::steady_clock::now();
  support::TraceSpan AnalyzeSpan(Cfg.Trace, "analyze:" + Req.Analyzer,
                                 "phase", Cfg.TraceTid);
  AnalyzeOutcome Out = [&]() -> AnalyzeOutcome {
  if (Req.Analyzer == "direct") {
    auto R = analysis::DirectAnalyzer<D>(Ctx, Anf, Init, AOpts).run();
    return renderResult(Ctx, Req, Nodes, R.Answer.Value.str(Ctx), R.Stats);
  }
  if (Req.Analyzer == "semantic") {
    auto R = analysis::SemanticCpsAnalyzer<D>(Ctx, Anf, Init, AOpts).run();
    return renderResult(Ctx, Req, Nodes, R.Answer.Value.str(Ctx), R.Stats);
  }
  if (Req.Analyzer == "syntactic") {
    auto R =
        analysis::SyntacticCpsAnalyzer<D>(Ctx, *Cps, CInit, AOpts).run();
    return renderResult(Ctx, Req, Nodes, R.Answer.Value.str(Ctx), R.Stats);
  }
  if (Req.Analyzer == "dup") {
    auto R = analysis::DupAnalyzer<D>(Ctx, Anf, Init, Req.DupBudget, AOpts)
                 .run();
    return renderResult(Ctx, Req, Nodes, R.Answer.Value.str(Ctx), R.Stats);
  }
  if (Req.Analyzer == "pushdown") {
    auto R = analysis::PushdownAnalyzer<D>(Ctx, Anf, Init, AOpts).run();
    return renderResult(Ctx, Req, Nodes, R.Answer.Value.str(Ctx), R.Stats);
  }
  return fail(ServeErrorKind::Internal,
              "unknown analyzer '" + Req.Analyzer + "'");
  }();
  AnalyzeSpan.close();
  Out.AnalyzeUs = usSince(TAnalyze);
  Out.ParseUs = ParseUs;
  Out.CpsUs = CpsUs;
  return Out;
}

AnalyzeOutcome dispatchDomain(const ServeRequest &Req,
                              const AnalyzeConfig &Cfg) {
  if (Req.Domain == "constant")
    return analyzeLeg<domain::ConstantDomain>(Req, Cfg);
  if (Req.Domain == "unit")
    return analyzeLeg<domain::UnitDomain>(Req, Cfg);
  if (Req.Domain == "sign")
    return analyzeLeg<domain::SignDomain>(Req, Cfg);
  if (Req.Domain == "parity")
    return analyzeLeg<domain::ParityDomain>(Req, Cfg);
  if (Req.Domain == "interval")
    return analyzeLeg<domain::IntervalDomain>(Req, Cfg);
  return fail(ServeErrorKind::Internal,
              "unknown domain '" + Req.Domain + "'");
}

} // namespace

AnalyzeOutcome cpsflow::serve::runServeAnalyze(const ServeRequest &Req,
                                               const AnalyzeConfig &Cfg,
                                               uint64_t RequestOrdinal) {
  (void)RequestOrdinal;
  try {
    CPSFLOW_FAULT_COUNTED(fault::Site::ServeWorker, RequestOrdinal);
    return dispatchDomain(Req, Cfg);
  } catch (const std::bad_alloc &) {
    return fail(ServeErrorKind::Memory, "contained failure: out of memory");
  } catch (const std::exception &Ex) {
    return fail(ServeErrorKind::Internal,
                std::string("contained failure: ") + Ex.what());
  } catch (...) {
    return fail(ServeErrorKind::Internal,
                "contained failure: unknown exception");
  }
}
