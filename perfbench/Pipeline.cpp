//===- perfbench/Pipeline.cpp - The traced in-process pipeline ------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "analysis/Compare.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/DupAnalyzer.h"
#include "analysis/PushdownAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "syntax/Analysis.h"
#include "syntax/Sugar.h"

namespace perfbench {

using namespace cpsflow;
using D = domain::ConstantDomain;

Span::Span(SpanLog *Log, std::string Name, uint64_t Parent, uint64_t Id)
    : Log(Log), Name(std::move(Name)), Seq(Log ? Log->nextSpan() : 0),
      Parent(Parent), Id(Id), StartUs(Log ? Log->Trace.nowUs() : 0),
      Start(std::chrono::steady_clock::now()) {}

double Span::close() {
  if (Ms >= 0)
    return Ms;
  Ms = std::chrono::duration<double, std::milli>(
           std::chrono::steady_clock::now() - Start)
           .count();
  if (Log)
    Log->Trace.span(std::move(Name), "perfbench", StartUs,
                    Log->Trace.nowUs() - StartUs, /*Tid=*/0,
                    {{"span", Seq}, {"parent", Parent}, {"id", Id}});
  return Ms;
}

namespace {

template <typename Analyzer>
void runLeg(LegRun &Out, const Context &Ctx, Analyzer &&A, SpanLog *Log,
            const char *Leg, uint64_t Parent, uint64_t Id) {
  Span S(Log, std::string("analysis.") + Leg, Parent, Id);
  auto R = A.run();
  Out.Ms = S.close();
  Out.Ran = true;
  Out.Answer = R.Answer.Value.str(Ctx);
  Out.Stats = R.Stats;
}

} // namespace

bool degraded(const analysis::AnalyzerStats &S) {
  return S.BudgetExhausted || S.Degraded != support::DegradeReason::None;
}

PipelineRun runPipeline(const NamedProgram &P, unsigned LegMask,
                        SpanLog *Log, uint64_t Id) {
  // Every knob comes from a default BatchOptions, so the pipeline tracks
  // whatever `cpsflow batch` does by default.
  const clients::BatchOptions Defaults;
  PipelineRun Out;
  Out.Name = P.Name;
  Span Whole(Log, "program", 0, Id);

  Context Ctx;
  Span ParseSpan(Log, "syntax.parse", Whole.seq(), Id);
  Result<const syntax::Term *> Parsed =
      syntax::parseSugaredProgram(Ctx, P.Source);
  Out.ParseMs = ParseSpan.close();
  if (!Parsed) {
    Out.Error = "parse error: " + Parsed.error().str();
    Out.TotalMs = Whole.close();
    return Out;
  }

  Span AnfSpan(Log, "anf.normalize", Whole.seq(), Id);
  const syntax::Term *Anf = anf::normalizeProgram(Ctx, *Parsed);
  Out.AnfMs = AnfSpan.close();
  Out.Nodes = syntax::countNodes(Anf);

  Span CpsSpan(Log, "cps.transform", Whole.seq(), Id);
  Result<cps::CpsProgram> Cps = cps::cpsTransform(Ctx, Anf);
  Out.CpsMs = CpsSpan.close();
  if (!Cps) {
    Out.Error = "cps error: " + Cps.error().str();
    Out.TotalMs = Whole.close();
    return Out;
  }

  // Free inputs are bound to the numeric top, as the batch driver does.
  std::vector<analysis::DirectBinding<D>> Init;
  for (Symbol X : syntax::freeVars(Anf))
    Init.push_back({X, domain::AbsVal<D>::number(D::top())});
  std::vector<analysis::CpsBinding<D>> CInit;
  for (const analysis::DirectBinding<D> &B : Init)
    CInit.push_back({B.Var, analysis::deltaE<D>(B.Value, *Cps)});

  analysis::AnalyzerOptions AOpts;
  AOpts.MaxGoals = Defaults.MaxGoals;
  AOpts.LoopUnroll = Defaults.LoopUnroll;
  AOpts.UseSummaries = Defaults.UseSummaries;

  const uint64_t W = Whole.seq();
  if (LegMask & 1u)
    runLeg(Out.Legs[0], Ctx, analysis::DirectAnalyzer<D>(Ctx, Anf, Init, AOpts),
           Log, Legs[0], W, Id);
  if (LegMask & 2u)
    runLeg(Out.Legs[1], Ctx,
           analysis::SemanticCpsAnalyzer<D>(Ctx, Anf, Init, AOpts), Log,
           Legs[1], W, Id);
  if (LegMask & 4u)
    runLeg(Out.Legs[2], Ctx,
           analysis::SyntacticCpsAnalyzer<D>(Ctx, *Cps, CInit, AOpts), Log,
           Legs[2], W, Id);
  if (LegMask & 8u)
    runLeg(Out.Legs[3], Ctx,
           analysis::DupAnalyzer<D>(Ctx, Anf, Init, Defaults.DupBudget, AOpts),
           Log, Legs[3], W, Id);
  if (LegMask & 16u)
    runLeg(Out.Legs[4], Ctx,
           analysis::PushdownAnalyzer<D>(Ctx, Anf, Init, AOpts), Log, Legs[4],
           W, Id);
  Out.Ok = true;
  Out.TotalMs = Whole.close();
  return Out;
}

clients::BatchProgramResult toBatchRecord(const PipelineRun &R) {
  clients::BatchProgramResult B;
  B.Name = R.Name;
  B.Ok = R.Ok;
  B.Error = R.Error;
  B.Nodes = R.Nodes;
  clients::BatchAnalyzerRecord *Recs[NumLegs] = {&B.Direct, &B.Semantic,
                                                 &B.Syntactic, &B.Dup,
                                                 &B.Pushdown};
  for (unsigned L = 0; L < NumLegs; ++L) {
    Recs[L]->Answer = R.Legs[L].Answer;
    Recs[L]->Stats = R.Legs[L].Stats;
    Recs[L]->WallMs = R.Legs[L].Ms;
  }
  return B;
}

} // namespace perfbench
