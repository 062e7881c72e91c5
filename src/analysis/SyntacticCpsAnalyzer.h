//===- analysis/SyntacticCpsAnalyzer.h - Figure 6 analyzer ------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic-CPS abstract collecting interpreter M_e^s of Figure 6,
/// derived from the Figure 3 interpreter. Abstract values are triples
/// (number, closures, continuations): because the CPS transformation
/// reifies the continuation into an ordinary value, the analysis must
/// *collect*, at each continuation variable k, the set of continuations k
/// may denote.
///
/// Characteristic behaviour:
///
///  * At a return `(k W)`, *every* continuation collected at k is applied
///    and the results merged — Section 6.1's *false return*: distinct
///    procedure returns are confused (Theorem 5.1's loss vs the direct
///    analysis, Theorem 5.5's loss vs the semantic-CPS analysis).
///  * At a conditional, each branch is a complete CPS program carrying its
///    continuation, so non-distributive information is propagated per
///    branch — Theorem 5.2's win over the direct analysis.
///  * The `loopk` rule mirrors the Figure 5 loop rule and is likewise
///    uncomputable exactly; see AnalyzerOptions::LoopUnroll.
///
/// Termination uses the Section 4.4 cut with the least precise value
/// (T, CL_T, K_T).
///
/// `SyntacticCpsAnalyzer` lowers the program once to the flat label
/// arena of cps/CpsIr.h, whose lambda/continuation enumeration *is* the
/// closure and continuation universe, and runs `detail::SynIrEngine`
/// (SyntacticIrEngine.h) over it. The only choice left is the packed set
/// type (domain/PackedSet.h): `Bits128` when both universes fit in it,
/// `WideBits` otherwise. Both produce the same answers and counters.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_SYNTACTICCPSANALYZER_H
#define CPSFLOW_ANALYSIS_SYNTACTICCPSANALYZER_H

#include "analysis/Common.h"
#include "analysis/SyntacticIrEngine.h"
#include "analysis/Universe.h"
#include "cps/CpsIr.h"
#include "cps/Transform.h"
#include "domain/AbsStore.h"
#include "domain/AbsValue.h"
#include "domain/PackedSet.h"
#include "domain/StoreInterner.h"

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// The Figure 6 analyzer facade. Single-use: construct, run() once,
/// then (optionally) consult universes and the interner.
template <typename D> class SyntacticCpsAnalyzer {
public:
  using Val = domain::CpsAbsVal<D>;
  using StoreT = domain::AbsStore<Val>;
  using Answer = AnswerOf<Val>;

  SyntacticCpsAnalyzer(const Context &Ctx, const cps::CpsProgram &Program,
                       std::vector<CpsBinding<D>> Initial = {},
                       AnalyzerOptions Opts = AnalyzerOptions())
      : Ctx(Ctx), Program(Program), Initial(std::move(Initial)), Opts(Opts) {
    std::vector<const cps::CpsLam *> ExtraLams;
    std::vector<Symbol> ExtraVars;
    for (const CpsBinding<D> &B : this->Initial) {
      ExtraVars.push_back(B.Var);
      for (const domain::CpsCloRef &C : B.Value.Clos)
        if (C.Tag == domain::CpsCloRef::K::Lam)
          ExtraLams.push_back(C.Lam);
    }
    Vars = std::make_shared<domain::VarIndex>(
        cpsVariableUniverse(Program, ExtraLams, ExtraVars));
    Ir = cps::buildCpsIr(Program, ExtraLams,
                         [this](Symbol S) { return Vars->of(S); });

    std::vector<domain::CpsCloRef> Clos{domain::CpsCloRef::inck(),
                                        domain::CpsCloRef::deck()};
    for (const cps::CpsIr::LamNode &L : Ir.Lams)
      Clos.push_back(domain::CpsCloRef::lam(L.Src));
    CloTop = domain::CpsCloSet::of(std::move(Clos));
    std::vector<domain::KontRef> Konts{domain::KontRef::stop()};
    for (const cps::CpsIr::ContNode &C : Ir.Conts)
      Konts.push_back(domain::KontRef::cont(C.Src));
    KontTop = domain::KontSet::of(std::move(Konts));
    // The arena's lambdas and continuations are id-sorted and distinct,
    // so universe element i is packed-set bit i.
    assert(CloTop.size() == 2 + Ir.Lams.size() &&
           KontTop.size() == 1 + Ir.Conts.size());
  }

  /// Runs the analysis with TopK bound to {stop} (Section 5.1's initial
  /// store entry k |-> (bot, {}, {stop})).
  SyntacticResult<D> run() {
    if (domain::Bits128::holds(CloTop.size()) &&
        domain::Bits128::holds(KontTop.size()))
      return runWith(Narrow);
    return runWith(Wide);
  }

  const domain::CpsCloSet &closureUniverse() const { return CloTop; }
  const domain::KontSet &kontUniverse() const { return KontTop; }

  /// The run's hash-consing table (observability: distinct stores seen;
  /// resolves provenance StoreIds). Before run(), an empty table.
  const domain::StoreInterner<Val> &interner() const {
    if (Narrow)
      return Narrow->publicInterner();
    if (Wide)
      return Wide->publicInterner();
    if (!EmptyInterner) {
      EmptyInterner = std::make_unique<domain::StoreInterner<Val>>();
      EmptyInterner->reset(Vars->size());
    }
    return *EmptyInterner;
  }

private:
  template <typename Engine>
  SyntacticResult<D> runWith(std::unique_ptr<Engine> &Slot) {
    Slot = std::make_unique<Engine>(std::move(Ir), Vars, Initial,
                                    Vars->of(Program.TopK), Opts);
    return Slot->run();
  }

  const Context &Ctx;
  const cps::CpsProgram &Program;
  std::vector<CpsBinding<D>> Initial;
  AnalyzerOptions Opts;

  std::shared_ptr<domain::VarIndex> Vars;
  cps::CpsIr Ir;
  domain::CpsCloSet CloTop;
  domain::KontSet KontTop;

  std::unique_ptr<detail::SynIrEngine<D, domain::Bits128>> Narrow;
  std::unique_ptr<detail::SynIrEngine<D, domain::WideBits>> Wide;
  mutable std::unique_ptr<domain::StoreInterner<Val>> EmptyInterner;
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_SYNTACTICCPSANALYZER_H
