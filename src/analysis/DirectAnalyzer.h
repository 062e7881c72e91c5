//===- analysis/DirectAnalyzer.h - Figure 4 analyzer ------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The direct abstract collecting interpreter M_e of Figure 4, derived
/// from the Figure 1 interpreter by the Section 4 abstraction: one store
/// location per variable, environments dropped, numbers approximated by a
/// numeric domain D, closures by the powerset of (binder, body) pairs.
///
/// Characteristic behaviour (the subject of the paper's comparisons):
///
///  * At an application, *all* abstract closures of the operator are
///    applied and their answers *joined* before the let-body (the
///    continuation) is analyzed once — Theorem 5.2b's precision loss.
///  * At a conditional with an unknown test, both branches are analyzed
///    and their answers joined before the continuation — Theorem 5.2a's
///    precision loss.
///  * There is only ever one implicit continuation, so distinct procedure
///    returns are never confused — Theorem 5.1's precision *win* over the
///    syntactic-CPS analyzer.
///  * The `loop` rule is exact and computable: the join of all naturals
///    is just the numeric domain's summary (Section 6.2).
///
/// Termination follows Section 4.4: a goal whose (term, store) pair is
/// already on the active derivation path is cut off with the least precise
/// value (T, CL_T) paired with the current store. Completed subderivations
/// are memoized; results that depended on a cut through an enclosing goal
/// are provisional and are not cached (they are not context-independent).
///
/// Stores are hash-consed in a per-run StoreInterner: evaluation, the
/// memo table, and the active path all name stores by StoreId, so a goal
/// key is (node pointer, id) — O(1) to build, hash, and compare — and
/// sigma updates are copy-on-write joins that reuse the parent store when
/// nothing moved. Dense stores appear only at the run() boundary.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_DIRECTANALYZER_H
#define CPSFLOW_ANALYSIS_DIRECTANALYZER_H

#include "analysis/Cfg.h"
#include "analysis/Common.h"
#include "analysis/Universe.h"
#include "anf/Anf.h"
#include "domain/AbsStore.h"
#include "domain/AbsValue.h"
#include "domain/StoreInterner.h"
#include "syntax/Analysis.h"
#include "syntax/Ast.h"
#include "syntax/Printer.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// One entry of the initial abstract store (e.g. Theorem 5.1 binds f to
/// the identity closure, z to T).
template <typename D> struct DirectBinding {
  Symbol Var;
  domain::AbsVal<D> Value;
};

/// Result of a Figure 4 run.
template <typename D> struct DirectResult {
  using Val = domain::AbsVal<D>;

  AnswerOf<Val> Answer;
  AnalyzerStats Stats;
  DirectCfg Cfg;
  std::shared_ptr<domain::VarIndex> Vars;

  /// The final abstract store entry of \p X (bottom if outside the
  /// universe).
  Val valueOf(Symbol X) const {
    if (auto I = Vars->tryOf(X))
      return Answer.Store.get(*I);
    return Val::bot();
  }
};

/// The Figure 4 analyzer, parameterized by the numeric domain \p D
/// (domain/NumDomain.h). Single-use: construct and call run() once.
template <typename D> class DirectAnalyzer {
public:
  using Val = domain::AbsVal<D>;
  using StoreT = domain::AbsStore<Val>;
  using Answer = AnswerOf<Val>;

  /// \pre \p Program is in A-normal form with unique binders; the lambdas
  /// referenced by \p Initial use binders disjoint from \p Program's.
  DirectAnalyzer(const Context &Ctx, const syntax::Term *Program,
                 std::vector<DirectBinding<D>> Initial = {},
                 AnalyzerOptions Opts = AnalyzerOptions())
      : Ctx(Ctx), Program(Program), Initial(std::move(Initial)), Opts(Opts) {
    assert(anf::isAnfQuick(Program) && "Figure 4 requires A-normal form");

    std::vector<const syntax::LamValue *> ExtraLams;
    std::vector<Symbol> ExtraVars;
    for (const DirectBinding<D> &B : this->Initial) {
      ExtraVars.push_back(B.Var);
      for (const domain::CloRef &C : B.Value.Clos)
        if (C.Tag == domain::CloRef::K::Lam)
          ExtraLams.push_back(C.Lam);
    }
    Vars = std::make_shared<domain::VarIndex>(
        directVariableUniverse(Program, ExtraLams, ExtraVars));
    CloTop = directClosureUniverse(Program, ExtraLams);
    Interner.attachMetrics(this->Opts.Metrics);
    Interner.reset(Vars->size());
  }

  /// Runs the analysis from the initial store.
  DirectResult<D> run() {
    domain::StoreId Sigma0 = Interner.bottom();
    for (const DirectBinding<D> &B : Initial) {
      domain::StoreId Next = Interner.joinAt(Sigma0, Vars->of(B.Var), B.Value);
      if (Opts.Prov)
        Opts.Prov->init(Vars->of(B.Var), Next, Sigma0);
      Sigma0 = Next;
    }

    EvalOut Out = evalTerm(Program, Sigma0, 0);
    finalizeRunStats(Stats, Interner, Memo.size(), Opts);
    if (Opts.Prov)
      Opts.Prov->noteFinal(Out.A ? Out.A->Store : Interner.bottom());

    DirectResult<D> R;
    R.Answer = Out.A ? Answer{std::move(Out.A->Value),
                              Interner.store(Out.A->Store)}
                     : Answer{Val::bot(), StoreT(Vars->size())};
    R.Stats = Stats;
    R.Cfg = std::move(Cfg);
    R.Vars = Vars;
    return R;
  }

  /// The universe of abstract closures CL_T (program and initial-store
  /// lambdas plus inc and dec), used for the Section 4.4 cut-off value.
  const domain::CloSet &closureUniverse() const { return CloTop; }

  /// The run's hash-consing table (observability: distinct stores seen).
  const domain::StoreInterner<Val> &interner() const { return Interner; }

private:
  static constexpr uint32_t Unconstrained =
      std::numeric_limits<uint32_t>::max();

  using IAns = InternedAnswerOf<Val>;

  /// An answer plus the shallowest active ancestor the subderivation was
  /// cut against (Unconstrained if none — then the answer is
  /// context-independent and cacheable). A disengaged answer means the
  /// goal is *dead*: the join over zero execution paths (an application
  /// with no abstract closures, or a conditional whose feasible branches
  /// all died). Dead bindings kill the rest of the let chain, mirroring
  /// the CPS analyzers, where a dead path simply never reaches its
  /// continuation.
  struct EvalOut {
    std::optional<IAns> A;
    uint32_t MinDep;
    /// Derivation of the answer *value* (NoProv when provenance is off or
    /// the value is a leaf: literal, lambda, primitive).
    domain::ProvId Prov = domain::NoProv;
  };

  struct Key {
    const void *Node;
    domain::StoreId Store;

    friend bool operator==(const Key &A, const Key &B) {
      return A.Node == B.Node && A.Store == B.Store;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      uint64_t H = hashPointer(K.Node);
      hashCombine(H, K.Store);
      return H;
    }
  };

  /// The Section 4.4 cut-off: the least precise value with the current
  /// store.
  IAns cutAnswer(domain::StoreId Sigma) const {
    Val V;
    V.Num = D::top();
    V.Clos = CloTop;
    return IAns{std::move(V), Sigma};
  }

  // phi_e of Figure 4.
  Val phi(const syntax::Value *V, domain::StoreId Sigma) const {
    using namespace syntax;
    switch (V->kind()) {
    case ValueKind::VK_Num:
      return Val::number(D::constant(cast<NumValue>(V)->value()));
    case ValueKind::VK_Var:
      return Interner.get(Sigma, Vars->of(cast<VarValue>(V)->name()));
    case ValueKind::VK_Prim:
      return Val::closures(domain::CloSet::single(
          cast<PrimValue>(V)->op() == PrimOp::Add1 ? domain::CloRef::inc()
                                                   : domain::CloRef::dec()));
    case ValueKind::VK_Lam:
      return Val::closures(
          domain::CloSet::single(domain::CloRef::lam(cast<LamValue>(V))));
    }
    assert(false && "unknown value kind");
    return Val::bot();
  }

  /// A Cut value node for provenance (goal repetition or budget trip at
  /// \p T). Only called with Opts.Prov non-null.
  domain::ProvId cutProv(const syntax::Term *T,
                         support::DegradeReason R) const {
    return Opts.Prov->value(domain::EdgeKind::Cut, T->id(), T->loc(),
                            domain::NoProv, domain::NoProv, R);
  }

  EvalOut evalTerm(const syntax::Term *T, domain::StoreId Sigma,
                   uint32_t Depth) {
    if (Stats.BudgetExhausted)
      return EvalOut{cutAnswer(Sigma), 0,
                     Opts.Prov ? cutProv(T, Stats.Degraded) : domain::NoProv};
    ++Stats.Goals;
    CPSFLOW_FAULT_COUNTED(fault::Site::AnalyzerGoal, Stats.Goals);
    if (support::DegradeReason R =
            Gov.check(Stats.Goals, Depth, Interner.approxBytes());
        R != support::DegradeReason::None) {
      Stats.BudgetExhausted = true;
      Stats.Degraded = R;
      return EvalOut{cutAnswer(Sigma), 0,
                     Opts.Prov ? cutProv(T, R) : domain::NoProv};
    }
    Stats.MaxDepth = std::max<uint64_t>(Stats.MaxDepth, Depth);

    Key K{T, Sigma};
    observeGoal(Opts, Stats, Depth, Sigma,
                [&] { return Opts.UseMemo && Memo.count(K) != 0; });
    if (auto It = Memo.find(K); Opts.UseMemo && It != Memo.end()) {
      ++Stats.CacheHits;
      return EvalOut{It->second, Unconstrained,
                     Opts.Prov ? Opts.Prov->memoized(T, Sigma)
                               : domain::NoProv};
    }
    if (auto It = Active.find(K); It != Active.end()) {
      ++Stats.Cuts;
      return EvalOut{cutAnswer(Sigma), It->second,
                     Opts.Prov ? cutProv(T, support::DegradeReason::None)
                               : domain::NoProv};
    }
    size_t TraceLine = 0;
    if (Opts.DerivationSink &&
        Opts.DerivationSink->size() < Opts.DerivationMaxLines) {
      TraceLine = Opts.DerivationSink->size();
      Opts.DerivationSink->push_back(
          std::string(std::min<uint32_t>(Depth, 40), ' ') + "(" +
          syntax::print(Ctx, T) + ", sigma) |- ...");
    }

    Active.emplace(K, Depth);
    EvalOut Out = evalUncached(T, Sigma, Depth);
    Active.erase(K);

    if (Opts.DerivationSink && TraceLine < Opts.DerivationSink->size()) {
      std::string &Line = (*Opts.DerivationSink)[TraceLine];
      Line.resize(Line.size() - 3); // drop "..."
      Line += Out.A ? Out.A->Value.str(Ctx) : std::string("dead");
    }
    if (Out.MinDep >= Depth && !Stats.BudgetExhausted) {
      if (Opts.UseMemo) {
        Memo.emplace(K, Out.A);
        if (Opts.Prov)
          Opts.Prov->memoize(T, Sigma, Out.Prov);
      }
      Out.MinDep = Unconstrained;
    }
    return Out;
  }

  /// Provenance of a value form: variables derive from the store fact
  /// they read; literals, lambdas, and primitives are leaves.
  domain::ProvId provOfValue(const syntax::Value *V,
                             domain::StoreId Sigma) const {
    if (const auto *Var = syntax::dyn_cast<syntax::VarValue>(V))
      return Opts.Prov->factOf(Vars->of(Var->name()), Sigma);
    return domain::NoProv;
  }

  EvalOut evalUncached(const syntax::Term *T, domain::StoreId Sigma,
                       uint32_t Depth) {
    using namespace syntax;

    // (V, sigma) M_e ((phi_e(V, sigma), sigma)).
    if (const auto *VT = dyn_cast<ValueTerm>(T))
      return EvalOut{IAns{phi(VT->value(), Sigma), Sigma}, Unconstrained,
                     Opts.Prov ? provOfValue(VT->value(), Sigma)
                               : domain::NoProv};

    const auto *Let = cast<LetTerm>(T);
    const Term *Bound = Let->bound();
    uint32_t X = Vars->of(Let->var());

    switch (Bound->kind()) {
    case TermKind::TK_Value: {
      // (let (x V) M): continue with sigma[x := sigma(x) join u].
      Val U = phi(cast<ValueTerm>(Bound)->value(), Sigma);
      domain::StoreId S = Interner.joinAt(Sigma, X, U);
      if (Opts.Prov)
        Opts.Prov->assign(domain::EdgeKind::Flow, X, S, Sigma, Let->id(),
                          Let->loc(),
                          provOfValue(cast<ValueTerm>(Bound)->value(), Sigma));
      return evalTerm(Let->body(), S, Depth + 1);
    }

    case TermKind::TK_App: {
      // (let (x (V1 V2)) M): app_e joins over all closures, then the body
      // is analyzed once in the joined store.
      const auto *App = cast<AppTerm>(Bound);
      Val Fun = phi(cast<ValueTerm>(App->fun())->value(), Sigma);
      Val Arg = phi(cast<ValueTerm>(App->arg())->value(), Sigma);

      domain::CloSet &Rec = Cfg.Callees[App];
      for (const domain::CloRef &C : Fun.Clos)
        Rec.insert(C);

      if (Fun.Clos.empty()) {
        ++Stats.DeadPaths; // join over no paths
        return EvalOut{std::nullopt, Unconstrained};
      }

      std::optional<IAns> Acc;
      uint32_t MinDep = Unconstrained;
      domain::ProvId AccProv = domain::NoProv;
      domain::ProvId ArgProv =
          Opts.Prov ? provOfValue(cast<ValueTerm>(App->arg())->value(), Sigma)
                    : domain::NoProv;
      uint64_t Merged = 0;
      for (const domain::CloRef &C : Fun.Clos) {
        std::optional<IAns> Ai;
        domain::ProvId AiProv = domain::NoProv;
        switch (C.Tag) {
        case domain::CloRef::K::Inc:
          Ai = IAns{Val::number(D::add1(Arg.Num)), Sigma};
          AiProv = ArgProv;
          break;
        case domain::CloRef::K::Dec:
          Ai = IAns{Val::number(D::sub1(Arg.Num)), Sigma};
          AiProv = ArgProv;
          break;
        case domain::CloRef::K::Lam: {
          domain::StoreId S =
              Interner.joinAt(Sigma, Vars->of(C.Lam->param()), Arg);
          if (Opts.Prov)
            Opts.Prov->assign(domain::EdgeKind::Flow,
                              Vars->of(C.Lam->param()), S, Sigma, App->id(),
                              App->loc(), ArgProv);
          EvalOut R = evalTerm(C.Lam->body(), S, Depth + 1);
          Ai = std::move(R.A);
          AiProv = R.Prov;
          MinDep = std::min(MinDep, R.MinDep);
          break;
        }
        }
        if (Ai) {
          ++Merged;
          if (!Acc) {
            Acc = std::move(*Ai);
            AccProv = AiProv;
          } else if (Opts.Prov) {
            Acc = joinAnswers(Interner, *Acc, *Ai, Opts.Prov,
                              domain::EdgeKind::Join, App->id(), App->loc());
            AccProv = Opts.Prov->value(domain::EdgeKind::Join, App->id(),
                                       App->loc(), AccProv, AiProv);
          } else {
            Acc = joinAnswers(Interner, *Acc, *Ai);
          }
        }
      }
      if (Merged > 1)
        Stats.Joins += Merged - 1; // Theorem 5.2b multi-callee merge
      if (!Acc)
        return EvalOut{std::nullopt, MinDep}; // every callee path died

      domain::StoreId S = Interner.joinAt(Acc->Store, X, Acc->Value);
      if (Opts.Prov)
        Opts.Prov->assign(Merged > 1 ? domain::EdgeKind::Join
                                     : domain::EdgeKind::Flow,
                          X, S, Acc->Store, App->id(), App->loc(), AccProv);
      EvalOut Body = evalTerm(Let->body(), S, Depth + 1);
      Body.MinDep = std::min(Body.MinDep, MinDep);
      return Body;
    }

    case TermKind::TK_If0: {
      // (let (x (if0 V0 M1 M2)) M): single-branch rules, or the *merging*
      // two-branch rule — the values and stores of both branches are
      // joined before M is analyzed once.
      const auto *If = cast<If0Term>(Bound);
      Val U0 = phi(cast<ValueTerm>(If->cond())->value(), Sigma);
      domain::ZeroTest Zt = D::isZero(U0.Num);

      bool ThenOnly = Zt == domain::ZeroTest::Zero && U0.Clos.empty();
      bool ElseOnly = Zt == domain::ZeroTest::NonZero ||
                      Zt == domain::ZeroTest::Bottom;

      BranchInfo &BI = Cfg.Branches[If];
      BI.ThenFeasible |= !ElseOnly;
      BI.ElseFeasible |= !ThenOnly;
      if (ThenOnly || ElseOnly)
        ++Stats.PrunedBranches;

      if (ThenOnly || ElseOnly) {
        const Term *Branch = ThenOnly ? If->thenBranch() : If->elseBranch();
        EvalOut Bi = evalTerm(Branch, Sigma, Depth + 1);
        if (!Bi.A)
          return EvalOut{std::nullopt, Bi.MinDep};
        domain::StoreId S = Interner.joinAt(Bi.A->Store, X, Bi.A->Value);
        if (Opts.Prov)
          Opts.Prov->assign(domain::EdgeKind::Flow, X, S, Bi.A->Store,
                            If->id(), If->loc(), Bi.Prov);
        EvalOut Body = evalTerm(Let->body(), S, Depth + 1);
        Body.MinDep = std::min(Body.MinDep, Bi.MinDep);
        return Body;
      }

      EvalOut B1 = evalTerm(If->thenBranch(), Sigma, Depth + 1);
      EvalOut B2 = evalTerm(If->elseBranch(), Sigma, Depth + 1);
      uint32_t MinDep = std::min(B1.MinDep, B2.MinDep);
      std::optional<IAns> Joined;
      bool BothArms = B1.A && B2.A;
      if (BothArms) {
        ++Stats.Joins; // Theorem 5.2a two-branch merge
        Joined = Opts.Prov
                     ? joinAnswers(Interner, *B1.A, *B2.A, Opts.Prov,
                                   domain::EdgeKind::Join, If->id(),
                                   If->loc())
                     : joinAnswers(Interner, *B1.A, *B2.A);
      } else if (B1.A)
        Joined = std::move(B1.A);
      else if (B2.A)
        Joined = std::move(B2.A);
      if (!Joined)
        return EvalOut{std::nullopt, MinDep}; // both branches died
      domain::StoreId S = Interner.joinAt(Joined->Store, X, Joined->Value);
      if (Opts.Prov) {
        // For the merging rule both branch derivations are parents; for a
        // single surviving branch only its derivation is.
        domain::ProvId VP1 = B1.A || BothArms ? B1.Prov : B2.Prov;
        domain::ProvId VP2 = BothArms ? B2.Prov : domain::NoProv;
        Opts.Prov->assign(BothArms ? domain::EdgeKind::Join
                                   : domain::EdgeKind::Flow,
                          X, S, Joined->Store, If->id(), If->loc(), VP1, VP2);
      }
      EvalOut Body = evalTerm(Let->body(), S, Depth + 1);
      Body.MinDep = std::min(Body.MinDep, MinDep);
      return Body;
    }

    case TermKind::TK_Loop: {
      // (loop, sigma) M_e (join_i (i, {}), sigma): computable exactly —
      // the join of all naturals is the domain's summary element.
      domain::StoreId S = Interner.joinAt(Sigma, X, Val::number(D::naturals()));
      if (Opts.Prov)
        Opts.Prov->assign(domain::EdgeKind::Widen, X, S, Sigma, Let->id(),
                          Let->loc());
      return evalTerm(Let->body(), S, Depth + 1);
    }

    case TermKind::TK_Let:
      assert(false && "not ANF: let-bound let");
      return EvalOut{std::nullopt, Unconstrained};
    }
    assert(false && "unknown term kind");
    return EvalOut{std::nullopt, Unconstrained};
  }

  const Context &Ctx;
  const syntax::Term *Program;
  std::vector<DirectBinding<D>> Initial;
  AnalyzerOptions Opts;

  std::shared_ptr<domain::VarIndex> Vars;
  domain::CloSet CloTop;
  domain::StoreInterner<Val> Interner;
  AnalyzerStats Stats;
  support::Governor Gov{Opts.Governor, Opts.MaxGoals};
  DirectCfg Cfg;

  std::unordered_map<Key, std::optional<IAns>, KeyHash> Memo;
  std::unordered_map<Key, uint32_t, KeyHash> Active;
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_DIRECTANALYZER_H
