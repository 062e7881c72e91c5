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
/// Termination follows Section 4.4 (analysis/GoalDriver.h): a goal whose
/// (term, store) pair is already on the active derivation path is cut off
/// with the least precise value (T, CL_T) paired with the current store.
/// Completed subderivations are memoized; results that depended on a cut
/// through an enclosing goal are provisional and are not cached (they are
/// not context-independent).
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

#include "analysis/AnfFrontEnd.h"
#include "analysis/Cfg.h"
#include "analysis/Common.h"
#include "analysis/GoalDriver.h"
#include "domain/AbsValue.h"
#include "domain/StoreInterner.h"
#include "syntax/Analysis.h"
#include "syntax/Ast.h"
#include "syntax/Printer.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// The Figure 4 analyzer, parameterized by the numeric domain \p D
/// (domain/NumDomain.h). Single-use: construct and call run() once.
template <typename D> class DirectAnalyzer : public AnfFrontEnd<D> {
  using Base = AnfFrontEnd<D>;

public:
  using typename Base::Val;

  /// \pre \p Program is in A-normal form with unique binders; the lambdas
  /// referenced by \p Initial use binders disjoint from \p Program's.
  DirectAnalyzer(const Context &Ctx, const syntax::Term *Program,
                 std::vector<DirectBinding<D>> Initial = {},
                 AnalyzerOptions Opts = AnalyzerOptions())
      : Base(Ctx, Program, std::move(Initial), std::move(Opts)) {}

  /// Runs the analysis from the initial store.
  DirectResult<D> run() {
    EvalOut Out = evalTerm(Program, this->initialStore(), 0);
    return this->result(std::move(Out.A), Goals.memo().size());
  }

private:
  using typename Base::IAns;
  using typename Base::Key;
  using typename Base::KeyHash;
  using Base::Ctx;
  using Base::Interner;
  using Base::Opts;
  using Base::Program;
  using Base::Stats;
  using Base::Vars;
  using Base::cutProv;
  using Base::phi;
  using Base::provOfValue;

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

  /// The goal (T, sigma) at \p Depth, as GoalDriver hooks.
  struct Goal {
    DirectAnalyzer &Self;
    const syntax::Term *T;
    domain::StoreId Sigma;
    uint32_t Depth;

    Key key() const { return Key{T, Sigma}; }
    size_t storeBytes() const { return Self.Interner.approxBytes(); }
    /// The Section 4.4 cut-off: the least precise value with the current
    /// store.
    EvalOut cutOff(uint32_t MinDep, support::DegradeReason R) const {
      return EvalOut{IAns{Self.cutValue(), Sigma}, MinDep,
                     Self.Opts.Prov ? Self.cutProv(T, R) : domain::NoProv};
    }
    EvalOut exhausted(support::DegradeReason R) const { return cutOff(0, R); }
    EvalOut cut(uint32_t AncestorDepth) const {
      return cutOff(AncestorDepth, support::DegradeReason::None);
    }
    EvalOut hit(const std::optional<IAns> &M) const {
      return EvalOut{M, Unconstrained,
                     Self.Opts.Prov ? Self.Opts.Prov->memoized(T, Sigma)
                                    : domain::NoProv};
    }
    EvalOut walk() const { return Self.evalUncached(T, Sigma, Depth); }
    const std::optional<IAns> &memoValue(const EvalOut &O) const {
      return O.A;
    }
    void afterWalk(const EvalOut &O, bool Memoized) const {
      if (Memoized && Self.Opts.Prov)
        Self.Opts.Prov->memoize(T, Sigma, O.Prov);
    }
    std::string derivationTerm() const { return syntax::print(Self.Ctx, T); }
    std::string derivationAnswer(const EvalOut &O) const {
      return O.A ? O.A->Value.str(Self.Ctx) : std::string("dead");
    }
  };

  EvalOut evalTerm(const syntax::Term *T, domain::StoreId Sigma,
                   uint32_t Depth) {
    return Goals.solve(Goal{*this, T, Sigma, Depth});
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
    case TermKind::TK_Value:
      // (let (x V) M): continue with sigma[x := sigma(x) join u].
      return evalTerm(Let->body(), this->bindValue(Let, Sigma), Depth + 1);

    case TermKind::TK_App: {
      // (let (x (V1 V2)) M): app_e joins over all closures, then the body
      // is analyzed once in the joined store.
      const auto *App = cast<AppTerm>(Bound);
      Val Fun = phi(cast<ValueTerm>(App->fun())->value(), Sigma);
      Val Arg = phi(cast<ValueTerm>(App->arg())->value(), Sigma);

      if (!this->noteCallees(App, Fun))
        return EvalOut{std::nullopt, Unconstrained}; // join over no paths

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
          domain::StoreId S = this->bindParam(App, C.Lam, Sigma, Arg, ArgProv);
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
      auto [ThenOnly, ElseOnly] = this->feasibleArms(If, Sigma);
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

    case TermKind::TK_Loop:
      // (loop, sigma) M_e (join_i (i, {}), sigma): computable exactly —
      // the join of all naturals is the domain's summary element.
      return evalTerm(Let->body(), this->bindNaturals(Let, Sigma), Depth + 1);

    case TermKind::TK_Let:
      assert(false && "not ANF: let-bound let");
      return EvalOut{std::nullopt, Unconstrained};
    }
    assert(false && "unknown term kind");
    return EvalOut{std::nullopt, Unconstrained};
  }

  GoalDriver<Key, KeyHash, std::optional<IAns>> Goals{this->Opts, this->Stats};
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_DIRECTANALYZER_H
