//===- analysis/DupAnalyzer.h - Bounded-duplication analyzer ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 6.3 conclusion: "a practical analysis ... should
/// limit the amount of duplication", and "a direct data flow analysis that
/// relies on some amount of duplication would be as satisfactory as a CPS
/// analysis". This analyzer realizes that proposal: it is the Figure 4
/// direct analyzer extended with a *duplication budget* d.
///
/// At a conditional with an unknown test (or an application with several
/// callees), while budget remains the analyzer continues the let-body —
/// the textual continuation — separately per path with budget d-1, joining
/// only the final answers, exactly like the semantic-CPS analyzer but
/// without any CPS machinery. When the budget is exhausted it falls back
/// to Figure 4's merge.
///
///  * d = 0 is exactly the Figure 4 analysis.
///  * d >= nesting depth of the interesting merges reproduces the
///    semantic-CPS precision on the Theorem 5.2 witnesses.
///  * The work factor is bounded by (max paths)^d instead of
///    (max paths)^(program size).
///
/// Stores are hash-consed (domain/StoreInterner.h); goal keys are
/// (node pointer, credit, StoreId), built and compared in O(1).
///
//======---------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_DUPANALYZER_H
#define CPSFLOW_ANALYSIS_DUPANALYZER_H

#include "analysis/AnfFrontEnd.h"
#include "analysis/Cfg.h"
#include "analysis/Common.h"
#include "analysis/GoalDriver.h"
#include "domain/AbsValue.h"
#include "domain/StoreInterner.h"
#include "syntax/Ast.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// The bounded-duplication analyzer. Single-use.
template <typename D> class DupAnalyzer : public AnfFrontEnd<D> {
  using Base = AnfFrontEnd<D>;

public:
  using typename Base::Val;

  /// \p Budget is the duplication depth d described above.
  DupAnalyzer(const Context &Ctx, const syntax::Term *Program,
              std::vector<DirectBinding<D>> Initial = {},
              uint64_t Budget = 2, AnalyzerOptions Opts = AnalyzerOptions())
      : Base(Ctx, Program, std::move(Initial), std::move(Opts)),
        Budget(Budget) {}

  DirectResult<D> run() {
    EvalOut Out = evalTerm(Program, this->initialStore(), Budget, 0);
    return this->result(std::move(Out.A), Goals.memo().size());
  }

private:
  using typename Base::IAns;
  using typename Base::Key;
  using typename Base::KeyHash;
  using Base::Interner;
  using Base::Opts;
  using Base::Program;
  using Base::Stats;
  using Base::Vars;
  using Base::phi;
  using Base::provOfValue;

  /// A disengaged answer means the goal is dead (join over zero paths);
  /// see DirectAnalyzer.
  struct EvalOut {
    std::optional<IAns> A;
    uint32_t MinDep;
  };

  /// Memo key (term, credit, store). Goals are cut on the (term, store)
  /// Key: recursion through the same (term, store) at any credit level is
  /// the same loop.
  struct CreditKey {
    const void *Node;
    uint64_t Credit;
    domain::StoreId Store;

    friend bool operator==(const CreditKey &A, const CreditKey &B) {
      return A.Node == B.Node && A.Credit == B.Credit && A.Store == B.Store;
    }
  };
  struct CreditKeyHash {
    size_t operator()(const CreditKey &K) const {
      uint64_t H = hashPointer(K.Node);
      hashCombine(H, K.Credit);
      hashCombine(H, K.Store);
      return H;
    }
  };

  /// The goal (T, credit, sigma) at \p Depth, as GoalDriver hooks.
  struct Goal {
    DupAnalyzer &Self;
    const syntax::Term *T;
    domain::StoreId Sigma;
    uint64_t Credit;
    uint32_t Depth;

    CreditKey key() const { return CreditKey{T, Credit, Sigma}; }
    Key activeKey() const { return Key{T, Sigma}; }
    size_t storeBytes() const { return Self.Interner.approxBytes(); }
    EvalOut cutOff(uint32_t MinDep) const {
      return EvalOut{IAns{Self.cutValue(), Sigma}, MinDep};
    }
    EvalOut exhausted(support::DegradeReason) const { return cutOff(0); }
    EvalOut cut(uint32_t AncestorDepth) const { return cutOff(AncestorDepth); }
    EvalOut hit(const std::optional<IAns> &M) const {
      return EvalOut{M, Unconstrained};
    }
    EvalOut walk() const { return Self.evalUncached(T, Sigma, Credit, Depth); }
    const std::optional<IAns> &memoValue(const EvalOut &O) const {
      return O.A;
    }
  };

  EvalOut evalTerm(const syntax::Term *T, domain::StoreId Sigma,
                   uint64_t Credit, uint32_t Depth) {
    return Goals.solve(Goal{*this, T, Sigma, Credit, Depth});
  }

  EvalOut evalUncached(const syntax::Term *T, domain::StoreId Sigma,
                       uint64_t Credit, uint32_t Depth) {
    using namespace syntax;

    if (const auto *VT = dyn_cast<ValueTerm>(T))
      return EvalOut{IAns{phi(VT->value(), Sigma), Sigma}, Unconstrained};

    const auto *Let = cast<LetTerm>(T);
    const Term *Bound = Let->bound();
    uint32_t X = Vars->of(Let->var());

    switch (Bound->kind()) {
    case TermKind::TK_Value:
      return evalTerm(Let->body(), this->bindValue(Let, Sigma), Credit,
                      Depth + 1);

    case TermKind::TK_App: {
      const auto *App = cast<AppTerm>(Bound);
      Val Fun = phi(cast<ValueTerm>(App->fun())->value(), Sigma);
      Val Arg = phi(cast<ValueTerm>(App->arg())->value(), Sigma);

      if (!this->noteCallees(App, Fun))
        return EvalOut{std::nullopt, Unconstrained}; // join over no paths

      bool Duplicate = Credit > 0 && Fun.Clos.size() > 1;
      uint64_t SubCredit = Duplicate ? Credit - 1 : Credit;

      std::optional<IAns> Acc;
      uint32_t MinDep = Unconstrained;
      std::optional<IAns> BodyAcc; // used only when duplicating
      uint64_t Merged = 0;
      domain::ProvId ArgProv =
          Opts.Prov ? provOfValue(cast<ValueTerm>(App->arg())->value(), Sigma)
                    : domain::NoProv;
      for (const domain::CloRef &C : Fun.Clos) {
        std::optional<IAns> Ai;
        switch (C.Tag) {
        case domain::CloRef::K::Inc:
          Ai = IAns{Val::number(D::add1(Arg.Num)), Sigma};
          break;
        case domain::CloRef::K::Dec:
          Ai = IAns{Val::number(D::sub1(Arg.Num)), Sigma};
          break;
        case domain::CloRef::K::Lam: {
          domain::StoreId S = this->bindParam(App, C.Lam, Sigma, Arg, ArgProv);
          EvalOut R = evalTerm(C.Lam->body(), S, SubCredit, Depth + 1);
          Ai = std::move(R.A);
          MinDep = std::min(MinDep, R.MinDep);
          break;
        }
        }
        if (!Ai)
          continue; // this callee path died
        ++Merged;
        if (Duplicate) {
          // Continue the let-body separately on this path.
          domain::StoreId S = Interner.joinAt(Ai->Store, X, Ai->Value);
          if (Opts.Prov)
            Opts.Prov->assign(domain::EdgeKind::Flow, X, S, Ai->Store,
                              App->id(), App->loc());
          EvalOut Body = evalTerm(Let->body(), S, SubCredit, Depth + 1);
          if (Body.A)
            BodyAcc = BodyAcc
                          ? (Opts.Prov
                                 ? joinAnswers(Interner, *BodyAcc, *Body.A,
                                               Opts.Prov,
                                               domain::EdgeKind::Join,
                                               App->id(), App->loc())
                                 : joinAnswers(Interner, *BodyAcc, *Body.A))
                          : std::move(*Body.A);
          MinDep = std::min(MinDep, Body.MinDep);
        } else {
          Acc = Acc ? (Opts.Prov
                           ? joinAnswers(Interner, *Acc, *Ai, Opts.Prov,
                                         domain::EdgeKind::Join, App->id(),
                                         App->loc())
                           : joinAnswers(Interner, *Acc, *Ai))
                    : std::move(*Ai);
        }
      }
      if (Merged > 1)
        Stats.Joins += Merged - 1; // multi-callee merge (either flavour)

      if (Duplicate)
        return EvalOut{std::move(BodyAcc), MinDep};
      if (!Acc)
        return EvalOut{std::nullopt, MinDep};

      domain::StoreId S = Interner.joinAt(Acc->Store, X, Acc->Value);
      if (Opts.Prov)
        Opts.Prov->assign(Merged > 1 ? domain::EdgeKind::Join
                                     : domain::EdgeKind::Flow,
                          X, S, Acc->Store, App->id(), App->loc());
      EvalOut Body = evalTerm(Let->body(), S, Credit, Depth + 1);
      Body.MinDep = std::min(Body.MinDep, MinDep);
      return Body;
    }

    case TermKind::TK_If0: {
      const auto *If = cast<If0Term>(Bound);
      auto [ThenOnly, ElseOnly] = this->feasibleArms(If, Sigma);
      if (ThenOnly || ElseOnly) {
        const Term *Branch = ThenOnly ? If->thenBranch() : If->elseBranch();
        EvalOut Bi = evalTerm(Branch, Sigma, Credit, Depth + 1);
        if (!Bi.A)
          return EvalOut{std::nullopt, Bi.MinDep};
        domain::StoreId S = Interner.joinAt(Bi.A->Store, X, Bi.A->Value);
        if (Opts.Prov)
          Opts.Prov->assign(domain::EdgeKind::Flow, X, S, Bi.A->Store,
                            If->id(), If->loc());
        EvalOut Body = evalTerm(Let->body(), S, Credit, Depth + 1);
        Body.MinDep = std::min(Body.MinDep, Bi.MinDep);
        return Body;
      }

      if (Credit > 0) {
        // Duplicate: each branch continues the body separately.
        ++Stats.Joins; // the final answers still get merged
        std::optional<IAns> Acc;
        uint32_t MinDep = Unconstrained;
        for (const Term *Branch : {If->thenBranch(), If->elseBranch()}) {
          EvalOut Bi = evalTerm(Branch, Sigma, Credit - 1, Depth + 1);
          MinDep = std::min(MinDep, Bi.MinDep);
          if (!Bi.A)
            continue;
          domain::StoreId S = Interner.joinAt(Bi.A->Store, X, Bi.A->Value);
          if (Opts.Prov)
            Opts.Prov->assign(domain::EdgeKind::Flow, X, S, Bi.A->Store,
                              If->id(), If->loc());
          EvalOut Body = evalTerm(Let->body(), S, Credit - 1, Depth + 1);
          if (Body.A)
            Acc = Acc ? (Opts.Prov
                             ? joinAnswers(Interner, *Acc, *Body.A,
                                           Opts.Prov, domain::EdgeKind::Join,
                                           If->id(), If->loc())
                             : joinAnswers(Interner, *Acc, *Body.A))
                      : std::move(*Body.A);
          MinDep = std::min(MinDep, Body.MinDep);
        }
        return EvalOut{std::move(Acc), MinDep};
      }

      // Out of budget: Figure 4's merge.
      EvalOut B1 = evalTerm(If->thenBranch(), Sigma, Credit, Depth + 1);
      EvalOut B2 = evalTerm(If->elseBranch(), Sigma, Credit, Depth + 1);
      uint32_t MinDep = std::min(B1.MinDep, B2.MinDep);
      std::optional<IAns> Joined;
      bool BothArms = B1.A && B2.A;
      if (BothArms) {
        ++Stats.Joins; // Figure 4's two-branch merge
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
        return EvalOut{std::nullopt, MinDep};
      domain::StoreId S = Interner.joinAt(Joined->Store, X, Joined->Value);
      if (Opts.Prov)
        Opts.Prov->assign(BothArms ? domain::EdgeKind::Join
                                   : domain::EdgeKind::Flow,
                          X, S, Joined->Store, If->id(), If->loc());
      EvalOut Body = evalTerm(Let->body(), S, Credit, Depth + 1);
      Body.MinDep = std::min(Body.MinDep, MinDep);
      return Body;
    }

    case TermKind::TK_Loop:
      return evalTerm(Let->body(), this->bindNaturals(Let, Sigma), Credit,
                      Depth + 1);

    case TermKind::TK_Let:
      assert(false && "not ANF: let-bound let");
      return EvalOut{std::nullopt, Unconstrained};
    }
    assert(false && "unknown term kind");
    return EvalOut{std::nullopt, Unconstrained};
  }

  uint64_t Budget;
  GoalDriver<CreditKey, CreditKeyHash, std::optional<IAns>, Key, KeyHash>
      Goals{this->Opts, this->Stats};
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_DUPANALYZER_H
