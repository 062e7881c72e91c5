//===- analysis/AnfFrontEnd.h - The ANF analyzers' front end --*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four analyzers over A-normal-form source terms (direct,
/// semantic-CPS, bounded-duplication and pushdown) share before and after
/// their transfer rules: the variable and closure universes, the per-run
/// StoreInterner, the initial store, phi_e of Figure 4 and the
/// provenance of a value form, the Section 4.4 cut value (T, CL_T), the
/// (node, store) goal key, and the conversion of the final answer into
/// the public result.
///
/// The analyzers derive from AnfFrontEnd<D>; the goal discipline itself
/// lives in analysis/GoalDriver.h.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_ANFFRONTEND_H
#define CPSFLOW_ANALYSIS_ANFFRONTEND_H

#include "analysis/Cfg.h"
#include "analysis/Common.h"
#include "analysis/Universe.h"
#include "anf/Anf.h"
#include "domain/AbsStore.h"
#include "domain/AbsValue.h"
#include "domain/StoreInterner.h"
#include "support/Hashing.h"
#include "syntax/Ast.h"

#include <cassert>
#include <memory>
#include <optional>
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

/// Result of a direct-world run: Figure 4, Figure 5, the duplication
/// analyzer, and the pushdown analyzer all answer in AbsVal<D>, which is
/// what makes their comparisons (Theorem 5.4) direct.
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

/// The shared front end; the analyzers derive from it. Single-use like
/// the analyzers themselves.
template <typename D> class AnfFrontEnd {
public:
  using Val = domain::AbsVal<D>;
  using StoreT = domain::AbsStore<Val>;
  using Answer = AnswerOf<Val>;

  /// The universe of abstract closures CL_T (program and initial-store
  /// lambdas plus inc and dec), used for the Section 4.4 cut-off value.
  const domain::CloSet &closureUniverse() const { return CloTop; }

  /// The run's hash-consing table (observability: distinct stores seen).
  const domain::StoreInterner<Val> &interner() const { return Interner; }

protected:
  using IAns = InternedAnswerOf<Val>;

  /// Goal key (node pointer, store id): O(1) to build, hash, and compare.
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

  /// \pre \p Program is in A-normal form with unique binders; the lambdas
  /// referenced by \p Initial use binders disjoint from \p Program's.
  AnfFrontEnd(const Context &Ctx, const syntax::Term *Program,
              std::vector<DirectBinding<D>> InitialIn, AnalyzerOptions OptsIn)
      : Ctx(Ctx), Program(Program), Initial(std::move(InitialIn)),
        Opts(std::move(OptsIn)) {
    assert(anf::isAnfQuick(Program) && "the analyzer requires A-normal form");

    std::vector<const syntax::LamValue *> ExtraLams;
    std::vector<Symbol> ExtraVars;
    for (const DirectBinding<D> &B : Initial) {
      ExtraVars.push_back(B.Var);
      for (const domain::CloRef &C : B.Value.Clos)
        if (C.Tag == domain::CloRef::K::Lam)
          ExtraLams.push_back(C.Lam);
    }
    Vars = std::make_shared<domain::VarIndex>(
        directVariableUniverse(Program, ExtraLams, ExtraVars));
    CloTop = directClosureUniverse(Program, ExtraLams);
    Interner.attachMetrics(Opts.Metrics);
    Interner.reset(Vars->size());
  }

  /// The initial store: the bindings joined into bottom in order.
  domain::StoreId initialStore() {
    domain::StoreId Sigma0 = Interner.bottom();
    for (const DirectBinding<D> &B : Initial) {
      domain::StoreId Next = Interner.joinAt(Sigma0, Vars->of(B.Var), B.Value);
      if (Opts.Prov)
        Opts.Prov->init(Vars->of(B.Var), Next, Sigma0);
      Sigma0 = Next;
    }
    return Sigma0;
  }

  /// The Section 4.4 cut-off value (T, CL_T).
  Val cutValue() const {
    Val V;
    V.Num = D::top();
    V.Clos = CloTop;
    return V;
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

  /// Provenance of a value form: variables derive from the store fact
  /// they read; literals, lambdas, and primitives are leaves. Only called
  /// with Opts.Prov non-null.
  domain::ProvId provOfValue(const syntax::Value *V,
                             domain::StoreId Sigma) const {
    if (const auto *Var = syntax::dyn_cast<syntax::VarValue>(V))
      return Opts.Prov->factOf(Vars->of(Var->name()), Sigma);
    return domain::NoProv;
  }

  /// A Cut value node for provenance (goal repetition, or the budget trip
  /// \p R, at \p T). Only called with Opts.Prov non-null.
  domain::ProvId cutProv(const syntax::Term *T,
                         support::DegradeReason R) const {
    return Opts.Prov->value(domain::EdgeKind::Cut, T->id(), T->loc(),
                            domain::NoProv, domain::NoProv, R);
  }

  /// (let (x V) M): sigma[x := sigma(x) join phi(V, sigma)], a flow edge.
  domain::StoreId bindValue(const syntax::LetTerm *Let,
                            domain::StoreId Sigma) {
    const syntax::Value *V =
        syntax::cast<syntax::ValueTerm>(Let->bound())->value();
    uint32_t X = Vars->of(Let->var());
    domain::StoreId S = Interner.joinAt(Sigma, X, phi(V, Sigma));
    if (Opts.Prov)
      Opts.Prov->assign(domain::EdgeKind::Flow, X, S, Sigma, Let->id(),
                        Let->loc(), provOfValue(V, Sigma));
    return S;
  }

  /// (let (x loop) M) under the exact Section 6.2 rule: x joins the
  /// domain's summary of all naturals.
  domain::StoreId bindNaturals(const syntax::LetTerm *Let,
                               domain::StoreId Sigma) {
    uint32_t X = Vars->of(Let->var());
    domain::StoreId S = Interner.joinAt(Sigma, X, Val::number(D::naturals()));
    if (Opts.Prov)
      Opts.Prov->assign(domain::EdgeKind::Widen, X, S, Sigma, Let->id(),
                        Let->loc());
    return S;
  }

  /// Binds the parameter of \p Lam to \p Arg at call site \p App.
  domain::StoreId bindParam(const syntax::AppTerm *App,
                            const syntax::LamValue *Lam,
                            domain::StoreId Sigma, const Val &Arg,
                            domain::ProvId ArgProv) {
    uint32_t P = Vars->of(Lam->param());
    domain::StoreId S = Interner.joinAt(Sigma, P, Arg);
    if (Opts.Prov)
      Opts.Prov->assign(domain::EdgeKind::Flow, P, S, Sigma, App->id(),
                        App->loc(), ArgProv);
    return S;
  }

  /// Records the callees \p Fun of \p App in the CFG. False when there
  /// are none: the call is a join over zero paths (a dead path, counted).
  bool noteCallees(const syntax::AppTerm *App, const Val &Fun) {
    domain::CloSet &Rec = Cfg.Callees[App];
    for (const domain::CloRef &C : Fun.Clos)
      Rec.insert(C);
    if (!Fun.Clos.empty())
      return true;
    ++Stats.DeadPaths;
    return false;
  }

  /// Which arms of \p If are feasible at \p Sigma: the single-branch
  /// rules fire when the test is known (a pruned branch, counted); both
  /// flags false means both arms are feasible. Recorded in the CFG.
  struct Arms {
    bool ThenOnly;
    bool ElseOnly;
  };
  Arms feasibleArms(const syntax::If0Term *If, domain::StoreId Sigma) {
    Val U0 = phi(syntax::cast<syntax::ValueTerm>(If->cond())->value(), Sigma);
    domain::ZeroTest Zt = D::isZero(U0.Num);
    Arms A{Zt == domain::ZeroTest::Zero && U0.Clos.empty(),
           Zt == domain::ZeroTest::NonZero || Zt == domain::ZeroTest::Bottom};
    BranchInfo &BI = Cfg.Branches[If];
    BI.ThenFeasible |= !A.ElseOnly;
    BI.ElseFeasible |= !A.ThenOnly;
    if (A.ThenOnly || A.ElseOnly)
      ++Stats.PrunedBranches;
    return A;
  }

  /// Closes the run: end-of-run statistics, the provenance final store,
  /// and the dense public result. A disengaged \p A is a dead program
  /// (bottom value, bottom store).
  DirectResult<D> result(std::optional<IAns> A, uint64_t MemoEntries) {
    finalizeRunStats(Stats, Interner, MemoEntries, Opts);
    if (Opts.Prov)
      Opts.Prov->noteFinal(A ? A->Store : Interner.bottom());

    DirectResult<D> R;
    R.Answer = A ? Answer{std::move(A->Value), Interner.store(A->Store)}
                 : Answer{Val::bot(), StoreT(Vars->size())};
    R.Stats = Stats;
    R.Cfg = std::move(Cfg);
    R.Vars = Vars;
    return R;
  }

  const Context &Ctx;
  const syntax::Term *Program;
  std::vector<DirectBinding<D>> Initial;
  AnalyzerOptions Opts;

  std::shared_ptr<domain::VarIndex> Vars;
  domain::CloSet CloTop;
  domain::StoreInterner<Val> Interner;
  AnalyzerStats Stats;
  DirectCfg Cfg;
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_ANFFRONTEND_H
