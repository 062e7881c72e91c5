//===- analysis/SemanticCpsAnalyzer.h - Figure 5 analyzer -------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic-CPS abstract collecting interpreter C_e of Figure 5,
/// derived from the Figure 2 machine. Abstract continuations are lists of
/// bare frames `(let (x []) M)` (environments dropped, Section 4.1).
///
/// Characteristic behaviour:
///
///  * At an application, `appk_e` applies each abstract closure and each
///    application *continues through the entire rest of the program* (the
///    continuation kappa); the answers are joined only at the very end.
///  * At an unknown conditional, each branch likewise carries the whole
///    continuation. This per-path duplication is what makes the analysis
///    at least as precise as the direct one, strictly more precise in
///    non-distributive analyses (Theorem 5.4) — and exponentially more
///    expensive (Section 6.2).
///  * The current continuation is always a single, known list — returns
///    are never confused, so it is also at least as precise as the
///    syntactic-CPS analysis (Theorem 5.5).
///  * The `loop` rule — the join of running the continuation on every
///    natural number — is *not computable* (Section 6.2); this
///    implementation unrolls it LoopUnroll times and reports whether the
///    join was still moving at the bound (Stats.LoopBounded), optionally
///    adding a sound summary iterate (AnalyzerOptions::LoopSoundSummary).
///
/// Termination (modulo `loop`) uses the Section 4.4 cut: when a goal's
/// (term, store) pair is already on the active path, the least precise
/// value (T, CL_T) is returned *to the current continuation*.
///
/// Stores are hash-consed (domain/StoreInterner.h): continuations were
/// already hash-consed lists, and with interned stores the full memo key
/// (term, kappa, store) is three words compared by identity.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_SEMANTICCPSANALYZER_H
#define CPSFLOW_ANALYSIS_SEMANTICCPSANALYZER_H

#include "analysis/AnfFrontEnd.h"
#include "analysis/Cfg.h"
#include "analysis/Common.h"
#include "analysis/GoalDriver.h"
#include "domain/AbsValue.h"
#include "domain/StoreInterner.h"
#include "syntax/Ast.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// Result of a Figure 5 run: the direct analyzer's result shape, which is
/// what makes the Theorem 5.4 comparison direct.
template <typename D> using SemanticResult = DirectResult<D>;

/// The Figure 5 analyzer. Single-use.
template <typename D> class SemanticCpsAnalyzer : public AnfFrontEnd<D> {
  using Base = AnfFrontEnd<D>;

public:
  using typename Base::Val;

  /// \pre \p Program is in A-normal form with unique binders.
  SemanticCpsAnalyzer(const Context &Ctx, const syntax::Term *Program,
                      std::vector<DirectBinding<D>> Initial = {},
                      AnalyzerOptions Opts = AnalyzerOptions())
      : Base(Ctx, Program, std::move(Initial), std::move(Opts)) {}

  /// Runs the analysis with the empty continuation `nil`.
  SemanticResult<D> run() {
    EvalOut Out = evalC(Program, /*K=*/nullptr, this->initialStore(), 0);
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
  using Base::cutValue;
  using Base::phi;
  using Base::provOfValue;

  /// An abstract continuation: a hash-consed list of `(let (x []) M)`
  /// frames. nullptr is nil. Hash-consing makes kappa equality a pointer
  /// comparison in the memo keys.
  struct KontNode {
    const syntax::LetTerm *Frame;
    const KontNode *Parent;
    uint64_t H;
  };

  const KontNode *cons(const syntax::LetTerm *Frame, const KontNode *Parent) {
    auto KeyPair = std::make_pair(static_cast<const void *>(Frame),
                                  static_cast<const void *>(Parent));
    auto It = KontCache.find(KeyPair);
    if (It != KontCache.end())
      return It->second;
    uint64_t H = hashPointer(Frame);
    hashCombine(H, Parent ? Parent->H : 0x717);
    KontNodes.push_back(KontNode{Frame, Parent, H});
    const KontNode *Node = &KontNodes.back();
    KontCache.emplace(KeyPair, Node);
    return Node;
  }

  struct EvalOut {
    IAns A;
    uint32_t MinDep;
  };

  /// Memo key (term, kappa, store). Goals are cut on the coarser
  /// (term, store) Key: a repeated pair loops whatever the continuation.
  struct KontKey {
    const void *Node;
    const KontNode *Kont;
    domain::StoreId Store;

    friend bool operator==(const KontKey &A, const KontKey &B) {
      return A.Node == B.Node && A.Kont == B.Kont && A.Store == B.Store;
    }
  };
  struct KontKeyHash {
    size_t operator()(const KontKey &K) const {
      uint64_t H = hashPointer(K.Node);
      hashCombine(H, K.Kont ? K.Kont->H : 0x171);
      hashCombine(H, K.Store);
      return H;
    }
  };

  IAns bottomAnswer() { return IAns{Val::bot(), Interner.bottom()}; }

  /// appr_e: deliver \p U to \p K. nil yields the final answer. \p UProv
  /// is the derivation of U (meaningful only with Opts.Prov attached).
  EvalOut appre(const KontNode *K, const Val &U, domain::StoreId Sigma,
                uint32_t Depth, domain::ProvId UProv = domain::NoProv) {
    if (!K)
      return EvalOut{IAns{U, Sigma}, Unconstrained};
    domain::StoreId S = Interner.joinAt(Sigma, Vars->of(K->Frame->var()), U);
    if (Opts.Prov)
      Opts.Prov->assign(domain::EdgeKind::Flow, Vars->of(K->Frame->var()), S,
                        Sigma, K->Frame->id(), K->Frame->loc(), UProv);
    return evalC(K->Frame->body(), K->Parent, S, Depth + 1);
  }

  /// appk_e: apply each closure of \p Fun to \p Arg, each path carrying
  /// the whole continuation \p K; join the final answers.
  EvalOut appke(const syntax::AppTerm *Site, const Val &Fun, const Val &Arg,
                const KontNode *K, domain::StoreId Sigma, uint32_t Depth) {
    if (!this->noteCallees(Site, Fun))
      return EvalOut{bottomAnswer(), Unconstrained}; // join over no paths

    if (Fun.Clos.size() > 1)
      Stats.Joins += Fun.Clos.size() - 1; // final answers get k-way merged

    IAns Acc = bottomAnswer();
    uint32_t MinDep = Unconstrained;
    domain::ProvId ArgProv =
        Opts.Prov
            ? provOfValue(syntax::cast<syntax::ValueTerm>(Site->arg())->value(),
                          Sigma)
            : domain::NoProv;
    for (const domain::CloRef &C : Fun.Clos) {
      EvalOut Ri;
      switch (C.Tag) {
      case domain::CloRef::K::Inc:
        Ri = appre(K, Val::number(D::add1(Arg.Num)), Sigma, Depth + 1,
                   ArgProv);
        break;
      case domain::CloRef::K::Dec:
        Ri = appre(K, Val::number(D::sub1(Arg.Num)), Sigma, Depth + 1,
                   ArgProv);
        break;
      case domain::CloRef::K::Lam:
        Ri = evalC(C.Lam->body(), K,
                   this->bindParam(Site, C.Lam, Sigma, Arg, ArgProv),
                   Depth + 1);
        break;
      }
      Acc = Opts.Prov ? joinAnswers(Interner, Acc, Ri.A, Opts.Prov,
                                    domain::EdgeKind::Join, Site->id(),
                                    Site->loc())
                      : joinAnswers(Interner, Acc, Ri.A);
      MinDep = std::min(MinDep, Ri.MinDep);
    }
    return EvalOut{std::move(Acc), MinDep};
  }

  /// The goal (T, kappa, sigma) at \p Depth, as GoalDriver hooks.
  struct Goal {
    SemanticCpsAnalyzer &Self;
    const syntax::Term *T;
    const KontNode *K;
    domain::StoreId Sigma;
    uint32_t Depth;

    KontKey key() const { return KontKey{T, K, Sigma}; }
    Key activeKey() const { return Key{T, Sigma}; }
    size_t storeBytes() const { return Self.Interner.approxBytes(); }
    EvalOut exhausted(support::DegradeReason) const {
      return EvalOut{IAns{Self.cutValue(), Sigma}, 0};
    }
    EvalOut hit(const IAns &M) const { return EvalOut{M, Unconstrained}; }
    /// Section 4.4 cut: return (T, CL_T) *to the current continuation*.
    EvalOut cut(uint32_t AncestorDepth) const {
      domain::ProvId CutProv =
          Self.Opts.Prov ? Self.cutProv(T, support::DegradeReason::None)
                         : domain::NoProv;
      EvalOut R = Self.appre(K, Self.cutValue(), Sigma, Depth + 1, CutProv);
      R.MinDep = std::min(R.MinDep, AncestorDepth);
      return R;
    }
    EvalOut walk() const { return Self.evalUncached(T, K, Sigma, Depth); }
    const IAns &memoValue(const EvalOut &O) const { return O.A; }
  };

  EvalOut evalC(const syntax::Term *T, const KontNode *K,
                domain::StoreId Sigma, uint32_t Depth) {
    return Goals.solve(Goal{*this, T, K, Sigma, Depth});
  }

  EvalOut evalUncached(const syntax::Term *T, const KontNode *K,
                       domain::StoreId Sigma, uint32_t Depth) {
    using namespace syntax;

    // (V, kappa, sigma): deliver phi_e(V, sigma) to the continuation.
    if (const auto *VT = dyn_cast<ValueTerm>(T))
      return appre(K, phi(VT->value(), Sigma), Sigma, Depth,
                   Opts.Prov ? provOfValue(VT->value(), Sigma)
                             : domain::NoProv);

    const auto *Let = cast<LetTerm>(T);
    const Term *Bound = Let->bound();

    switch (Bound->kind()) {
    case TermKind::TK_Value:
      return evalC(Let->body(), K, this->bindValue(Let, Sigma), Depth + 1);

    case TermKind::TK_App: {
      const auto *App = cast<AppTerm>(Bound);
      Val Fun = phi(cast<ValueTerm>(App->fun())->value(), Sigma);
      Val Arg = phi(cast<ValueTerm>(App->arg())->value(), Sigma);
      const KontNode *K2 = cons(Let, K);
      return appke(App, Fun, Arg, K2, Sigma, Depth);
    }

    case TermKind::TK_If0: {
      const auto *If = cast<If0Term>(Bound);
      auto [ThenOnly, ElseOnly] = this->feasibleArms(If, Sigma);
      const KontNode *K2 = cons(Let, K);
      if (ThenOnly || ElseOnly)
        return evalC(ThenOnly ? If->thenBranch() : If->elseBranch(), K2,
                     Sigma, Depth + 1);

      // Both feasible: each branch analyzes the entire continuation; the
      // *answers* are joined (contrast with Figure 4's store merge).
      ++Stats.Joins;
      EvalOut B1 = evalC(If->thenBranch(), K2, Sigma, Depth + 1);
      EvalOut B2 = evalC(If->elseBranch(), K2, Sigma, Depth + 1);
      IAns Joined = Opts.Prov
                        ? joinAnswers(Interner, B1.A, B2.A, Opts.Prov,
                                      domain::EdgeKind::Join, If->id(),
                                      If->loc())
                        : joinAnswers(Interner, B1.A, B2.A);
      return EvalOut{std::move(Joined), std::min(B1.MinDep, B2.MinDep)};
    }

    case TermKind::TK_Loop: {
      // Section 6.2: join of delivering each natural to the continuation.
      // Exact computation is undecidable; unroll LoopUnroll times, then
      // optionally add the sound naturals() summary iterate.
      const KontNode *K2 = cons(Let, K);
      // No finite unrolling is exact (Section 6.2): flag the truncation
      // unconditionally — a join that *looks* converged at the bound is
      // still untrustworthy (a probe beyond the bound may change it).
      Stats.LoopBounded = true;
      IAns Acc = bottomAnswer();
      uint32_t MinDep = Unconstrained;
      auto JoinIter = [&](const IAns &A) {
        return Opts.Prov ? joinAnswers(Interner, Acc, A, Opts.Prov,
                                       domain::EdgeKind::Widen, Let->id(),
                                       Let->loc())
                         : joinAnswers(Interner, Acc, A);
      };
      for (uint32_t I = 0; I < Opts.LoopUnroll; ++I) {
        EvalOut Bi =
            appre(K2, Val::number(D::constant(I)), Sigma, Depth + 1);
        Acc = JoinIter(Bi.A);
        MinDep = std::min(MinDep, Bi.MinDep);
        if (Stats.BudgetExhausted)
          break;
      }
      if (Opts.LoopSoundSummary) {
        domain::ProvId WidenProv =
            Opts.Prov ? Opts.Prov->value(domain::EdgeKind::Widen, Let->id(),
                                         Let->loc())
                      : domain::NoProv;
        EvalOut Bs = appre(K2, Val::number(D::naturals()), Sigma, Depth + 1,
                           WidenProv);
        Acc = JoinIter(Bs.A);
        MinDep = std::min(MinDep, Bs.MinDep);
      }
      return EvalOut{std::move(Acc), MinDep};
    }

    case TermKind::TK_Let:
      assert(false && "not ANF: let-bound let");
      return EvalOut{bottomAnswer(), Unconstrained};
    }
    assert(false && "unknown term kind");
    return EvalOut{bottomAnswer(), Unconstrained};
  }

  struct PairHash {
    size_t operator()(const std::pair<const void *, const void *> &P) const {
      uint64_t H = hashPointer(P.first);
      hashCombine(H, hashPointer(P.second));
      return H;
    }
  };

  std::deque<KontNode> KontNodes;
  std::unordered_map<std::pair<const void *, const void *>, const KontNode *,
                     PairHash>
      KontCache;

  GoalDriver<KontKey, KontKeyHash, IAns, Key, KeyHash> Goals{this->Opts,
                                                             this->Stats};
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_SEMANTICCPSANALYZER_H
