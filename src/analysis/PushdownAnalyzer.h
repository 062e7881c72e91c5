//===- analysis/PushdownAnalyzer.h - CFA2-style fifth analyzer --*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A summarization-based pushdown analyzer over the ANF front-end: the
/// modern resolution (CFA2, Vardoulakis & Shivers; "Pushdown Control-Flow
/// Analysis for Free", Gilray et al.) of the return-point confusion that
/// Theorem 5.1 blames on syntactic CPS.
///
/// The analyzer keeps calls and returns matched *by construction*: a goal
/// is a (term, store) pair — no continuation component — and its answer is
/// the *set* of per-path results the term can produce, each a (value,
/// store) pair. The caller resumes its own continuation once per returned
/// pair, so distinct procedure returns are never confused (CallMerges is
/// identically zero) and distinct execution paths are never joined before
/// the continuation, unlike Figure 4's direct analyzer which joins all
/// callee answers (Theorem 5.2b) and both conditional arms (Theorem 5.2a)
/// at the merge point. The only join the analyzer ever performs is the
/// final one over the whole-program answer set.
///
/// Because goals carry no continuation, summaries are context-independent
/// and memoize on (term, store) alone — the "pushdown for free" trick:
/// the implicit call stack of the recursive walk plays the role of the
/// pushdown stack, and the memo table is the summary table.
///
/// Precision contract (the O7 oracle and tests/PushdownTests.cpp):
///  * never less precise than the syntactic-CPS analyzer — per-path
///    stores plus exact return matching dominate merged continuation
///    sets pointwise;
///  * exactly the semantic-CPS precision class: answers match direct
///    whenever direct performed no merge (Joins == 0, no dead paths),
///    which covers the Theorem 5.1 witness;
///  * sound against the concrete interpreter.
///
/// Termination and budgets follow Section 4.4 exactly as in Figure 4: an
/// active (term, store) repetition — or a Governor trip — cuts the goal
/// to the least precise single pair ((T, CL_T), sigma), tagged with the
/// usual DegradeReason taxonomy. The loop rule is direct's exact
/// Section 6.2 summary (the join of all naturals), so LoopBounded stays
/// false. Stores are hash-consed in the shared per-run StoreInterner, and
/// the goal discipline with its provenance/metrics/trace hooks is the
/// GoalDriver the other four analyzers use.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_PUSHDOWNANALYZER_H
#define CPSFLOW_ANALYSIS_PUSHDOWNANALYZER_H

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
#include <string_view>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// The canonical spelling of \p Name ("direct", "semantic", "syntactic",
/// "dup", "pushdown"), resolving the CLI/serve alias table (scps, syncps,
/// pd, cfa2), or nullopt for an unknown analyzer (PushdownAnalyzer.cpp).
std::optional<std::string> canonicalAnalyzerName(std::string_view Name);

/// "direct|semantic|syntactic|dup|pushdown" — the valid-choices list for
/// rejection messages and usage text.
const char *knownAnalyzerNames();

/// The alias table rendered for usage text: "scps=semantic,
/// syncps=syntactic, pd=cfa2=pushdown".
const char *knownAnalyzerAliases();

/// The result shape is the direct analyzer's: a direct-world answer,
/// stats, the extracted control-flow graph, and per-variable final store
/// lookup — so Compare.h, the oracle battery, and every client treat the
/// pushdown leg as a drop-in direct-world result.
template <typename D> using PushdownResult = DirectResult<D>;

/// The pushdown analyzer, parameterized by the numeric domain \p D.
/// Single-use: construct and call run() once.
template <typename D> class PushdownAnalyzer : public AnfFrontEnd<D> {
  using Base = AnfFrontEnd<D>;

public:
  using typename Base::Val;

  /// \pre \p Program is in A-normal form with unique binders; the lambdas
  /// referenced by \p Initial use binders disjoint from \p Program's.
  PushdownAnalyzer(const Context &Ctx, const syntax::Term *Program,
                   std::vector<DirectBinding<D>> Initial = {},
                   AnalyzerOptions Opts = AnalyzerOptions())
      : Base(Ctx, Program, std::move(Initial), std::move(Opts)) {}

  /// Runs the analysis from the initial store.
  PushdownResult<D> run() {
    EvalOut Out = evalTerm(Program, this->initialStore(), 0);

    // The one and only join: fold the whole-program answer set. Every
    // merge the direct analyzer performs mid-derivation is deferred to
    // here, which is exactly why the per-variable facts upstream stay
    // per-path precise.
    std::optional<IAns> Acc;
    domain::ProvId AccProv = domain::NoProv;
    for (const PdAns &P : Out.Pairs) {
      IAns Ai{P.V, P.S};
      if (!Acc) {
        Acc = std::move(Ai);
        AccProv = P.Prov;
      } else {
        ++Stats.Joins;
        if (Opts.Prov) {
          Acc = joinAnswers(Interner, *Acc, Ai, Opts.Prov,
                            domain::EdgeKind::Join, Program->id(),
                            Program->loc());
          AccProv = Opts.Prov->value(domain::EdgeKind::Join, Program->id(),
                                     Program->loc(), AccProv, P.Prov);
        } else {
          Acc = joinAnswers(Interner, *Acc, Ai);
        }
      }
    }

    return this->result(std::move(Acc), Goals.memo().size());
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

  /// One per-path result of a goal: the value the term evaluated to, the
  /// store it finished in, and the derivation of the value.
  struct PdAns {
    Val V;
    domain::StoreId S;
    domain::ProvId Prov = domain::NoProv;
  };

  /// A goal's answer: the set of per-path results (deduped on (value,
  /// store), first-win on provenance, insertion-ordered so runs are
  /// deterministic), plus the shallowest active ancestor the
  /// subderivation was cut against (Unconstrained if none — then the
  /// summary is context-independent and cacheable). An empty set means
  /// the goal is dead: no execution path completes it.
  struct EvalOut {
    std::vector<PdAns> Pairs;
    uint32_t MinDep = Unconstrained;
  };

  /// Appends \p P unless an identical (value, store) pair is present.
  static void appendPair(std::vector<PdAns> &Out, PdAns P) {
    for (const PdAns &Q : Out)
      if (Q.S == P.S && Q.V == P.V)
        return;
    Out.push_back(std::move(P));
  }

  /// The Section 4.4 cut-off: a single least-precise path.
  EvalOut cutPairs(domain::StoreId Sigma, domain::ProvId Prov,
                   uint32_t MinDep) const {
    EvalOut Out;
    Out.Pairs.push_back(PdAns{this->cutValue(), Sigma, Prov});
    Out.MinDep = MinDep;
    return Out;
  }

  /// The goal (T, sigma) at \p Depth, as GoalDriver hooks.
  struct Goal {
    PushdownAnalyzer &Self;
    const syntax::Term *T;
    domain::StoreId Sigma;
    uint32_t Depth;

    Key key() const { return Key{T, Sigma}; }
    size_t storeBytes() const { return Self.Interner.approxBytes(); }
    EvalOut exhausted(support::DegradeReason R) const {
      return Self.cutPairs(
          Sigma, Self.Opts.Prov ? Self.cutProv(T, R) : domain::NoProv, 0);
    }
    EvalOut cut(uint32_t AncestorDepth) const {
      return Self.cutPairs(Sigma,
                           Self.Opts.Prov
                               ? Self.cutProv(T, support::DegradeReason::None)
                               : domain::NoProv,
                           AncestorDepth);
    }
    EvalOut hit(const std::vector<PdAns> &M) const {
      return EvalOut{M, Unconstrained};
    }
    EvalOut walk() const { return Self.evalUncached(T, Sigma, Depth); }
    const std::vector<PdAns> &memoValue(const EvalOut &O) const {
      return O.Pairs;
    }
    std::string derivationTerm() const { return syntax::print(Self.Ctx, T); }
    std::string derivationAnswer(const EvalOut &O) const {
      if (O.Pairs.empty())
        return "dead";
      return std::to_string(O.Pairs.size()) + " path(s), first " +
             O.Pairs.front().V.str(Self.Ctx);
    }
  };

  EvalOut evalTerm(const syntax::Term *T, domain::StoreId Sigma,
                   uint32_t Depth) {
    return Goals.solve(Goal{*this, T, Sigma, Depth});
  }

  /// Binds every pair of \p Vals into slot \p X and resumes \p Body once
  /// per path, accumulating the resulting pair sets. This is the
  /// call-return matching point: each callee/branch path reaches the
  /// continuation with its own store and its own result, never a merge.
  EvalOut resumePerPath(const std::vector<PdAns> &Vals, uint32_t X,
                        const syntax::Term *Body, uint32_t Depth,
                        uint32_t NodeId, SourceLoc Loc) {
    EvalOut Out;
    for (const PdAns &P : Vals) {
      domain::StoreId S = Interner.joinAt(P.S, X, P.V);
      if (Opts.Prov)
        Opts.Prov->assign(domain::EdgeKind::Flow, X, S, P.S, NodeId, Loc,
                          P.Prov);
      EvalOut B = evalTerm(Body, S, Depth + 1);
      Out.MinDep = std::min(Out.MinDep, B.MinDep);
      for (PdAns &Q : B.Pairs)
        appendPair(Out.Pairs, std::move(Q));
    }
    return Out;
  }

  EvalOut evalUncached(const syntax::Term *T, domain::StoreId Sigma,
                       uint32_t Depth) {
    using namespace syntax;

    // (V, sigma) |- {(phi_e(V, sigma), sigma)}: a value is one path.
    if (const auto *VT = dyn_cast<ValueTerm>(T)) {
      EvalOut Out;
      Out.Pairs.push_back(
          PdAns{phi(VT->value(), Sigma), Sigma,
                Opts.Prov ? provOfValue(VT->value(), Sigma) : domain::NoProv});
      return Out;
    }

    const auto *Let = cast<LetTerm>(T);
    const Term *Bound = Let->bound();
    uint32_t X = Vars->of(Let->var());

    switch (Bound->kind()) {
    case TermKind::TK_Value:
      // (let (x V) M): continue with sigma[x := sigma(x) join u].
      return evalTerm(Let->body(), this->bindValue(Let, Sigma), Depth + 1);

    case TermKind::TK_App: {
      // (let (x (V1 V2)) M): every abstract closure is applied, but the
      // answers are *not* joined — the body is resumed once per returned
      // (value, store) path, so the return of one call never merges into
      // another (the pushdown win over both Figure 4 and Figure 6).
      const auto *App = cast<AppTerm>(Bound);
      Val Fun = phi(cast<ValueTerm>(App->fun())->value(), Sigma);
      Val Arg = phi(cast<ValueTerm>(App->arg())->value(), Sigma);

      if (!this->noteCallees(App, Fun))
        return EvalOut{}; // the set over no paths

      domain::ProvId ArgProv =
          Opts.Prov ? provOfValue(cast<ValueTerm>(App->arg())->value(), Sigma)
                    : domain::NoProv;
      std::vector<PdAns> Returned;
      uint32_t MinDep = Unconstrained;
      for (const domain::CloRef &C : Fun.Clos) {
        switch (C.Tag) {
        case domain::CloRef::K::Inc:
          appendPair(Returned,
                     PdAns{Val::number(D::add1(Arg.Num)), Sigma, ArgProv});
          break;
        case domain::CloRef::K::Dec:
          appendPair(Returned,
                     PdAns{Val::number(D::sub1(Arg.Num)), Sigma, ArgProv});
          break;
        case domain::CloRef::K::Lam: {
          domain::StoreId S = this->bindParam(App, C.Lam, Sigma, Arg, ArgProv);
          EvalOut R = evalTerm(C.Lam->body(), S, Depth + 1);
          MinDep = std::min(MinDep, R.MinDep);
          for (PdAns &P : R.Pairs)
            appendPair(Returned, std::move(P));
          break;
        }
        }
      }
      if (Returned.empty())
        return EvalOut{{}, MinDep}; // every callee path died

      EvalOut Body = resumePerPath(Returned, X, Let->body(), Depth,
                                   App->id(), App->loc());
      Body.MinDep = std::min(Body.MinDep, MinDep);
      return Body;
    }

    case TermKind::TK_If0: {
      // (let (x (if0 V0 M1 M2)) M): with an unknown test both arms are
      // analyzed, but never joined — each arm's paths resume the body
      // separately (contrast Figure 4's merging two-branch rule).
      const auto *If = cast<If0Term>(Bound);
      auto [ThenOnly, ElseOnly] = this->feasibleArms(If, Sigma);
      std::vector<PdAns> ArmPairs;
      uint32_t MinDep = Unconstrained;
      if (!ElseOnly) {
        EvalOut B1 = evalTerm(If->thenBranch(), Sigma, Depth + 1);
        MinDep = std::min(MinDep, B1.MinDep);
        for (PdAns &P : B1.Pairs)
          appendPair(ArmPairs, std::move(P));
      }
      if (!ThenOnly) {
        EvalOut B2 = evalTerm(If->elseBranch(), Sigma, Depth + 1);
        MinDep = std::min(MinDep, B2.MinDep);
        for (PdAns &P : B2.Pairs)
          appendPair(ArmPairs, std::move(P));
      }
      if (ArmPairs.empty())
        return EvalOut{{}, MinDep}; // every feasible arm died

      EvalOut Body =
          resumePerPath(ArmPairs, X, Let->body(), Depth, If->id(), If->loc());
      Body.MinDep = std::min(Body.MinDep, MinDep);
      return Body;
    }

    case TermKind::TK_Loop:
      // (loop, sigma) |- {(join_i (i, {}), sigma)}: Section 6.2's exact
      // computable summary, identical to the direct rule — no bounded
      // unrolling, so LoopBounded stays false.
      return evalTerm(Let->body(), this->bindNaturals(Let, Sigma), Depth + 1);

    case TermKind::TK_Let:
      assert(false && "not ANF: let-bound let");
      return EvalOut{};
    }
    assert(false && "unknown term kind");
    return EvalOut{};
  }

  GoalDriver<Key, KeyHash, std::vector<PdAns>> Goals{this->Opts, this->Stats};
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_PUSHDOWNANALYZER_H
