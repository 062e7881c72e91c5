//===- cps/Transform.cpp - The syntactic CPS transformation -----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cps/Transform.h"

#include "anf/Anf.h"
#include "cps/CpsIr.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace cpsflow;
using namespace cpsflow::cps;
using syntax::AppTerm;
using syntax::If0Term;
using syntax::LamValue;
using syntax::LetTerm;
using syntax::LoopTerm;
using syntax::NumValue;
using syntax::PrimOp;
using syntax::PrimValue;
using syntax::Term;
using syntax::TermKind;
using syntax::ValueTerm;
using syntax::VarValue;

namespace {

class Transformer {
public:
  Transformer(Context &Ctx, CpsProgram &Out) : Ctx(Ctx), Out(Out) {}

  const CpsTerm *transformTerm(const Term *M, Symbol K) {
    // F_k[V] = (k V[V])
    if (const auto *VT = syntax::dyn_cast<ValueTerm>(M))
      return Ctx.create<CpsRet>(K, transformValue(VT->value()), M->loc());

    const auto *Let = syntax::cast<LetTerm>(M);
    const Term *Bound = Let->bound();
    switch (Bound->kind()) {
    case TermKind::TK_Value: {
      // F_k[(let (x V) M)] = (let (x V[V]) F_k[M])
      const CpsValue *W =
          transformValue(syntax::cast<ValueTerm>(Bound)->value());
      const CpsTerm *Body = transformTerm(Let->body(), K);
      return Ctx.create<CpsLetVal>(Let->var(), W, Body, M->loc());
    }
    case TermKind::TK_App: {
      // F_k[(let (x (V1 V2)) M)] = (V[V1] V[V2] (lambda (x) F_k[M]))
      const auto *App = syntax::cast<AppTerm>(Bound);
      const CpsValue *Fun =
          transformValue(syntax::cast<ValueTerm>(App->fun())->value());
      const CpsValue *Arg =
          transformValue(syntax::cast<ValueTerm>(App->arg())->value());
      const ContLam *Cont = makeCont(Let, K);
      return Ctx.create<CpsCall>(Fun, Arg, Cont, M->loc());
    }
    case TermKind::TK_If0: {
      // F_k[(let (x (if0 V0 M1 M2)) M)]
      //   = (let (k' (lambda (x) F_k[M])) (if0 V[V0] F_k'[M1] F_k'[M2]))
      const auto *If = syntax::cast<If0Term>(Bound);
      const CpsValue *Cond =
          transformValue(syntax::cast<ValueTerm>(If->cond())->value());
      Symbol Join = freshK();
      const ContLam *JoinLam = makeCont(Let, K);
      const CpsTerm *Then = transformTerm(If->thenBranch(), Join);
      const CpsTerm *Else = transformTerm(If->elseBranch(), Join);
      return Ctx.create<CpsIf>(Join, JoinLam, Cond, Then, Else, M->loc());
    }
    case TermKind::TK_Loop: {
      // F_k[(let (x (loop)) M)] = (loopk (lambda (x) F_k[M]))
      const ContLam *Cont = makeCont(Let, K);
      return Ctx.create<CpsLoop>(Cont, M->loc());
    }
    case TermKind::TK_Let:
      assert(false && "not ANF: let-bound let");
      return nullptr;
    }
    assert(false && "unknown term kind");
    return nullptr;
  }

  const CpsValue *transformValue(const syntax::Value *V) {
    switch (V->kind()) {
    case syntax::ValueKind::VK_Num:
      return Ctx.create<CpsNum>(syntax::cast<NumValue>(V)->value(), V->loc());
    case syntax::ValueKind::VK_Var:
      return Ctx.create<CpsVar>(syntax::cast<VarValue>(V)->name(), V->loc());
    case syntax::ValueKind::VK_Prim:
      return Ctx.create<CpsPrim>(
          syntax::cast<PrimValue>(V)->op() == PrimOp::Add1
              ? CpsPrimOp::Add1k
              : CpsPrimOp::Sub1k,
          V->loc());
    case syntax::ValueKind::VK_Lam: {
      // V[(lambda (x) M)] = (lambda (x k') F_k'[M])
      const auto *Lam = syntax::cast<LamValue>(V);
      Symbol K = freshK();
      const CpsTerm *Body = transformTerm(Lam->body(), K);
      const CpsLam *Image =
          Ctx.create<CpsLam>(Lam->param(), K, Body, V->loc());
      Out.LamToCps.emplace(Lam, Image);
      Out.CpsToLam.emplace(Image, Lam);
      Out.Lams.push_back(Image);
      return Image;
    }
    }
    assert(false && "unknown value kind");
    return nullptr;
  }

  Symbol freshK() {
    Symbol K = Ctx.fresh("k");
    Out.KVars.push_back(K);
    return K;
  }

private:
  /// Builds the continuation lambda (lambda (x) F_k[Body]) for the source
  /// binding \p Let and records the correspondence.
  const ContLam *makeCont(const LetTerm *Let, Symbol K) {
    const CpsTerm *Body = transformTerm(Let->body(), K);
    const ContLam *Cont =
        Ctx.create<ContLam>(Let->var(), Body, Let->loc());
    Out.ContToLet.emplace(Cont, Let);
    Out.ContLams.push_back(Cont);
    return Cont;
  }

  Context &Ctx;
  CpsProgram &Out;
};

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

void printValue(const Context &Ctx, const CpsValue *W, std::ostringstream &O,
                bool Indented, int Depth);

void newlineOrSpace(std::ostringstream &O, bool Indented, int Depth) {
  if (!Indented) {
    O << ' ';
    return;
  }
  O << '\n';
  for (int I = 0; I < Depth; ++I)
    O << "  ";
}

void printTerm(const Context &Ctx, const CpsTerm *P, std::ostringstream &O,
               bool Indented = false, int Depth = 0) {
  switch (P->kind()) {
  case CpsTermKind::PK_Ret: {
    const auto *Ret = cast<CpsRet>(P);
    O << '(' << Ctx.spelling(Ret->kvar()) << ' ';
    printValue(Ctx, Ret->arg(), O, Indented, Depth);
    O << ')';
    return;
  }
  case CpsTermKind::PK_LetVal: {
    const auto *Let = cast<CpsLetVal>(P);
    O << "(let (" << Ctx.spelling(Let->var()) << ' ';
    printValue(Ctx, Let->bound(), O, Indented, Depth + 1);
    O << ')';
    newlineOrSpace(O, Indented, Depth + 1);
    printTerm(Ctx, Let->body(), O, Indented, Depth + 1);
    O << ')';
    return;
  }
  case CpsTermKind::PK_Call: {
    const auto *Call = cast<CpsCall>(P);
    O << '(';
    printValue(Ctx, Call->fun(), O, Indented, Depth);
    O << ' ';
    printValue(Ctx, Call->arg(), O, Indented, Depth);
    O << " (lambda (" << Ctx.spelling(Call->cont()->param()) << ')';
    newlineOrSpace(O, Indented, Depth + 1);
    printTerm(Ctx, Call->cont()->body(), O, Indented, Depth + 1);
    O << "))";
    return;
  }
  case CpsTermKind::PK_If: {
    const auto *If = cast<CpsIf>(P);
    O << "(let (" << Ctx.spelling(If->kvar()) << " (lambda ("
      << Ctx.spelling(If->join()->param()) << ')';
    newlineOrSpace(O, Indented, Depth + 2);
    printTerm(Ctx, If->join()->body(), O, Indented, Depth + 2);
    O << "))";
    newlineOrSpace(O, Indented, Depth + 1);
    O << "(if0 ";
    printValue(Ctx, If->cond(), O, Indented, Depth + 1);
    newlineOrSpace(O, Indented, Depth + 2);
    printTerm(Ctx, If->thenBranch(), O, Indented, Depth + 2);
    newlineOrSpace(O, Indented, Depth + 2);
    printTerm(Ctx, If->elseBranch(), O, Indented, Depth + 2);
    O << "))";
    return;
  }
  case CpsTermKind::PK_Loop: {
    const auto *Loop = cast<CpsLoop>(P);
    O << "(loopk (lambda (" << Ctx.spelling(Loop->cont()->param()) << ')';
    newlineOrSpace(O, Indented, Depth + 1);
    printTerm(Ctx, Loop->cont()->body(), O, Indented, Depth + 1);
    O << "))";
    return;
  }
  }
}

void printValue(const Context &Ctx, const CpsValue *W, std::ostringstream &O,
                bool Indented, int Depth) {
  switch (W->kind()) {
  case CpsValueKind::WK_Num:
    O << cast<CpsNum>(W)->value();
    return;
  case CpsValueKind::WK_Var:
    O << Ctx.spelling(cast<CpsVar>(W)->name());
    return;
  case CpsValueKind::WK_Prim:
    O << (cast<CpsPrim>(W)->op() == CpsPrimOp::Add1k ? "add1k" : "sub1k");
    return;
  case CpsValueKind::WK_Lam: {
    const auto *Lam = cast<CpsLam>(W);
    O << "(lambda (" << Ctx.spelling(Lam->param()) << ' '
      << Ctx.spelling(Lam->kparam()) << ')';
    newlineOrSpace(O, Indented, Depth + 1);
    printTerm(Ctx, Lam->body(), O, Indented, Depth + 1);
    O << ')';
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Node walks
//===----------------------------------------------------------------------===//

template <typename TermFn, typename ValueFn, typename ContFn>
void walkCps(const CpsTerm *P, TermFn OnTerm, ValueFn OnValue, ContFn OnCont) {
  OnTerm(P);
  switch (P->kind()) {
  case CpsTermKind::PK_Ret:
    OnValue(cast<CpsRet>(P)->arg());
    if (const auto *Lam = dyn_cast<CpsLam>(cast<CpsRet>(P)->arg()))
      walkCps(Lam->body(), OnTerm, OnValue, OnCont);
    return;
  case CpsTermKind::PK_LetVal: {
    const auto *Let = cast<CpsLetVal>(P);
    OnValue(Let->bound());
    if (const auto *Lam = dyn_cast<CpsLam>(Let->bound()))
      walkCps(Lam->body(), OnTerm, OnValue, OnCont);
    walkCps(Let->body(), OnTerm, OnValue, OnCont);
    return;
  }
  case CpsTermKind::PK_Call: {
    const auto *Call = cast<CpsCall>(P);
    OnValue(Call->fun());
    if (const auto *Lam = dyn_cast<CpsLam>(Call->fun()))
      walkCps(Lam->body(), OnTerm, OnValue, OnCont);
    OnValue(Call->arg());
    if (const auto *Lam = dyn_cast<CpsLam>(Call->arg()))
      walkCps(Lam->body(), OnTerm, OnValue, OnCont);
    OnCont(Call->cont());
    walkCps(Call->cont()->body(), OnTerm, OnValue, OnCont);
    return;
  }
  case CpsTermKind::PK_If: {
    const auto *If = cast<CpsIf>(P);
    OnCont(If->join());
    walkCps(If->join()->body(), OnTerm, OnValue, OnCont);
    OnValue(If->cond());
    if (const auto *Lam = dyn_cast<CpsLam>(If->cond()))
      walkCps(Lam->body(), OnTerm, OnValue, OnCont);
    walkCps(If->thenBranch(), OnTerm, OnValue, OnCont);
    walkCps(If->elseBranch(), OnTerm, OnValue, OnCont);
    return;
  }
  case CpsTermKind::PK_Loop: {
    const auto *Loop = cast<CpsLoop>(P);
    OnCont(Loop->cont());
    walkCps(Loop->cont()->body(), OnTerm, OnValue, OnCont);
    return;
  }
  }
}

} // namespace

Result<CpsProgram> cpsflow::cps::cpsTransform(Context &Ctx,
                                              const syntax::Term *Anf) {
  if (Result<bool> R = anf::isAnf(Anf); !R)
    return Error("cps transform requires A-normal form: " +
                 R.error().Message);
  CpsProgram Out;
  Transformer T(Ctx, Out);
  Out.TopK = T.freshK();
  Out.Root = T.transformTerm(Anf, Out.TopK);
  return Out;
}

const CpsLam *cpsflow::cps::cpsTransformExtra(Context &Ctx,
                                              CpsProgram &Program,
                                              const syntax::LamValue *Lam) {
  if (auto It = Program.LamToCps.find(Lam); It != Program.LamToCps.end())
    return It->second;
  Transformer T(Ctx, Program);
  return cast<CpsLam>(T.transformValue(Lam));
}

std::string cpsflow::cps::printCps(const Context &Ctx, const CpsTerm *P) {
  std::ostringstream O;
  printTerm(Ctx, P, O);
  return O.str();
}

std::string cpsflow::cps::printCps(const Context &Ctx, const CpsValue *W) {
  std::ostringstream O;
  printValue(Ctx, W, O, /*Indented=*/false, 0);
  return O.str();
}

std::string cpsflow::cps::printCpsIndented(const Context &Ctx,
                                           const CpsTerm *P) {
  std::ostringstream O;
  printTerm(Ctx, P, O, /*Indented=*/true, 0);
  return O.str();
}

size_t cpsflow::cps::countCpsNodes(const CpsTerm *P) {
  size_t N = 0;
  walkCps(
      P, [&](const CpsTerm *) { ++N; }, [&](const CpsValue *) { ++N; },
      [&](const ContLam *) { ++N; });
  return N;
}

std::vector<const CpsLam *> cpsflow::cps::collectCpsLams(const CpsTerm *P) {
  std::vector<const CpsLam *> Out;
  walkCps(
      P, [](const CpsTerm *) {},
      [&](const CpsValue *W) {
        if (const auto *Lam = dyn_cast<CpsLam>(W))
          Out.push_back(Lam);
      },
      [](const ContLam *) {});
  std::sort(Out.begin(), Out.end(),
            [](const CpsLam *A, const CpsLam *B) { return A->id() < B->id(); });
  return Out;
}

std::vector<const ContLam *> cpsflow::cps::collectContLams(const CpsTerm *P) {
  std::vector<const ContLam *> Out;
  walkCps(
      P, [](const CpsTerm *) {}, [](const CpsValue *) {},
      [&](const ContLam *C) { Out.push_back(C); });
  std::sort(Out.begin(), Out.end(), [](const ContLam *A, const ContLam *B) {
    return A->id() < B->id();
  });
  return Out;
}

std::vector<Symbol> cpsflow::cps::collectCpsVariables(const CpsTerm *P,
                                                      Symbol TopK) {
  std::set<Symbol> All;
  All.insert(TopK);
  walkCps(
      P,
      [&](const CpsTerm *T) {
        switch (T->kind()) {
        case CpsTermKind::PK_Ret:
          All.insert(cast<CpsRet>(T)->kvar());
          break;
        case CpsTermKind::PK_LetVal:
          All.insert(cast<CpsLetVal>(T)->var());
          break;
        case CpsTermKind::PK_If:
          All.insert(cast<CpsIf>(T)->kvar());
          break;
        case CpsTermKind::PK_Call:
        case CpsTermKind::PK_Loop:
          break;
        }
      },
      [&](const CpsValue *W) {
        if (const auto *Var = dyn_cast<CpsVar>(W))
          All.insert(Var->name());
        if (const auto *Lam = dyn_cast<CpsLam>(W)) {
          All.insert(Lam->param());
          All.insert(Lam->kparam());
        }
      },
      [&](const ContLam *C) { All.insert(C->param()); });
  return std::vector<Symbol>(All.begin(), All.end());
}

//===----------------------------------------------------------------------===//
// Flat label-arena lowering (CpsIr.h)
//===----------------------------------------------------------------------===//

namespace {

/// Recursive lowering of one body tree. Terms reached through a
/// continuation index (call/if/loop continuations) are *not* descended
/// into — each continuation body is its own flat body, lowered once from
/// buildCpsIr's driver loop — so every term gets exactly one label.
struct IrBuilder {
  CpsIr Ir;
  const std::function<uint32_t(Symbol)> &SlotOf;
  std::unordered_map<const CpsLam *, uint32_t> LamIdx;
  std::unordered_map<const ContLam *, uint32_t> ContIdx;
  std::unordered_map<const CpsValue *, uint32_t> ValIdx;

  explicit IrBuilder(const std::function<uint32_t(Symbol)> &SlotOf)
      : SlotOf(SlotOf) {}

  uint32_t lowerVal(const CpsValue *W) {
    if (auto It = ValIdx.find(W); It != ValIdx.end())
      return It->second;
    CpsIr::ValNode N;
    N.Src = W;
    switch (W->kind()) {
    case CpsValueKind::WK_Num:
      N.Kind = CpsIr::ValKind::Num;
      N.Num = cast<CpsNum>(W)->value();
      break;
    case CpsValueKind::WK_Var:
      N.Kind = CpsIr::ValKind::Var;
      N.A = SlotOf(cast<CpsVar>(W)->name());
      break;
    case CpsValueKind::WK_Prim:
      N.Kind = cast<CpsPrim>(W)->op() == CpsPrimOp::Add1k
                   ? CpsIr::ValKind::Inck
                   : CpsIr::ValKind::Deck;
      break;
    case CpsValueKind::WK_Lam: {
      // Every lambda under a lowered body was enumerated up front.
      auto It = LamIdx.find(cast<CpsLam>(W));
      assert(It != LamIdx.end() && "lambda missing from the enumeration");
      N.Kind = CpsIr::ValKind::Lam;
      N.A = It->second;
      break;
    }
    }
    uint32_t Label = static_cast<uint32_t>(Ir.Vals.size());
    Ir.Vals.push_back(N);
    ValIdx.emplace(W, Label);
    return Label;
  }

  /// Kont-universe numbering: 0 is `stop`, so in-program continuations
  /// start at 1.
  uint32_t contIndex(const ContLam *C) {
    auto It = ContIdx.find(C);
    assert(It != ContIdx.end() && "continuation missing from the enumeration");
    return It->second + 1;
  }

  uint32_t lowerTerm(const CpsTerm *P) {
    uint32_t Label = static_cast<uint32_t>(Ir.Terms.size());
    Ir.Terms.emplace_back();
    CpsIr::TermNode N;
    N.Kind = P->kind();
    N.SrcId = P->id();
    N.Loc = P->loc();
    N.Src = P;
    switch (P->kind()) {
    case CpsTermKind::PK_Ret: {
      const auto *Ret = cast<CpsRet>(P);
      N.A = SlotOf(Ret->kvar());
      N.B = lowerVal(Ret->arg());
      break;
    }
    case CpsTermKind::PK_LetVal: {
      const auto *Let = cast<CpsLetVal>(P);
      N.A = SlotOf(Let->var());
      N.B = lowerVal(Let->bound());
      N.C = lowerTerm(Let->body());
      break;
    }
    case CpsTermKind::PK_Call: {
      const auto *Call = cast<CpsCall>(P);
      N.A = lowerVal(Call->fun());
      N.B = lowerVal(Call->arg());
      N.C = contIndex(Call->cont());
      break;
    }
    case CpsTermKind::PK_If: {
      const auto *If = cast<CpsIf>(P);
      N.A = SlotOf(If->kvar());
      N.B = lowerVal(If->cond());
      N.C = lowerTerm(If->thenBranch());
      N.E = lowerTerm(If->elseBranch());
      N.J = contIndex(If->join());
      break;
    }
    case CpsTermKind::PK_Loop:
      N.A = contIndex(cast<CpsLoop>(P)->cont());
      break;
    }
    Ir.Terms[Label] = N;
    return Label;
  }
};

} // namespace

CpsIr cpsflow::cps::buildCpsIr(const CpsProgram &Program,
                               const std::vector<const CpsLam *> &ExtraLams,
                               const std::function<uint32_t(Symbol)> &SlotOf) {
  // Enumerate user and continuation lambdas as Universe.cpp does
  // (program + extras + lambdas nested in extra bodies, id-sorted and
  // deduplicated): the analyzer takes its closure/kont universes from
  // these arrays, so array positions are universe indices.
  std::vector<const CpsLam *> Lams = collectCpsLams(Program.Root);
  std::vector<const ContLam *> Conts = collectContLams(Program.Root);
  for (const CpsLam *L : ExtraLams) {
    Lams.push_back(L);
    for (const CpsLam *N : collectCpsLams(L->body()))
      Lams.push_back(N);
    for (const ContLam *C : collectContLams(L->body()))
      Conts.push_back(C);
  }
  auto ById = [](const auto *A, const auto *B) { return A->id() < B->id(); };
  std::sort(Lams.begin(), Lams.end(), ById);
  Lams.erase(std::unique(Lams.begin(), Lams.end()), Lams.end());
  std::sort(Conts.begin(), Conts.end(), ById);
  Conts.erase(std::unique(Conts.begin(), Conts.end()), Conts.end());

  IrBuilder B(SlotOf);
  B.Ir.Lams.resize(Lams.size());
  B.Ir.Conts.resize(Conts.size());
  for (uint32_t I = 0; I < Lams.size(); ++I) {
    B.LamIdx.emplace(Lams[I], I);
    CpsIr::LamNode &N = B.Ir.Lams[I];
    N.ParamSlot = SlotOf(Lams[I]->param());
    N.KParamSlot = SlotOf(Lams[I]->kparam());
    N.Src = Lams[I];
  }
  for (uint32_t I = 0; I < Conts.size(); ++I) {
    B.ContIdx.emplace(Conts[I], I);
    CpsIr::ContNode &N = B.Ir.Conts[I];
    N.ParamSlot = SlotOf(Conts[I]->param());
    N.SrcId = Conts[I]->id();
    N.Loc = Conts[I]->loc();
    N.Src = Conts[I];
  }
  for (uint32_t I = 0; I < Conts.size(); ++I)
    B.Ir.Conts[I].Body = B.lowerTerm(Conts[I]->body());
  for (uint32_t I = 0; I < Lams.size(); ++I)
    B.Ir.Lams[I].Body = B.lowerTerm(Lams[I]->body());
  B.Ir.Root = B.lowerTerm(Program.Root);
  return std::move(B.Ir);
}
