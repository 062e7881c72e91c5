//===- interp/Direct.cpp - Figure 1: the direct interpreter -----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Direct.h"

#include "support/StackHeadroom.h"
#include "syntax/Printer.h"

#include <sstream>

using namespace cpsflow;
using namespace cpsflow::interp;
using namespace cpsflow::syntax;

RunResult DirectInterp::run(const Term *Program,
                            const std::vector<InitialBinding> &Initial) {
  Result = RunResult();
  Result.Status = RunStatus::Ok;

  const EnvNode *Env = nullptr;
  for (const InitialBinding &B : Initial)
    Env = Envs.extend(Env, B.Var, TheStore.alloc(B.Var, B.Value));

  Partial P = evalTerm(Program, Env, 0);
  if (P.Ok)
    Result.Value = P.Value;
  else if (Result.Status == RunStatus::Ok)
    Result.Status = RunStatus::Stuck;
  return Result;
}

DirectInterp::Partial DirectInterp::evalValue(const Value *V,
                                              const EnvNode *Env) {
  switch (V->kind()) {
  case ValueKind::VK_Num:
    return Partial{true, RtValue::number(cast<NumValue>(V)->value())};
  case ValueKind::VK_Var: {
    const EnvNode *Binding = EnvArena::lookup(Env, cast<VarValue>(V)->name());
    if (!Binding)
      return fail(RunStatus::Stuck, "unbound variable");
    return Partial{true, TheStore.at(Binding->Location)};
  }
  case ValueKind::VK_Prim:
    return Partial{true, cast<PrimValue>(V)->op() == PrimOp::Add1
                             ? RtValue::inc()
                             : RtValue::dec()};
  case ValueKind::VK_Lam:
    return Partial{true, RtValue::closure(cast<LamValue>(V), Env)};
  }
  return fail(RunStatus::Stuck, "unknown value kind");
}

DirectInterp::Partial DirectInterp::evalTerm(const Term *T,
                                             const EnvNode *Env,
                                             uint32_t Depth) {
  if (!spendFuel())
    return fail(RunStatus::OutOfFuel, "step budget exceeded");
  // The frame count is the limit; the headroom check keeps it ahead of
  // a stack overflow in builds with larger frames.
  if (Depth > Limits.MaxDepth || support::stackNearlyExhausted())
    return fail(RunStatus::OutOfFuel, "recursion depth exceeded");

  if (TraceCtx && Trace.size() < MaxTrace) {
    std::ostringstream O;
    O << std::string(std::min<uint32_t>(Depth, 40), ' ') << "eval "
      << snippet(syntax::print(*TraceCtx, T));
    Trace.push_back(O.str());
  }

  switch (T->kind()) {
  case TermKind::TK_Value:
    return evalValue(cast<ValueTerm>(T)->value(), Env);

  case TermKind::TK_App: {
    const auto *App = cast<AppTerm>(T);
    Partial Fun = evalTerm(App->fun(), Env, Depth + 1);
    if (!Fun.Ok)
      return Fun;
    Partial Arg = evalTerm(App->arg(), Env, Depth + 1);
    if (!Arg.Ok)
      return Arg;
    return apply(Fun.Value, Arg.Value, Depth, App);
  }

  case TermKind::TK_Let: {
    const auto *Let = cast<LetTerm>(T);
    Partial Bound = evalTerm(Let->bound(), Env, Depth + 1);
    if (!Bound.Ok)
      return Bound;
    Loc L = TheStore.alloc(Let->var(), Bound.Value);
    return evalTerm(Let->body(), Envs.extend(Env, Let->var(), L), Depth + 1);
  }

  case TermKind::TK_If0: {
    const auto *If = cast<If0Term>(T);
    Partial Cond = evalTerm(If->cond(), Env, Depth + 1);
    if (!Cond.Ok)
      return Cond;
    // "i = 1 if u0 = 0, i = 2 otherwise": any non-zero answer, including a
    // closure, selects the else branch.
    bool TakeThen = Cond.Value.isNum() && Cond.Value.Num == 0;
    return evalTerm(TakeThen ? If->thenBranch() : If->elseBranch(), Env,
                    Depth + 1);
  }

  case TermKind::TK_Loop:
    // `loop` stands for `x := 0; while true x := x + 1`: it never returns.
    return fail(RunStatus::Diverged, "loop construct never returns");
  }
  return fail(RunStatus::Stuck, "unknown term kind");
}

DirectInterp::Partial DirectInterp::apply(const RtValue &Fun,
                                          const RtValue &Arg, uint32_t Depth,
                                          const syntax::AppTerm *Site) {
  if (!spendFuel())
    return fail(RunStatus::OutOfFuel, "step budget exceeded");
  if (Site && Fun.Tag == RtValue::Kind::Closure)
    CalleeLog[Site].insert(Fun.Lam);
  if (TraceCtx && Trace.size() < MaxTrace)
    Trace.push_back("  apply " + str(*TraceCtx, Fun) + " to " +
                    str(*TraceCtx, Arg));

  switch (Fun.Tag) {
  case RtValue::Kind::Inc:
    if (!Arg.isNum())
      return fail(RunStatus::Stuck, "add1 applied to a non-number");
    return Partial{true, RtValue::number(Arg.Num + 1)};
  case RtValue::Kind::Dec:
    if (!Arg.isNum())
      return fail(RunStatus::Stuck, "sub1 applied to a non-number");
    return Partial{true, RtValue::number(Arg.Num - 1)};
  case RtValue::Kind::Closure: {
    Loc L = TheStore.alloc(Fun.Lam->param(), Arg);
    const EnvNode *Env = Envs.extend(Fun.Env, Fun.Lam->param(), L);
    return evalTerm(Fun.Lam->body(), Env, Depth + 1);
  }
  case RtValue::Kind::Num:
    return fail(RunStatus::Stuck, "application of a number");
  }
  return fail(RunStatus::Stuck, "unknown applied value");
}
