//===- analysis/Witnesses.cpp - Theorem witness programs --------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Witnesses.h"

#include "anf/Anf.h"
#include "syntax/Analysis.h"
#include "syntax/Builder.h"

#include <cassert>

using namespace cpsflow;
using namespace cpsflow::analysis;
using namespace cpsflow::syntax;

void cpsflow::analysis::finalizeWitness(Context &Ctx, Witness &W) {
  assert(anf::isAnfQuick(W.Anf) && "witness must be built in ANF");
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, W.Anf);
  assert(P.hasValue() && "witness transform failed");
  W.Cps = P.take();
  for (const AbsBindingSpec &B : W.Bindings)
    for (const LamValue *Lam : B.Lams)
      cps::cpsTransformExtra(Ctx, W.Cps, Lam);
}

namespace {

void finalize(Context &Ctx, Witness &W) { finalizeWitness(Ctx, W); }

} // namespace

Witness cpsflow::analysis::theorem51(Context &Ctx) {
  Builder B(Ctx);
  Witness W;
  W.Name = "theorem-5.1";

  Symbol F = Ctx.intern("f");
  Symbol A1 = Ctx.intern("a1");
  Symbol A2 = Ctx.intern("a2");
  Symbol X = Ctx.intern("x");

  // (let (a1 (f 1)) (let (a2 (f 2)) a2))
  W.Anf = B.let(A1, B.appVV(B.var(F), B.num(1)),
                B.let(A2, B.appVV(B.var(F), B.num(2)), B.varTerm(A2)));

  // f |-> (bot, {(cle x, x)}): the identity closure.
  const LamValue *Id = B.lam(X, B.varTerm(X));
  AbsBindingSpec FB;
  FB.Var = F;
  FB.Lams.push_back(Id);
  W.Bindings.push_back(FB);

  W.InterestingVars = {A1, A2, X};
  finalize(Ctx, W);
  return W;
}

Witness cpsflow::analysis::theorem52a(Context &Ctx) {
  Builder B(Ctx);
  Witness W;
  W.Name = "theorem-5.2a";

  Symbol Z = Ctx.intern("z");
  Symbol A1 = Ctx.intern("a1");
  Symbol A2 = Ctx.intern("a2");

  // (let (a1 (if0 z 0 1))
  //   (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))
  // with (+ a1 n) spelled as an add1 chain ending in a named result.
  Symbol T3 = Ctx.intern("t3");
  Symbol S2 = Ctx.intern("s2");
  const Term *Plus3 = B.plusConst(T3, B.var(A1), 3, B.varTerm(T3));
  const Term *Plus2 = B.plusConst(S2, B.var(A1), 2, B.varTerm(S2));

  W.Anf = B.let(
      A1, B.if0(B.varTerm(Z), B.numTerm(0), B.numTerm(1)),
      B.let(A2, B.if0(B.varTerm(A1), Plus3, Plus2), B.varTerm(A2)));

  AbsBindingSpec ZB;
  ZB.Var = Z;
  ZB.NumTop = true;
  W.Bindings.push_back(ZB);

  W.InterestingVars = {A1, A2};
  finalize(Ctx, W);
  return W;
}

Witness cpsflow::analysis::theorem52b(Context &Ctx) {
  Builder B(Ctx);
  Witness W;
  W.Name = "theorem-5.2b";

  Symbol F = Ctx.intern("f");
  Symbol A1 = Ctx.intern("a1");
  Symbol A2 = Ctx.intern("a2");
  Symbol U = Ctx.intern("u");
  Symbol V = Ctx.intern("v");
  Symbol D0 = Ctx.intern("d0");
  Symbol D1 = Ctx.intern("d1");

  // (let (a1 (f 3))
  //   (let (a2 (if0 a1 5 (if0 (sub1 a1) 5 6))) a2))
  // in ANF, naming the intermediate results u and v.
  const Term *Inner =
      B.let(U, B.appVV(B.sub1(), B.var(A1)),
            B.let(V, B.if0(B.varTerm(U), B.numTerm(5), B.numTerm(6)),
                  B.varTerm(V)));
  W.Anf = B.let(
      A1, B.appVV(B.var(F), B.num(3)),
      B.let(A2, B.if0(B.varTerm(A1), B.numTerm(5), Inner), B.varTerm(A2)));

  // f |-> (bot, {(cle d0, 0), (cle d1, 1)}).
  const LamValue *K0 = B.lam(D0, B.numTerm(0));
  const LamValue *K1 = B.lam(D1, B.numTerm(1));
  AbsBindingSpec FB;
  FB.Var = F;
  FB.Lams.push_back(K0);
  FB.Lams.push_back(K1);
  W.Bindings.push_back(FB);

  W.InterestingVars = {A1, A2, U, V};
  finalize(Ctx, W);
  return W;
}

Witness cpsflow::analysis::packageProgram(Context &Ctx, std::string Name,
                                          const syntax::Term *Anf) {
  Witness W;
  W.Name = std::move(Name);
  W.Anf = Anf;
  for (Symbol S : syntax::boundVars(Anf))
    W.InterestingVars.push_back(S);
  finalize(Ctx, W);
  return W;
}
