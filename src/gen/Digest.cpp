//===- gen/Digest.cpp - Stable structural term digests ----------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gen/Digest.h"

#include "support/Hashing.h"

namespace cpsflow {
namespace gen {

namespace {

uint64_t stringHash(std::string_view S) {
  // FNV-1a, then mix64: simple, endian-free, stable everywhere.
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return mix64(H);
}

// Distinct per-kind salts so (let (x 1) x) and (if0 1 x x) with the same
// child digests cannot collide structurally.
enum : uint64_t {
  SaltNum = 0xA1,
  SaltVar = 0xA2,
  SaltPrimAdd = 0xA3,
  SaltPrimSub = 0xA4,
  SaltLam = 0xA5,
  SaltValueTerm = 0xB1,
  SaltApp = 0xB2,
  SaltLet = 0xB3,
  SaltIf0 = 0xB4,
  SaltLoop = 0xB5,
};

} // namespace

uint64_t termDigest(const Context &Ctx, const syntax::Term *T) {
  using namespace syntax;
  uint64_t H = 0;
  switch (T->kind()) {
  case TermKind::TK_Value:
    H = SaltValueTerm;
    hashCombine(H, valueDigest(Ctx, cast<ValueTerm>(T)->value()));
    break;
  case TermKind::TK_App: {
    const auto *A = cast<AppTerm>(T);
    H = SaltApp;
    hashCombine(H, termDigest(Ctx, A->fun()));
    hashCombine(H, termDigest(Ctx, A->arg()));
    break;
  }
  case TermKind::TK_Let: {
    const auto *L = cast<LetTerm>(T);
    H = SaltLet;
    hashCombine(H, stringHash(Ctx.spelling(L->var())));
    hashCombine(H, termDigest(Ctx, L->bound()));
    hashCombine(H, termDigest(Ctx, L->body()));
    break;
  }
  case TermKind::TK_If0: {
    const auto *I = cast<If0Term>(T);
    H = SaltIf0;
    hashCombine(H, termDigest(Ctx, I->cond()));
    hashCombine(H, termDigest(Ctx, I->thenBranch()));
    hashCombine(H, termDigest(Ctx, I->elseBranch()));
    break;
  }
  case TermKind::TK_Loop:
    H = SaltLoop;
    break;
  }
  return mix64(H);
}

uint64_t valueDigest(const Context &Ctx, const syntax::Value *V) {
  using namespace syntax;
  uint64_t H = 0;
  switch (V->kind()) {
  case ValueKind::VK_Num:
    H = SaltNum;
    hashCombine(H, static_cast<uint64_t>(cast<NumValue>(V)->value()));
    break;
  case ValueKind::VK_Var:
    H = SaltVar;
    hashCombine(H, stringHash(Ctx.spelling(cast<VarValue>(V)->name())));
    break;
  case ValueKind::VK_Prim:
    H = cast<PrimValue>(V)->op() == PrimOp::Add1 ? SaltPrimAdd : SaltPrimSub;
    break;
  case ValueKind::VK_Lam: {
    const auto *L = cast<LamValue>(V);
    H = SaltLam;
    hashCombine(H, stringHash(Ctx.spelling(L->param())));
    hashCombine(H, termDigest(Ctx, L->body()));
    break;
  }
  }
  return mix64(H);
}

uint64_t textDigest(std::string_view Text) { return stringHash(Text); }

uint64_t textDigest2(std::string_view Text) {
  // Same FNV-1a skeleton as textDigest but a different offset basis and
  // multiplier, folded with the length: a pair of texts colliding on both
  // digests and their lengths is no longer a realistic accident.
  uint64_t H = 0x6c62272e07bb0142ull ^ (Text.size() * 0x9e3779b97f4a7c15ull);
  for (char C : Text) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x00000100000001b3ull ^ 0x200;
  }
  return mix64(H ^ (H >> 32));
}

} // namespace gen
} // namespace cpsflow
