//===- gen/Digest.h - Stable structural term digests ------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 64-bit structural digest of language-A terms that is stable across
/// Contexts, processes, and platforms: it hashes node kinds, numerals,
/// and variable *spellings* (never node ids, pointers, or symbol ids).
/// Two structurallyEqual terms always digest equal, whichever Context
/// each lives in.
///
/// Uses: the generator-stability golden test (fixed GenOptions seeds must
/// keep producing the same programs, or recorded fuzz reproducer seeds
/// rot), fuzz finding deduplication, and deterministic reproducer file
/// names.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_GEN_DIGEST_H
#define CPSFLOW_GEN_DIGEST_H

#include "syntax/Ast.h"

#include <cstdint>
#include <string_view>

namespace cpsflow {
namespace gen {

/// Structural digest of \p T. Depends only on the tree shape, numerals,
/// primitive tags, and identifier spellings.
uint64_t termDigest(const Context &Ctx, const syntax::Term *T);

/// Digest of \p V (same domain as termDigest).
uint64_t valueDigest(const Context &Ctx, const syntax::Value *V);

/// Digest of raw program text (for artifacts that exist only as source,
/// e.g. fuzz reproducer files before parsing).
uint64_t textDigest(std::string_view Text);

/// A second, independent 64-bit digest of raw text (different offset
/// basis and multiplier plus a length fold). Used wherever a single
/// 64-bit hash keying an answer would let a collision serve the wrong
/// result: verifying both digests (and the length) shrinks the accident
/// surface from 2^-64 to effectively zero.
uint64_t textDigest2(std::string_view Text);

} // namespace gen
} // namespace cpsflow

#endif // CPSFLOW_GEN_DIGEST_H
