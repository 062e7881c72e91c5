//===- perfbench/Programs.h - Benchmark inputs ------------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs the benchmark feeds the pipeline, and the expected-answer
/// file that checks every answer it gets back.
///
///  * corpus: examples/corpus/*.scm, in name order.
///  * scaling: gen::Workloads families rendered to source with
///    syntax::print, plus a seeded draw from a committed, stratified pool
///    of ProgramGenerator WellTyped programs named "gen-s<seed>-c<chain>".
///  * serve edits: one numeric literal of a corpus program replaced.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_PERFBENCH_PROGRAMS_H
#define CPSFLOW_PERFBENCH_PROGRAMS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The five analyzer legs, in batch report order.
inline constexpr const char *Legs[5] = {"direct", "semantic", "syntactic",
                                        "dup", "pushdown"};
inline constexpr unsigned NumLegs = 5;
inline constexpr unsigned AllLegs = (1u << NumLegs) - 1;

struct NamedProgram {
  std::string Name;
  std::string Source;
};

/// examples/corpus/*.scm under \p Root, sorted by name. Throws
/// std::runtime_error when the directory is missing or empty.
std::vector<NamedProgram> corpusPrograms(const std::string &Root);

/// The structured scaling families, sized so no leg degrades.
std::vector<NamedProgram> scalingFamilies();

/// Regenerates a pool program from its "gen-s<seed>-c<chain>" name.
/// Throws std::runtime_error on a malformed name.
NamedProgram generatedProgram(const std::string &Name);

/// The name of the WellTyped generator program for \p GenSeed and
/// \p Chain.
std::string generatedName(uint64_t GenSeed, uint32_t Chain);

/// expected answers: (program, leg) -> rendered answer.
using Expected = std::map<std::pair<std::string, std::string>, std::string>;

/// Reads the tab-separated expected-answer file. Throws
/// std::runtime_error when it is missing or malformed.
Expected readExpected(const std::string &Path);

/// Renders \p E in the file format readExpected accepts.
std::string renderExpected(const Expected &E);

/// The scaling workload's generator pool: strata of program names, in
/// increasing order of work. A scaling run draws one program from each
/// stratum, so every draw has the same cost profile.
using Pool = std::vector<std::vector<std::string>>;

/// Reads the pool file: one stratum per line, names separated by
/// spaces. Throws std::runtime_error when it is missing or malformed.
Pool readPool(const std::string &Path);

/// Renders \p P in the file format readPool accepts.
std::string renderPool(const Pool &P);

/// The scaling workload for \p Seed: every family, then one program
/// from each pool stratum, chosen by a generator seeded with \p Seed.
std::vector<NamedProgram> scalingPrograms(const Pool &P, uint64_t Seed);

/// A numeric literal in program text: [Offset, Offset + Length).
struct Leaf {
  size_t Offset = 0;
  size_t Length = 0;
};

/// The numeric literals of \p Source, outside comments, in text order.
std::vector<Leaf> numericLeaves(const std::string &Source);

/// \p Source with \p L replaced by \p Value.
std::string withLeaf(const std::string &Source, const Leaf &L,
                     uint64_t Value);

} // namespace perfbench

#endif // CPSFLOW_PERFBENCH_PROGRAMS_H
