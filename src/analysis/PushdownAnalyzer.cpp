//===- analysis/PushdownAnalyzer.cpp - Analyzer name registry -------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The analyzer-name registry shared by the CLI and the serve protocol:
// one canonicalization function so aliases resolve identically everywhere
// (and so result-cache keys never split across an alias and its canonical
// spelling), plus the rendered valid-choices lists used by rejection
// messages.
//
//===----------------------------------------------------------------------===//

#include "analysis/PushdownAnalyzer.h"

namespace cpsflow {
namespace analysis {

std::optional<std::string> canonicalAnalyzerName(std::string_view Name) {
  if (Name == "direct")
    return std::string("direct");
  if (Name == "semantic" || Name == "scps")
    return std::string("semantic");
  if (Name == "syntactic" || Name == "syncps")
    return std::string("syntactic");
  if (Name == "dup")
    return std::string("dup");
  if (Name == "pushdown" || Name == "pd" || Name == "cfa2")
    return std::string("pushdown");
  return std::nullopt;
}

const char *knownAnalyzerNames() {
  return "direct|semantic|syntactic|dup|pushdown";
}

const char *knownAnalyzerAliases() {
  return "scps=semantic, syncps=syntactic, pd=cfa2=pushdown";
}

} // namespace analysis
} // namespace cpsflow
