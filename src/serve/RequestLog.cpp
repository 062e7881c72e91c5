//===- serve/RequestLog.cpp - Structured per-request logging --------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/RequestLog.h"

#include "support/Json.h"

#include <cstdio>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace cpsflow;
using namespace cpsflow::serve;

namespace {

std::string hexDigest(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

void keyUs(std::ostringstream &O, const char *K, double Us) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f", Us < 0 ? 0.0 : Us);
  O << ",\"" << K << "\":" << Buf;
}

} // namespace

std::string cpsflow::serve::renderRequestRecord(const RequestRecord &R) {
  std::ostringstream O;
  O << "{\"schema\":" << RequestLogSchemaVersion;
  O << ",\"req\":" << R.ReqId;
  if (R.HasClientId)
    O << ",\"id\":" << R.ClientId;
  O << ",\"analyzer\":\"" << jsonEscape(R.Analyzer) << '"';
  O << ",\"domain\":\"" << jsonEscape(R.Domain) << '"';
  O << ",\"sourceLen\":" << R.SourceLen;
  O << ",\"sourceDigest\":\"" << hexDigest(R.SourceDigest) << '"';
  O << ",\"outcome\":\"" << jsonEscape(R.Outcome) << '"';
  if (!R.ErrorKind.empty())
    O << ",\"errorKind\":\"" << jsonEscape(R.ErrorKind) << '"';
  if (!R.DegradeReason.empty())
    O << ",\"degradeReason\":\"" << jsonEscape(R.DegradeReason) << '"';
  if (!R.CacheOutcome.empty())
    O << ",\"cache\":\"" << jsonEscape(R.CacheOutcome) << '"';
  O << ",\"goals\":" << R.Goals;
  keyUs(O, "queueUs", R.QueueUs);
  keyUs(O, "parseUs", R.ParseUs);
  keyUs(O, "cpsUs", R.CpsUs);
  keyUs(O, "analyzeUs", R.AnalyzeUs);
  keyUs(O, "totalUs", R.TotalUs);
  O << ",\"worker\":" << R.Worker;
  if (!R.SlowTracePath.empty())
    O << ",\"slowTrace\":\"" << jsonEscape(R.SlowTracePath) << '"';
  O << '}';
  return O.str();
}

RequestLog::RequestLog(std::string Path, uint64_t RotateBytes)
    : Path(std::move(Path)), RotateBytes(RotateBytes) {
  Fd = ::open(this->Path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (Fd >= 0) {
    struct stat St;
    if (::fstat(Fd, &St) == 0)
      CurBytes = static_cast<uint64_t>(St.st_size);
  }
}

RequestLog::~RequestLog() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd >= 0)
    ::close(Fd);
}

bool RequestLog::ok() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Fd >= 0;
}

void RequestLog::rotateLocked() {
  // FILE -> FILE.1, replacing the previous generation: at most ~2x the
  // cap lives on disk, and the freshest records are always in FILE.
  ::close(Fd);
  Fd = -1;
  std::string Old = Path + ".1";
  if (::rename(Path.c_str(), Old.c_str()) != 0)
    ::unlink(Path.c_str()); // second-best: keep appending to a fresh file
  Fd = ::open(Path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  CurBytes = 0;
  ++Rotations;
}

void RequestLog::append(const RequestRecord &R) {
  std::string Line = renderRequestRecord(R);
  Line.push_back('\n');

  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd < 0) {
    ++Failures;
    return;
  }
  if (RotateBytes && CurBytes && CurBytes + Line.size() > RotateBytes)
    rotateLocked();
  if (Fd < 0) {
    ++Failures;
    return;
  }
  // One write(2) per record: records from concurrent workers interleave
  // by whole lines, never by bytes (the mutex), and a crash mid-append
  // tears at most the final line — every earlier record stays readable.
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N < 0) {
      ++Failures;
      return;
    }
    Off += static_cast<size_t>(N);
  }
  CurBytes += Line.size();
  ++Written;
}

uint64_t RequestLog::written() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Written;
}

uint64_t RequestLog::failures() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Failures;
}

uint64_t RequestLog::rotations() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Rotations;
}
