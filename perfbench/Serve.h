//===- perfbench/Serve.h - Driving a `cpsflow serve` daemon -----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Starts `cpsflow serve` at its defaults (plus --cache-dir, and --log-out
/// when traced), drives it with a closed loop of client connections that
/// speak only the documented line protocol, and stops it.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_PERFBENCH_SERVE_H
#define CPSFLOW_PERFBENCH_SERVE_H

#include "support/JsonParse.h"

#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// One blocking request/response connection.
class Connection {
public:
  Connection() = default;
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  /// Connects to \p Path, retrying while the daemon is still binding.
  /// False when it never accepts within \p TimeoutMs.
  bool open(const std::string &Path, double TimeoutMs);
  ~Connection();

  /// Sends \p Line plus a newline and blocks for one response line.
  /// Empty on a transport failure.
  std::string roundTrip(const std::string &Line);

private:
  int Fd = -1;
  std::string Buf;
};

class Daemon {
public:
  /// Starts `Cpsflow serve --socket Socket --cache-dir CacheDir` (plus
  /// `--log-out LogPath` when non-empty) and waits for its first healthy
  /// `health` answer. Throws std::runtime_error on failure.
  Daemon(const std::string &Cpsflow, const std::string &Socket,
         const std::string &CacheDir, const std::string &LogPath);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Seconds from spawning the process to its first health answer.
  double startupSeconds() const { return StartupS; }
  const std::string &socket() const { return Socket; }

  /// The daemon's VmHWM in MiB.
  double peakRssMb() const;

  /// The `metrics` op's registry object.
  cpsflow::JsonValue scrapeMetrics() const;

  /// Sends `shutdown` and waits for the process. False unless it exited
  /// with status 0.
  bool stop();

private:
  std::string Socket;
  pid_t Pid = -1;
  double StartupS = 0;
};

/// One request of a closed-loop run and what came back.
struct Exchange {
  uint64_t Index = 0;   ///< position in the request stream (also its id)
  double SentS = 0;     ///< send time, seconds from the loop's start
  double RoundTripUs = 0;
  std::string Response; ///< empty on a transport failure
};

/// Runs \p Clients connections against \p Socket, each repeatedly taking
/// the next stream index and sending MakeLine(index), until \p Count
/// requests were taken or \p Seconds elapsed (0 = no time limit).
/// Returns the exchanges in stream order and the loop's wall time.
std::vector<Exchange>
closedLoop(const std::string &Socket, unsigned Clients, uint64_t Count,
           double Seconds,
           const std::function<std::string(uint64_t)> &MakeLine,
           double &WallSeconds);

/// The request line for one analyze request, using only documented
/// protocol fields.
std::string analyzeLine(uint64_t Id, const std::string &Program,
                        const char *Analyzer);

} // namespace perfbench

#endif // CPSFLOW_PERFBENCH_SERVE_H
