//===- perfbench/Serve.cpp - Driving a `cpsflow serve` daemon -------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <mutex>
#include <spawn.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

namespace perfbench {

using namespace cpsflow;
using Clock = std::chrono::steady_clock;

namespace {

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Reaps \p Pid if it has exited. True when it has.
bool reaped(pid_t Pid, int &Status) {
  return ::waitpid(Pid, &Status, WNOHANG) == Pid;
}

} // namespace

bool Connection::open(const std::string &Path, double TimeoutMs) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  auto T0 = Clock::now();
  for (;;) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      return true;
    if ((errno != ECONNREFUSED && errno != ENOENT) ||
        secondsSince(T0) * 1000 > TimeoutMs)
      return false;
    ::usleep(200);
  }
}

Connection::~Connection() {
  if (Fd >= 0)
    ::close(Fd);
}

std::string Connection::roundTrip(const std::string &Line) {
  std::string Out = Line + "\n";
  for (size_t Sent = 0; Sent < Out.size();) {
    ssize_t N =
        ::send(Fd, Out.data() + Sent, Out.size() - Sent, MSG_NOSIGNAL);
    if (N <= 0)
      return {};
    Sent += static_cast<size_t>(N);
  }
  for (;;) {
    size_t Nl = Buf.find('\n');
    if (Nl != std::string::npos) {
      std::string Response = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      return Response;
    }
    char Chunk[8192];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      return {};
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

Daemon::Daemon(const std::string &Cpsflow, const std::string &Socket,
               const std::string &CacheDir, const std::string &LogPath)
    : Socket(Socket) {
  std::vector<std::string> Args = {Cpsflow,     "serve",     "--socket",
                                   Socket,      "--cache-dir", CacheDir};
  if (!LogPath.empty()) {
    Args.push_back("--log-out");
    Args.push_back(LogPath);
  }
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  // The daemon's own output goes to a file beside its socket: the
  // benchmark's stdout carries only its report.
  posix_spawn_file_actions_t Files;
  posix_spawn_file_actions_init(&Files);
  posix_spawn_file_actions_addopen(&Files, 0, "/dev/null", O_RDONLY, 0);
  const std::string Out = Socket + ".out";
  posix_spawn_file_actions_addopen(&Files, 1, Out.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&Files, 1, 2);
  auto T0 = Clock::now();
  int Rc = posix_spawn(&Pid, Cpsflow.c_str(), &Files, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Files);
  if (Rc != 0) {
    Pid = -1;
    throw std::runtime_error("cannot start '" + Cpsflow +
                             "': " + std::strerror(Rc));
  }

  for (;;) {
    int Status = 0;
    if (reaped(Pid, Status)) {
      Pid = -1;
      throw std::runtime_error("the serve daemon exited during startup");
    }
    Connection C;
    if (C.open(Socket, 100) &&
        C.roundTrip(R"({"op":"health"})").find(R"("ok":true)") !=
            std::string::npos)
      break;
    if (secondsSince(T0) > 30)
      throw std::runtime_error("the serve daemon never answered health");
  }
  StartupS = secondsSince(T0);
}

Daemon::~Daemon() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
  }
}

double Daemon::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

JsonValue Daemon::scrapeMetrics() const {
  Connection C;
  if (!C.open(Socket, 1000))
    throw std::runtime_error("cannot connect to scrape metrics");
  Result<JsonValue> Doc = parseJson(C.roundTrip(R"({"op":"metrics"})"));
  const JsonValue *M = Doc ? Doc->find("metrics") : nullptr;
  if (!M || !M->isObject())
    throw std::runtime_error("the metrics op gave no registry object");
  return *M;
}

bool Daemon::stop() {
  if (Pid <= 0)
    return false;
  {
    Connection C;
    if (C.open(Socket, 1000))
      C.roundTrip(R"({"op":"shutdown"})");
    else
      ::kill(Pid, SIGTERM);
  }
  auto T0 = Clock::now();
  int Status = 0;
  while (!reaped(Pid, Status)) {
    if (secondsSince(T0) > 20) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      Pid = -1;
      return false;
    }
    ::usleep(1000);
  }
  Pid = -1;
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

std::vector<Exchange>
closedLoop(const std::string &Socket, unsigned Clients, uint64_t Count,
           double Seconds,
           const std::function<std::string(uint64_t)> &MakeLine,
           double &WallSeconds) {
  std::atomic<uint64_t> Next{0};
  std::mutex M;
  std::vector<Exchange> All;
  auto T0 = Clock::now();
  auto Body = [&] {
    std::vector<Exchange> Mine;
    Connection C;
    bool Open = C.open(Socket, 5000);
    for (;;) {
      uint64_t I = Next.fetch_add(1);
      if (I >= Count || (Seconds > 0 && secondsSince(T0) >= Seconds))
        break;
      std::string Line = MakeLine(I);
      Exchange E;
      E.Index = I;
      auto Sent = Clock::now();
      if (Open)
        E.Response = C.roundTrip(Line);
      E.RoundTripUs =
          std::chrono::duration<double, std::micro>(Clock::now() - Sent)
              .count();
      E.SentS = std::chrono::duration<double>(Sent - T0).count();
      Mine.push_back(std::move(E));
    }
    std::lock_guard<std::mutex> Lock(M);
    for (Exchange &E : Mine)
      All.push_back(std::move(E));
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back(Body);
  for (std::thread &T : Threads)
    T.join();
  WallSeconds = secondsSince(T0);
  std::sort(All.begin(), All.end(), [](const Exchange &A, const Exchange &B) {
    return A.Index < B.Index;
  });
  return All;
}

std::string analyzeLine(uint64_t Id, const std::string &Program,
                        const char *Analyzer) {
  return R"({"op":"analyze","id":)" + std::to_string(Id) +
         R"(,"program":")" + jsonEscape(Program) + R"(","analyzer":")" +
         Analyzer + R"("})";
}

} // namespace perfbench
