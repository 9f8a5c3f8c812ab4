//===- perfbench/tool/Drive.cpp - Closed-loop stdio client -----------------===//
///
/// `pbtool drive --serve BIN --yardstick BIN [--persist-dir D] --warmup F
///               --requests F --segments S --launches K --latencies F
///               --answers F --summary F --server-log F`
///
/// One client, one connection (the server's stdin/stdout), one request
/// outstanding, client and server on one CPU.  First K separate launches
/// measure set-up: launch to the first `health` answer, then shutdown.
/// Then S server lifetimes in a row each answer their share of the
/// warm-up lines (untimed) and of the timed lines, each timed from the
/// write of the request to the read of its response line; a `stats` line
/// and the server's VmHWM close each lifetime.  With --persist-dir every
/// lifetime restarts on the store the previous one appended to.
///
/// Between requests, outside every timed interval, the client asks the
/// speed yardstick (perfbench/yardstick, a child on the same CPU) for a
/// slice whenever 40 ms of request time have passed since its last slice,
/// three times at the start of each lifetime, and once before each
/// launch.  run.py scales every time by the yardstick slices taken around
/// it.
///
/// Output: F(latencies) holds one latency in nanoseconds per timed
/// request and F(answers) its response line; F(summary) is one JSON
/// object with the launch samples and their yardstick slices, every
/// timed-phase slice as [timed requests before it, ns], and, per
/// lifetime, the request count, the timed wall time (slices excluded),
/// the stats line and the peak RSS.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

extern char **environ;

namespace pb {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t nsSince(Clock::time_point T0) {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - T0)
                      .count());
}

/// Request time after which the client asks for the next yardstick slice.
constexpr uint64_t SliceEveryNs = 40'000'000;

/// A child speaking lines over two pipes: cai-serve's JSON lines, or the
/// yardstick's slices.  The destructor kills and reaps a child that was
/// not stopped cleanly.
class Server {
public:
  Server(const std::vector<std::string> &Argv, const std::string &LogPath) {
    int In[2], Out[2];
    if (::pipe2(In, O_CLOEXEC) != 0 || ::pipe2(Out, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_adddup2(&FA, In[0], 0);
    posix_spawn_file_actions_adddup2(&FA, Out[1], 1);
    posix_spawn_file_actions_addopen(&FA, 2, LogPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    int RC = posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ);
    posix_spawn_file_actions_destroy(&FA);
    ::close(In[0]);
    ::close(Out[1]);
    ToChild = In[1];
    FromChild = Out[0];
    if (RC != 0) {
      Pid = -1;
      ::close(ToChild);
      ::close(FromChild);
      throw std::runtime_error("cannot launch '" + Argv[0] +
                               "': " + std::strerror(RC));
    }
  }

  ~Server() {
    if (ToChild >= 0)
      ::close(ToChild);
    if (FromChild >= 0)
      ::close(FromChild);
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int Status = 0;
      ::waitpid(Pid, &Status, 0);
    }
  }

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  void send(const std::string &Line) {
    std::string Buf = Line + "\n";
    size_t Done = 0;
    while (Done < Buf.size()) {
      ssize_t N = ::write(ToChild, Buf.data() + Done, Buf.size() - Done);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        throw std::runtime_error("write to server failed");
      Done += size_t(N);
    }
  }

  std::string recv() {
    for (;;) {
      size_t Eol = Pending.find('\n');
      if (Eol != std::string::npos) {
        std::string Line = Pending.substr(0, Eol);
        Pending.erase(0, Eol + 1);
        return Line;
      }
      char Buf[65536];
      ssize_t N = ::read(FromChild, Buf, sizeof Buf);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        throw std::runtime_error("server closed its output");
      Pending.append(Buf, size_t(N));
    }
  }

  /// Sends shutdown, waits for the exit, and returns the exit code (-1 on
  /// a signal).
  int stop() {
    send("{\"cmd\":\"shutdown\"}");
    ::close(ToChild);
    ToChild = -1;
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    Pid = -1;
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

  /// The child's peak resident set (VmHWM) in KiB.
  uint64_t peakRssKb() const {
    std::string Status =
        readFile("/proc/" + std::to_string(Pid) + "/status");
    size_t At = Status.find("VmHWM:");
    if (At == std::string::npos)
      throw std::runtime_error("no VmHWM in /proc status");
    return std::stoull(Status.substr(At + 6));
  }

private:
  pid_t Pid = -1;
  int ToChild = -1;
  int FromChild = -1;
  std::string Pending;
};

} // namespace

int cmdDrive(const Flags &F) {
  // A server that dies mid-run must surface as an error, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
  pinToOneCpu(); // The server inherits it.
  std::vector<std::string> Argv = {F.get("serve")};
  if (F.has("persist-dir"))
    Argv.push_back("--persist-dir=" + F.get("persist-dir"));
  std::vector<std::string> Warmup = readLines(F.get("warmup"));
  std::vector<std::string> Timed = readLines(F.get("requests"));
  const uint64_t Launches = F.num("launches", 15);
  const std::string LogPath = F.get("server-log");

  // The yardstick speaks the same line protocol: "slice" in, ns out.
  Server Yardstick({F.get("yardstick")}, LogPath);
  auto SliceNs = [&] {
    Yardstick.send("slice");
    return Json::integer(int64_t(std::stoull(Yardstick.recv())));
  };
  Json Setup = Json::array(), SetupSlices = Json::array();
  for (uint64_t I = 0; I < Launches; ++I) {
    SetupSlices.push(SliceNs());
    auto T0 = Clock::now();
    Server S(Argv, LogPath);
    S.send("{\"cmd\":\"health\"}");
    S.recv();
    Setup.push(Json::integer(int64_t(nsSince(T0))));
    if (S.stop() != 0)
      throw std::runtime_error("server exited non-zero after a launch");
  }

  const uint64_t Segments = F.num("segments", 1);
  Json Lifetimes = Json::array(), Slices = Json::array();
  auto Slice = [&](size_t Before) {
    Slices.push(
        Json::array().push(Json::integer(int64_t(Before))).push(SliceNs()));
  };
  std::string Latencies, Answers;
  bool Clean = true;
  for (uint64_t K = 0; K < Segments; ++K) {
    Server S(Argv, LogPath);
    for (size_t I = K * Warmup.size() / Segments;
         I < (K + 1) * Warmup.size() / Segments; ++I) {
      S.send(Warmup[I]);
      S.recv();
    }
    size_t First = K * Timed.size() / Segments;
    size_t Last = (K + 1) * Timed.size() / Segments;
    for (int I = 0; I < 3; ++I)
      Slice(First);
    uint64_t WallNs = 0, SinceSlice = 0;
    for (size_t I = First; I < Last; ++I) {
      auto T0 = Clock::now();
      S.send(Timed[I]);
      std::string Resp = S.recv();
      uint64_t Ns = nsSince(T0);
      Latencies += std::to_string(Ns) + "\n";
      Answers += Resp + "\n";
      WallNs += nsSince(T0);
      SinceSlice += Ns;
      if (SinceSlice >= SliceEveryNs) {
        Slice(I + 1);
        SinceSlice = 0;
      }
    }
    S.send("{\"cmd\":\"stats\"}");
    std::string Stats = S.recv();
    uint64_t RssKb = S.peakRssKb();
    int Exit = S.stop();
    Clean &= Exit == 0;
    Lifetimes.push(Json::object()
                       .set("requests", Json::integer(int64_t(Last - First)))
                       .set("wall_ns", Json::integer(int64_t(WallNs)))
                       .set("stats", parseJson(Stats))
                       .set("peak_rss_kb", Json::integer(int64_t(RssKb)))
                       .set("exit", Json::integer(Exit)));
  }

  Clean &= Yardstick.stop() == 0;
  writeFile(F.get("latencies"), Latencies);
  writeFile(F.get("answers"), Answers);
  Json Out = Json::object();
  Out.set("setup_ns", std::move(Setup))
      .set("setup_slices_ns", std::move(SetupSlices))
      .set("slices", std::move(Slices))
      .set("lifetimes", std::move(Lifetimes));
  writeFile(F.get("summary"), Out.dump() + "\n");
  return Clean ? 0 : 1;
}

} // namespace pb
