// Process-level robustness of the real rsse_serverd and rsse_client
// binaries (paths supplied via RSSE_SERVERD_BIN / RSSE_CLIENT_BIN by the
// build): SIGKILL mid-workload followed by a restart from the same
// --data-dir must recover every acked write; a second daemon on an
// occupied port must report the bind failure on stderr and exit 1;
// SIGTERM must drain and exit 0; an unknown flag or a numeric flag that
// does not parse in full must exit 2 before binding (and the client's
// before it builds anything); and rsse_client's whole owner round trip
// against a live daemon must match its local search.

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"

namespace rsse::server {
namespace {

const char* ServerdBin() { return std::getenv("RSSE_SERVERD_BIN"); }
const char* ClientBin() { return std::getenv("RSSE_CLIENT_BIN"); }

class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "rsse_serverd_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    EXPECT_NE(mkdtemp(buf.data()), nullptr);
    path_ = buf.data();
  }

  ~TempDir() {
    DIR* d = opendir(path_.c_str());
    if (d != nullptr) {
      while (dirent* entry = readdir(d)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          unlink((path_ + "/" + name).c_str());
        }
      }
      closedir(d);
    }
    rmdir(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A forked rsse_serverd (or `bin`) with its stdout on a pipe. The bound
/// port is parsed from the "listening on" line, so --port=0 works.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> extra_args,
                  const char* bin = ServerdBin()) {
    int out[2];
    EXPECT_EQ(pipe(out), 0);
    pid_ = fork();
    EXPECT_GE(pid_, 0);
    if (pid_ < 0) return;
    if (pid_ == 0) {
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      std::vector<std::string> args = {bin};
      for (std::string& a : extra_args) args.push_back(std::move(a));
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out[1]);
    stdout_fd_ = out[0];
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) close(stdout_fd_);
  }

  /// Reads stdout until the listening banner appears; returns the port.
  uint16_t WaitForPort() {
    std::string seen;
    char c;
    while (seen.find("listening on") == std::string::npos ||
           seen.find('\n', seen.find("listening on")) == std::string::npos) {
      const ssize_t n = read(stdout_fd_, &c, 1);
      if (n <= 0) {
        ADD_FAILURE() << "daemon exited before listening; stdout: " << seen;
        return 0;
      }
      seen.push_back(c);
    }
    banner_ = seen;
    const size_t colon = seen.rfind(':');
    return static_cast<uint16_t>(std::strtoul(seen.c_str() + colon + 1,
                                              nullptr, 10));
  }

  const std::string& banner() const { return banner_; }

  /// Reads stdout until the child closes it (normally: it exits). A child
  /// still running after `timeout_ms` is killed and the test fails.
  std::string ReadStdoutToEnd(int timeout_ms) {
    std::string out;
    char buf[4096];
    pollfd pfd{stdout_fd_, POLLIN, 0};
    using std::chrono::milliseconds;
    using std::chrono::steady_clock;
    const auto deadline = steady_clock::now() + milliseconds(timeout_ms);
    for (;;) {
      const auto left = std::chrono::duration_cast<milliseconds>(
                            deadline - steady_clock::now())
                            .count();
      if (left <= 0 || poll(&pfd, 1, static_cast<int>(left)) <= 0) {
        ADD_FAILURE() << "child still running after " << timeout_ms
                      << " ms; stdout: " << out;
        kill(pid_, SIGKILL);
        return out;
      }
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return out;
      out.append(buf, static_cast<size_t>(n));
    }
  }

  void Kill9() {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  /// Sends `sig` and returns the exit code (or -1 on abnormal death).
  int SignalAndWait(int sig) {
    kill(pid_, sig);
    return WaitExit();
  }

  /// Reaps the child and returns its exit code (or -1 on abnormal death).
  int WaitExit() {
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string banner_;
};

TEST(ServerdProcessTest, Sigkill_MidWorkload_RestartRecoversAckedWrites) {
  if (ServerdBin() == nullptr) {
    GTEST_SKIP() << "RSSE_SERVERD_BIN not set (run under ctest)";
  }
  TempDir dir;
  uint64_t acked_entries = 0;
  uint16_t port = 0;
  {
    Daemon daemon({"--port=0", "--data-dir=" + dir.path(), "--shards=2"});
    port = daemon.WaitForPort();
    ASSERT_NE(port, 0);
    EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    for (int b = 0; b < 4; ++b) {
      std::vector<std::pair<Label, Bytes>> entries;
      Label label;
      label.fill(static_cast<uint8_t>(0x10 + b));
      entries.emplace_back(label, Bytes(32, static_cast<uint8_t>(b)));
      auto resp = client.Update(entries);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      acked_entries = resp->entries;
    }
    // SIGKILL: no drain, no atexit, nothing beyond the per-request fsyncs.
    daemon.Kill9();
  }
  ASSERT_EQ(acked_entries, 4u);

  // --mmap=on is still accepted (durable stores are always mapped).
  Daemon restarted({"--port=0", "--data-dir=" + dir.path(), "--shards=2",
                    "--mmap=on"});
  const uint16_t new_port = restarted.WaitForPort();
  ASSERT_NE(new_port, 0);
  EXPECT_NE(restarted.banner().find("recovered 1 store(s)"),
            std::string::npos)
      << restarted.banner();
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", new_port).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->entries, acked_entries)
      << "every acked update must survive SIGKILL";
}

TEST(ServerdProcessTest, SecondDaemonOnSamePortFailsCleanly) {
  if (ServerdBin() == nullptr) {
    GTEST_SKIP() << "RSSE_SERVERD_BIN not set (run under ctest)";
  }
  Daemon first({"--port=0"});
  const uint16_t port = first.WaitForPort();
  ASSERT_NE(port, 0);

  // The second daemon must not print a listening banner, must exit 1, and
  // must not disturb the first (which keeps serving).
  Daemon second({"--port=" + std::to_string(port)});
  EXPECT_EQ(second.WaitExit(), 1);

  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  EXPECT_TRUE(client.Stats().ok());
}

TEST(ServerdProcessTest, SigtermDrainsAndExitsZero) {
  if (ServerdBin() == nullptr) {
    GTEST_SKIP() << "RSSE_SERVERD_BIN not set (run under ctest)";
  }
  TempDir dir;
  Daemon daemon({"--port=0", "--data-dir=" + dir.path(),
                 "--drain-timeout-ms=5000"});
  const uint16_t port = daemon.WaitForPort();
  ASSERT_NE(port, 0);
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  std::vector<std::pair<Label, Bytes>> entries;
  Label label;
  label.fill(0x61);
  entries.emplace_back(label, Bytes(16, 0x02));
  ASSERT_TRUE(client.Update(entries).ok());

  EXPECT_EQ(daemon.SignalAndWait(SIGTERM), 0)
      << "a drained shutdown must exit 0";

  // The drained state is durable: a restart serves the entry.
  Daemon restarted({"--port=0", "--data-dir=" + dir.path()});
  const uint16_t new_port = restarted.WaitForPort();
  ASSERT_NE(new_port, 0);
  EmmClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", new_port).ok());
  auto stats = again.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entries, 1u);
}

TEST(ServerdProcessTest, BadFlagsExitTwoBeforeServing) {
  if (ServerdBin() == nullptr || ClientBin() == nullptr) {
    GTEST_SKIP() << "RSSE_SERVERD_BIN/RSSE_CLIENT_BIN not set (run under "
                    "ctest)";
  }
  // Unchecked parsing turns "abc" into 0 (backpressure off) and 70001
  // into port 4465 (wrapped to 16 bits); both are usage errors. So is
  // --mmap=off: there is no heap-loading mode to fall back to. An unknown
  // flag must not be ignored either: --data_dir (for --data-dir) would
  // serve from memory alone and lose every acked write with the process;
  // --prefault and --threads are gone, and a bare word is no flag. The
  // client takes only brc or urc as its technique; past its flags it
  // would build and then fail to connect to port 0, exiting 1.
  TempDir dir;
  const struct {
    const char* bin;
    std::string flag;
  } cases[] = {
      {ServerdBin(), "--max-outbound-bytes=abc"},
      {ServerdBin(), "--port=70001"},
      {ServerdBin(), "--mmap=off"},
      {ServerdBin(), "--data_dir=" + dir.path()},
      {ServerdBin(), "--prefault=1"},
      {ServerdBin(), "--threads=4"},
      {ServerdBin(), "extra"},
      {ClientBin(), "--technique=xyz"},
      {ClientBin(), "--prot=1"},
  };
  for (const auto& c : cases) {
    Daemon daemon({"--port=0", c.flag}, c.bin);
    const std::string out = daemon.ReadStdoutToEnd(/*timeout_ms=*/5000);
    EXPECT_EQ(daemon.WaitExit(), 2) << c.bin << " " << c.flag;
    EXPECT_EQ(out.find("listening on"), std::string::npos)
        << c.flag << ": " << out;
  }
  DIR* d = opendir(dir.path().c_str());
  ASSERT_NE(d, nullptr);
  size_t entries = 0;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") ++entries;
  }
  closedir(d);
  EXPECT_EQ(entries, 0u) << "the misspelt data dir must stay empty";
}

TEST(ServerdProcessTest, ClientShipsSetupAndVerifiesAgainstLocalSearch) {
  if (ServerdBin() == nullptr || ClientBin() == nullptr) {
    GTEST_SKIP() << "RSSE_SERVERD_BIN/RSSE_CLIENT_BIN not set (run under "
                    "ctest)";
  }
  Daemon daemon({"--port=0"});
  const uint16_t port = daemon.WaitForPort();
  ASSERT_NE(port, 0);
  Daemon client({"--port=" + std::to_string(port), "--n=2000",
                 "--domain=4096", "--verify=1"},
                ClientBin());
  const std::string out = client.ReadStdoutToEnd(/*timeout_ms=*/120000);
  EXPECT_EQ(client.WaitExit(), 0) << out;
  EXPECT_NE(out.find("verify: all queries match local search"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace rsse::server
