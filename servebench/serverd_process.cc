#include "serverd_process.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "crypto/prg.h"

extern char** environ;

namespace rsse::servebench {

namespace {

constexpr char kListeningMarker[] = "listening on ";
constexpr int kBootTimeoutMs = 60000;

void Reap(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

Result<std::unique_ptr<ServerdProcess>> ServerdProcess::Spawn(
    const Options& options) {
  std::vector<std::string> args = {
      options.binary, "--port=0",
      "--search-workers=" + std::to_string(options.search_workers)};
  if (!options.data_dir.empty()) {
    args.push_back("--data-dir=" + options.data_dir);
    args.push_back("--mmap=on");
  }
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RSSE_", 5) != 0) env.emplace_back(*e);
  }
  env.emplace_back(crypto::GgmPrg::backend() == crypto::GgmPrg::Backend::kAes
                       ? "RSSE_GGM_PRG=aes"
                       : "RSSE_GGM_PRG=hmac");
  // Built before fork: between fork and exec the child may only call
  // async-signal-safe functions.
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<ServerdProcess> process(new ServerdProcess(pid, fds[0], 0));

  // The daemon prints "rsse_serverd: listening on <ip>:<port>" once bound.
  std::string out;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kBootTimeoutMs);
  for (;;) {
    const size_t marker = out.find(kListeningMarker);
    const size_t eol =
        marker == std::string::npos ? marker : out.find('\n', marker);
    if (eol != std::string::npos) {
      const std::string addr =
          out.substr(marker + std::strlen(kListeningMarker),
                     eol - marker - std::strlen(kListeningMarker));
      const size_t colon = addr.rfind(':');
      const long port =
          colon == std::string::npos ? 0 : std::atol(addr.c_str() + colon + 1);
      if (port <= 0 || port > 65535) {
        return Status::Internal("unparseable listen line: " + addr);
      }
      process->port_ = static_cast<uint16_t>(port);
      return process;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return Status::Internal("rsse_serverd did not report a port in time");
    }
    pollfd pfd{process->stdout_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno != EINTR) {
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    char buf[512];
    const ssize_t n = read(process->stdout_fd_, buf, sizeof(buf));
    if (n == 0) {
      return Status::Internal("rsse_serverd exited before listening (" +
                              options.binary + ")");
    }
    if (n > 0) out.append(buf, static_cast<size_t>(n));
  }
}

ServerdProcess::~ServerdProcess() { Kill(); }

void ServerdProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    Reap(pid_);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Status ServerdProcess::SetAffinity(const cpu_set_t& cpus) const {
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks, ec)) {
    const pid_t tid = std::atoi(entry.path().filename().c_str());
    if (tid > 0 && sched_setaffinity(tid, sizeof(cpus), &cpus) != 0) {
      return Status::Internal(std::string("sched_setaffinity: ") +
                              std::strerror(errno));
    }
  }
  if (ec) return Status::Internal("cannot list " + tasks + ": " + ec.message());
  return Status::Ok();
}

uint64_t ServerdProcess::PeakRssBytes() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

}  // namespace rsse::servebench
