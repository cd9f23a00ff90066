#ifndef RSSE_SERVEBENCH_SERVERD_PROCESS_H_
#define RSSE_SERVEBENCH_SERVERD_PROCESS_H_

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace rsse::servebench {

/// A child `rsse_serverd` on an ephemeral loopback port. The child gets the
/// parent's environment minus every RSSE_* variable, plus the GGM PRG
/// backend pinned to the one the benchmark process uses, so no stray
/// setting on the host can change what either side computes. It is tied
/// to the benchmark's lifetime (PR_SET_PDEATHSIG) and the destructor kills
/// and reaps it, so no daemon outlives a run.
class ServerdProcess {
 public:
  struct Options {
    /// Path of the rsse_serverd binary.
    std::string binary;
    int search_workers = 1;
    /// Durable store directory, served off mapped snapshots
    /// (`--mmap=on`); empty serves from memory only.
    std::string data_dir;
  };

  /// Starts the daemon and blocks until it reports its listening port.
  static Result<std::unique_ptr<ServerdProcess>> Spawn(const Options& options);

  ~ServerdProcess();
  ServerdProcess(const ServerdProcess&) = delete;
  ServerdProcess& operator=(const ServerdProcess&) = delete;

  uint16_t port() const { return port_; }

  /// Peak resident set size (VmHWM) in bytes; 0 when unreadable.
  uint64_t PeakRssBytes() const;

  /// Restricts every thread the daemon has now to the CPUs in `cpus`.
  Status SetAffinity(const cpu_set_t& cpus) const;

  /// SIGKILL and reap: a crash, with no drain and no snapshot fold.
  void Kill();

 private:
  ServerdProcess(pid_t pid, int stdout_fd, uint16_t port)
      : pid_(pid), stdout_fd_(stdout_fd), port_(port) {}

  pid_t pid_ = -1;
  /// Read end of the child's stdout, held open so the daemon's later
  /// prints never hit a closed pipe.
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace rsse::servebench

#endif  // RSSE_SERVEBENCH_SERVERD_PROCESS_H_
