// Child processes and the safeflowd wire protocol, as the benchmark's
// single client uses them.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace verdictbench {

struct ChildRun {
  bool exited = false;  // exited normally (not signalled, not timed out)
  int exit_code = -1;
  bool timed_out = false;
  std::string out;  // everything the child wrote to stdout
  double seconds = 0.0;        // spawn to exit
  std::uint64_t max_rss_kb = 0;  // the child's ru_maxrss
};

/// Runs children through a small helper process forked before the client
/// grows. A child spawned straight from the client would report the
/// client's resident set as its own ru_maxrss (exec records the peak of
/// the address space it replaces, and posix_spawn's child borrows the
/// client's). The helper's own few MiB are the floor instead.
class Spawner {
 public:
  Spawner() = default;
  ~Spawner();
  Spawner(const Spawner&) = delete;
  Spawner& operator=(const Spawner&) = delete;

  /// Forks the helper. Call before starting threads or allocating much.
  bool start();
  /// Spawns `argv` (argv[0] an absolute path) with stdout captured and
  /// stderr discarded, waits for it, and kills it after `timeout_s`.
  [[nodiscard]] ChildRun run(const std::vector<std::string>& argv,
                             double timeout_s);

 private:
  pid_t pid_ = -1;
  int to_helper_ = -1;
  int from_helper_ = -1;
};

/// One NDJSON request to a safeflowd socket and its one-line response.
/// Returns false (with `*error`) when the exchange fails.
bool daemonExchange(const std::string& socket, const std::string& request,
                    double timeout_s, std::string* response,
                    std::string* error);

/// A safeflowd process owned by the client. The destructor kills it and
/// waits for it.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns `safeflowd --socket <socket> --cache-dir <cache_dir> --jobs 2`
  /// and waits until it answers `status`. `*ready_s` is the time from
  /// spawn to that answer. False (with `*error`) if it does not come up
  /// within `timeout_s`.
  bool start(const std::string& exe, const std::string& socket,
             const std::string& cache_dir, double timeout_s, double* ready_s,
             std::string* error);
  /// Asks the daemon to drain and waits for it to exit.
  void shutdown();
  /// SIGKILL, wait, and remove the socket file it leaves.
  void kill();

  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

}  // namespace verdictbench
