// safeflowd — the resident analysis daemon (DESIGN.md §14): a
// Unix-domain-socket server that keeps the DiskCache warm and runs each
// analyze request in one supervised worker. A cache hit is answered
// without spawning one; a miss costs about what a one-shot run does.
//
// Protocol: NDJSON, one request per connection. The client sends one
// JSON object terminated by '\n', the daemon replies with one JSON
// object terminated by '\n' and closes. Requests carry a version field
// (`"safeflowd": 1`) and an `op`:
//
//   {"safeflowd":1,"op":"analyze","files":[...],"flags":[...],
//    "json":false,"quiet":false,"deadline_ms":300000}
//   {"safeflowd":1,"op":"status"}
//   {"safeflowd":1,"op":"shutdown"}
//
// Responses (`status` discriminates):
//   ok        analyze finished: exit_code + the exact bytes the one-shot
//             CLI prints for the same files and flags (stdout/stderr
//             members), plus cache_hits, workers_spawned and
//             worker_failures. The worker runs the CLI's own in-process
//             path (run_output.h), so the bytes cannot differ.
//   busy      admission control shed the request (queue depth or RSS
//             cap); carries retry_after_ms and queue_depth.
//   draining  SIGTERM received; the daemon finishes in-flight work and
//             exits. Clients fall back to in-process analysis.
//   error     malformed request, unsupported flag, expired deadline.
//
// Robustness ladder (degrade, never mis-certify):
//   - per-request deadlines tighten the worker watchdog, so one slow
//     request cannot pin a connection past what its client will wait;
//   - admission control sheds load with a structured `busy` before the
//     queue or the process RSS can grow without bound;
//   - identical concurrent requests coalesce: one analysis runs, every
//     waiter receives the leader's byte-identical response;
//   - at most `jobs` analyses run at once, one worker each;
//   - worker crashes are already contained by the supervisor (SIGKILL
//     watchdog, retries, flight-recorder postmortems) and surface in
//     the response like the one-shot CLI surfaces them;
//   - malformed/oversized/disconnected requests cost one connection
//     thread an error path, never the daemon;
//   - an accept() that fails for want of descriptors or memory backs
//     off on the stop pipe instead of spinning on the still-readable
//     listener (counted in daemon.accept_failures);
//   - SIGTERM drains: stop accepting, finish in-flight, flush metrics,
//     exit 0. A SIGKILLed daemon restarts clean: the stale socket file
//     is probed-then-swept, stale cache temp files are aged out, and a
//     verify sweep purges torn cache entries a crash left behind.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "safeflow/cache_manager.h"
#include "safeflow/run_output.h"
#include "support/metrics.h"

namespace safeflow {

/// Deadline of an analyze request that carries no deadline_ms; the
/// `--connect` client sends it when `--deadline` is not given.
inline constexpr double kDefaultDeadlineSeconds = 300.0;

struct DaemonOptions {
  std::string socket_path = "safeflowd.sock";
  /// Concurrent analyze requests actually running (one worker each);
  /// further admitted requests queue.
  std::size_t jobs = 2;
  /// Queued (admitted but not yet running) analyze requests beyond
  /// which new ones are shed with `busy`.
  std::size_t max_queue = 8;
  /// Shed new analyze requests while the daemon's resident set exceeds
  /// this many MiB; 0 disables the RSS gate.
  std::uint64_t max_rss_mb = 0;
  /// Watchdog deadline per worker attempt; a request deadline tightens
  /// it further.
  double worker_timeout_seconds = 60.0;
  int max_retries = 2;
  std::size_t worker_stderr_cap = 64u << 10;
  /// Path of the safeflow binary spawned as --worker.
  std::string worker_exe;
  /// Shared across every client request (one content-addressed dir).
  CacheOptions cache;
  /// When non-empty, the daemon registry is flushed there as Prometheus
  /// text exposition during drain.
  std::string metrics_out_path;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  /// Binds the socket (sweeping a stale file from a crashed daemon
  /// first). False with `*error` set when the path is taken by a live
  /// daemon or the bind fails.
  bool start(std::string* error);

  /// Accept loop; blocks until requestStop() (or a served `shutdown`
  /// op), then drains in-flight requests, flushes metrics, and removes
  /// the socket. Returns 0 on a clean drain.
  int serve();

  /// Async-signal-safe stop: latches a flag and wakes the accept loop
  /// through a self-pipe. Callable from a signal handler.
  void requestStop();

  [[nodiscard]] const DaemonOptions& options() const { return options_; }
  [[nodiscard]] support::MetricsRegistry& metrics() { return metrics_; }

 private:
  /// One coalesced analysis: the leader fills `response` and flips
  /// `done`; every waiter blocks on `cv` and then sends the identical
  /// bytes.
  struct Job {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::string response;  // full NDJSON response line
  };

  void handleConnection(int fd);
  std::string handleRequest(const std::string& line);
  std::string handleAnalyze(const support::json::Value& request);
  /// Runs one validated request in a supervised worker and renders the
  /// `ok` response.
  std::string runAnalysis(const std::vector<std::string>& files,
                          const std::vector<std::string>& flags,
                          double time_budget_seconds,
                          const RenderOptions& render,
                          double deadline_seconds);
  std::string statusResponse();
  [[nodiscard]] std::string busyResponse();
  void flushMetrics();

  DaemonOptions options_;
  support::MetricsRegistry metrics_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable slots_cv_;      // in-flight slot released
  std::condition_variable connections_cv_;  // a connection thread exited
  std::size_t in_flight_ = 0;   // analyses running
  std::size_t queued_ = 0;      // analyses admitted, waiting for a slot
  std::size_t connections_ = 0; // live connection threads
  std::map<std::string, std::shared_ptr<Job>> jobs_;  // coalescing map
};

}  // namespace safeflow
