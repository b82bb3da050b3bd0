// safeflowd — the resident analysis daemon (DESIGN.md §14): a
// Unix-domain-socket server that keeps the DiskCache warm and runs each
// analyze request in one supervised worker, so every IDE keystroke or CI
// job stops paying full process startup and cold caches.
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
//   - a pressure watchdog samples RSS, open fds, and cache-dir disk
//     free every pressure_interval_seconds and walks a degradation
//     ladder (level = worst resource's usage fraction): level 1
//     (>=75%) halves the waiting room, level 2 (>=90%) sheds new
//     analyzes with `busy`, level 3 (>=100%) additionally evicts the
//     disk cache to half its cap, and a level that stays saturated for
//     ~8 consecutive samples becomes level 4: drain. Every transition
//     is counted, flight-recorded, and exported as daemon.pressure.*;
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
#include <thread>
#include <vector>

#include "safeflow/cache_manager.h"
#include "safeflow/run_output.h"
#include "support/metrics.h"

namespace safeflow {

struct DaemonOptions {
  std::string socket_path = "safeflowd.sock";
  /// Concurrent analyze requests actually running (one worker each);
  /// further admitted requests queue.
  std::size_t jobs = 2;
  /// Queued (admitted but not yet running) analyze requests beyond
  /// which new ones are shed with `busy`.
  std::size_t max_queue = 8;
  /// Shed new analyze requests while the daemon's resident set exceeds
  /// this many MiB; 0 disables the RSS gate. Also the RSS axis of the
  /// pressure ladder (level = RSS / max_rss_mb).
  std::uint64_t max_rss_mb = 0;
  /// Pressure watchdog sampling period in seconds; <= 0 disables the
  /// watchdog entirely (the one-shot RSS gate above still applies).
  double pressure_interval_seconds = 1.0;
  /// Open-fd budget for the pressure ladder (usage fraction =
  /// open fds / max_open_fds); 0 disables the fd axis.
  std::uint64_t max_open_fds = 0;
  /// Free-space floor (MiB) on the cache directory's filesystem: at or
  /// below this the disk axis reads fully saturated, at 2x it reads
  /// half. 0 disables the disk axis.
  std::uint64_t min_disk_free_mb = 0;
  /// Watchdog deadline per worker attempt; a request deadline tightens
  /// it further.
  double worker_timeout_seconds = 60.0;
  int max_retries = 2;
  std::size_t worker_stderr_cap = 64u << 10;
  /// Applied when a request carries no deadline_ms.
  double default_deadline_seconds = 300.0;
  /// Hard cap on one request line; longer is rejected as oversized.
  std::size_t max_request_bytes = 4u << 20;
  /// Per-connection read deadline: a client that connects and dribbles
  /// (or sends nothing) is cut off after this long.
  double io_timeout_seconds = 10.0;
  /// retry_after_ms hint in `busy` responses.
  double retry_after_seconds = 0.25;
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
                          const std::vector<std::string>& include_dirs,
                          double time_budget_seconds,
                          const RenderOptions& render,
                          double deadline_seconds);
  std::string statusResponse();
  [[nodiscard]] std::string busyResponse();
  void flushMetrics();
  /// Watchdog thread body: sample resources, publish daemon.pressure.*
  /// gauges, walk the degradation ladder, act on transitions.
  void pressureWatchdog();
  /// One sample: returns the new ladder level (0..4).
  /// `sustained_critical` counts consecutive saturated samples and is
  /// owned by the watchdog thread.
  int samplePressure(int* sustained_critical);

  DaemonOptions options_;
  support::MetricsRegistry metrics_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  /// Current degradation-ladder level, written by the watchdog thread,
  /// read (relaxed) by admission control and the status document.
  std::atomic<int> pressure_level_{0};
  std::thread pressure_thread_;

  std::mutex mu_;
  std::condition_variable slots_cv_;      // in-flight slot released
  std::condition_variable connections_cv_;  // a connection thread exited
  std::size_t in_flight_ = 0;   // analyses running
  std::size_t queued_ = 0;      // analyses admitted, waiting for a slot
  std::size_t connections_ = 0; // live connection threads
  std::map<std::string, std::shared_ptr<Job>> jobs_;  // coalescing map
};

}  // namespace safeflow
