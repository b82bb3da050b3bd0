// Out-of-process analysis supervisor: runs one whole-program analysis in
// a `safeflow --worker` child process, so that a hard crash (SIGSEGV in
// the frontend, a runaway loop, an OOM kill) cannot take down the
// process that asked for it — the CLI under --isolate, or safeflowd.
//
// The worker runs the same code as the default in-process path over the
// whole file set and sends back that path's exact stdout, stderr and
// exit code in one JSON envelope (run_output.h); the supervisor relays
// them unchanged. Around that child it keeps four jobs:
//   - a wall-clock watchdog (SIGKILL on deadline);
//   - retries with exponential backoff and a tightened analysis time
//     budget (the retry hypothesis is "the input is pathological,
//     degrade instead of dying");
//   - crash classification: a normal exit in {0,1,2,3} with a readable
//     envelope is accepted; a signal death, watchdog kill or torn
//     envelope is retried up to `max_retries` times;
//   - the flight-recorder postmortem a dying worker dumps on stderr.
// A worker that exhausts its retries fails the whole run loudly: exit 2,
// one `[failed]` line (or one `worker_failures` entry under --json).
// With a result cache attached, a hit replays the stored envelope and
// spawns no worker at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "safeflow/run_output.h"
#include "support/flight_recorder.h"
#include "support/json.h"
#include "support/metrics.h"

namespace safeflow {

class CacheManager;

struct SupervisorOptions {
  /// Retries after the first attempt for crash/timeout/torn-envelope
  /// failures (attempts = 1 + max_retries).
  int max_retries = 2;
  /// First backoff sleep before a retry; doubles per further retry.
  double backoff_base_seconds = 0.05;
  /// Watchdog deadline per worker attempt; <= 0 disables the watchdog.
  double worker_timeout_seconds = 60.0;
  /// Factor applied to the analysis time budget on each retry (the
  /// retried attempt runs with `--time-budget` tightened so a
  /// pathological input degrades conservatively instead of dying again).
  double retry_budget_factor = 0.5;
  /// The run's original --time-budget in seconds (0 = none); used as the
  /// base the retry budget tightens from. When 0, retries tighten from
  /// half the watchdog deadline instead.
  double base_time_budget_seconds = 0.0;
  /// Path to the safeflow executable to use as the worker.
  std::string worker_exe;
  /// Options forwarded verbatim to the worker (e.g. "-I", "dir",
  /// "--time-budget", "250ms").
  std::vector<std::string> worker_args;
  /// What the run prints: forwarded to the worker as its rendering
  /// flags, and the form (text or JSON) a failed run is reported in.
  RenderOptions render;
  /// Extra environment for the worker (tests use this to arm
  /// SAFEFLOW_INJECT_FAULT without mutating the global environment).
  std::vector<std::pair<std::string, std::string>> extra_env;
  /// Optional incremental result cache (DESIGN.md §11), keyed over the
  /// whole file set. A hit replays the stored envelope without spawning
  /// a worker; a first-attempt result is stored back. May be null; must
  /// outlive run().
  CacheManager* cache = nullptr;
  /// Optional span collector for the supervisor's own spans (run,
  /// spawn, backoff). Its epoch is also the reference
  /// timeline the worker's spans are re-based onto in the stitched
  /// trace (DESIGN.md §13). May be null.
  support::TraceCollector* trace = nullptr;
  /// Cap on captured worker stderr per attempt (--worker-stderr-cap);
  /// excess is dropped with a truncation marker so a log-spamming worker
  /// cannot bloat the failure record. 0 disables the cap.
  std::size_t worker_stderr_cap = 64u << 10;
};

/// A worker that exhausted its retries (or failed unretryably).
struct WorkerFailure {
  /// "SIGSEGV", "timeout", "exit 2 (no report)", "unparseable report",
  /// "spawn failed: ...", "interrupted".
  std::string reason;
  int attempts = 0;
  /// Tail of the last attempt's captured stderr.
  std::string stderr_tail;
  /// Flight-recorder events the dying worker dumped to its stderr
  /// (SAFEFLOW-FR lines), newest-first suffix of its event ring. The
  /// last "phase" event names where in the pipeline it died.
  std::vector<support::FlightEvent> flight_events;
};

/// The outcome of one supervised run.
struct SupervisedRun {
  /// What to print: the worker's (or the cache's) output verbatim, or the
  /// failure rendering. Its stats carry the worker's pipeline statistics
  /// with the supervisor's counters folded in and one `shards` row for
  /// the worker.
  RunOutput output;
  /// Set when no worker produced an output.
  std::optional<WorkerFailure> failure;
  bool from_cache = false;
  /// Worker attempts made (0 on a cache hit).
  int attempts = 0;
  /// The live worker's "telemetry" member (pid, clock epoch and spans
  /// when it ran with --telemetry-spans); null otherwise.
  support::json::Value worker_telemetry;
};

/// Folds a registry snapshot into `stats`: counters add, gauges
/// overwrite, duration digests join the list (name-sorted).
void foldRegistrySnapshot(const support::MetricsRegistry& metrics,
                          SafeFlowStats* stats);

/// One Chrome-trace (Perfetto-loadable) document: the supervisor's own
/// spans on lane 1 and the live worker's spans on lane 2, re-based onto
/// the supervisor collector's monotonic epoch (DESIGN.md §13).
[[nodiscard]] std::string renderStitchedTrace(
    const support::TraceCollector& supervisor_trace, const SupervisedRun& run);

class Supervisor {
 public:
  /// `metrics` receives supervisor.* counters/durations and lands in the
  /// run's stats; must outlive run().
  Supervisor(SupervisorOptions options, support::MetricsRegistry* metrics);

  /// Analyzes `files` as one program in one worker. Blocking; never
  /// throws on worker misbehavior (a dead worker becomes a failure).
  [[nodiscard]] SupervisedRun run(const std::vector<std::string>& files);

 private:
  void runWorker(const std::vector<std::string>& files, SupervisedRun* run,
                 double* wall_seconds);

  SupervisorOptions options_;
  support::MetricsRegistry* metrics_;
};

}  // namespace safeflow
