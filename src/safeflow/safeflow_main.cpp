// The `safeflow` command-line tool: run the analysis over a core
// component's C files.
//
//   safeflow [options] file.c [file2.c ...]
//
// `safeflow --help` lists every user option (usage() below is the one
// list). Two internal flags are left out of it: `--worker` prints the
// run as a JSON envelope for the supervisor (run_output.h), and
// `--telemetry-spans` makes that worker embed its trace spans.
//
// A file that fails to parse does not abort the run: the remaining files
// are analyzed and the report covers what survived (exit 2 still signals
// the parse failure unless data errors take precedence).
//
// Every path — in-process, --isolate, --connect, a warm cache — prints
// the report of the same whole-program analysis (run_output.h).
//
// Exit-code ladder (see exitCodeFor in driver.h): 1 error dependencies
// found > 2 usage/front-end errors (including a crashed worker) > 3
// clean-but-degraded
// (an analysis budget tripped; findings are valid but absences are
// unproven) > 0 clean.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "safeflow/cache_manager.h"
#include "safeflow/daemon.h"
#include "safeflow/driver.h"
#include "safeflow/run_output.h"
#include "safeflow/supervisor.h"
#include "support/cache.h"
#include "support/fault_inject.h"
#include "support/flight_recorder.h"
#include "support/io_faults.h"
#include "support/json.h"
#include "support/limits.h"
#include "support/log.h"
#include "support/metrics.h"
#include "support/subprocess.h"
#include "support/unix_socket.h"

namespace {

void usage() {
  std::cerr
      << "usage: safeflow [options] file.c [file2.c ...]\n"
         "  -I <dir>            add an include directory\n"
         "  -D NAME[=VALUE]     predefine a macro\n"
         "  --mode=summaries|call-strings   interprocedural engine\n"
         "  --no-control-deps   disable control-dependence tracking\n"
         "  --no-ranges         disable the value-range analysis (pre-0.5.0\n"
         "                      behavior: no discharges, no edge pruning,\n"
         "                      no shm-bounds-const checks)\n"
         "  --kill-critical     kill's pid argument is critical data\n"
         "  --dot <file>        write the value-flow graph to <file>\n"
         "  --json              print the report as JSON\n"
         "  --trace <file>      write a Chrome trace (chrome://tracing,\n"
         "                      Perfetto) of the analysis pipeline\n"
         "  --stats             print the statistics table to stderr\n"
         "  --stats-json <file> write statistics as JSON ('-' = stdout)\n"
         "  --time-budget <dur> wall-clock budget (e.g. 250ms, 2s)\n"
         "  --step-budget <n>   per-phase work-unit cap\n"
         "  --isolate           analyze in one crash-isolated worker\n"
         "                      process (same report)\n"
         "  --worker-timeout <dur>  per-worker watchdog (default 60s)\n"
         "  --retries <n>       crash/timeout retries (default 2)\n"
         "  --worker-stderr-cap <n>  cap captured worker stderr at n\n"
         "                      bytes (default 65536; 0 = unlimited)\n"
         "  --log-level <lvl>   stderr log threshold: error, warn, note\n"
         "                      (default), info, debug\n"
         "  --log-json          emit stderr logs as NDJSON (one JSON\n"
         "                      object per line: ts, pid, level, shard,\n"
         "                      component, msg, key/values)\n"
         "  --metrics-out <file> write counters/gauges/percentiles as\n"
         "                      Prometheus text exposition to <file>\n"
         "  --cache             enable the incremental result cache at\n"
         "                      .safeflow-cache/\n"
         "  --cache-dir <dir>   enable the cache at <dir> (directories\n"
         "                      are created as needed)\n"
         "  --no-cache          force the cache off\n"
         "  --cache-max-mb <n>  size cap before LRU eviction (default 256,\n"
         "                      0 = unlimited)\n"
         "  --connect <sock>    send the analysis to a running safeflowd;\n"
         "                      falls back to a local run when the daemon\n"
         "                      is unreachable\n"
         "  --deadline <dur>    how long the daemon may take before the\n"
         "                      request expires (default 300s)\n"
         "  --daemon-status     print the daemon's status document and\n"
         "                      exit (needs --connect)\n"
         "  --daemon-shutdown   ask the daemon to drain and exit (needs\n"
         "                      --connect)\n"
         "  --version           print the analyzer version and exit\n"
         "  --quiet             print only the summary line\n"
         "  -h, --help          print this list and exit\n";
}

/// Export writer for --stats-json/--metrics-out/--trace documents: a
/// hardened write (EINTR/partial-write safe, fsync'd) that on any
/// failure — a real ENOSPC/EIO or an injected one — removes the partial
/// file and prints one diagnostic. The caller exits 2: a failed export
/// is a classified error, never a truncated-but-silent artifact.
bool writeFile(const std::string& path, const std::string& contents,
               const char* site) {
  const safeflow::support::io::IoStatus status =
      safeflow::support::io::writeFile(path, contents, site);
  if (!status.ok) {
    std::cerr << "safeflow: " << status.message << "\n";
    return false;
  }
  return true;
}

/// Prints a run the way every CLI path does: the --stats-json and
/// --metrics-out documents, the --stats table and the run's stderr, then
/// its report on stdout (on stderr when the stats document takes stdout
/// and the report is text). Returns the exit code.
int emit(const safeflow::RunOutput& run, const std::string& stats_json_path,
         const std::string& metrics_out_path, bool stats_table, bool json) {
  if (!stats_json_path.empty()) {
    const std::string stats_json = run.stats.renderJson() + "\n";
    if (stats_json_path == "-") {
      std::cout << stats_json;
    } else if (!writeFile(stats_json_path, stats_json, "stats.out")) {
      return 2;
    }
  }
  if (!metrics_out_path.empty() &&
      !writeFile(metrics_out_path, run.stats.renderPrometheus(),
                 "metrics.out")) {
    return 2;
  }
  if (stats_table) std::cerr << run.stats.renderTable();
  std::cerr << run.stderr_text;
  (stats_json_path == "-" && !json ? std::cerr : std::cout)
      << run.stdout_text;
  return run.exit_code;
}

/// The path workers are spawned from: /proc/self/exe when available (the
/// binary may have been moved since exec), argv[0] otherwise.
std::string selfExePath(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// One safeflowd round trip: connect, send one NDJSON request line, read
/// one NDJSON response line. False (with `*error`) on any transport
/// failure — the caller falls back to a local run.
bool daemonRoundTrip(const std::string& socket_path,
                     const std::string& request,
                     double read_timeout_seconds, std::string* response,
                     std::string* error) {
  namespace support = safeflow::support;
  const int fd = support::connectUnixSocket(socket_path, error);
  if (fd < 0) return false;
  if (!support::writeAll(fd, request)) {
    ::close(fd);
    *error = "send failed (daemon gone?)";
    return false;
  }
  const support::LineIo rc = support::readLine(
      fd, response, /*max_bytes=*/64u << 20, read_timeout_seconds);
  ::close(fd);
  switch (rc) {
    case support::LineIo::kOk:
      return true;
    case support::LineIo::kTimeout:
      *error = "daemon response timed out";
      return false;
    case support::LineIo::kOversized:
      *error = "daemon response oversized";
      return false;
    default:
      *error = "daemon closed the connection before responding";
      return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safeflow;

  // Real crashes (not fault-injected ones) dump the flight recorder to
  // stderr before re-raising; in a worker the supervisor attaches the
  // events to the run's failure record.
  support::installCrashDumpHandlers();
  // SAFEFLOW_INJECT_IO: deterministic syscall-layer faults (ENOSPC, EIO,
  // torn renames) for the chaos tests. Inert unless the env is set.
  support::io::armIoFaultInjectionFromEnv();

  SafeFlowOptions options;
  RenderOptions render;
  std::vector<std::string> files;
  std::string trace_path;
  std::string stats_json_path;
  std::string metrics_out_path;
  bool stats_table = false;
  bool worker_mode = false;
  bool telemetry_spans = false;
  bool isolate = false;
  support::LogLevel log_level = support::LogLevel::kNote;
  bool log_json = false;
  // Observability flags re-forwarded to the worker. Kept separate from
  // `passthrough`: that vector doubles as the cache key's analysis-flag
  // identity, and log settings must never change cache keys.
  std::vector<std::string> obs_args;
  std::string connect_path;
  double client_deadline_seconds = 0.0;
  bool daemon_status = false;
  bool daemon_shutdown = false;
  bool cache_enabled = false;
  bool cache_disabled = false;
  std::string cache_dir = ".safeflow-cache";
  std::uint64_t cache_max_mb = 256;
  SupervisorOptions sup_options;
  // Analysis options forwarded verbatim to the worker and the daemon.
  std::vector<std::string> passthrough;
  auto forward = [&passthrough](std::initializer_list<const char*> args) {
    for (const char* a : args) passthrough.emplace_back(a);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-I" && i + 1 < argc) {
      options.include_dirs.emplace_back(argv[++i]);
      forward({"-I", argv[i]});
    } else if (arg == "-D" && i + 1 < argc) {
      const std::string def = argv[++i];
      forward({"-D", argv[i]});
      const std::size_t eq = def.find('=');
      if (eq == std::string::npos) {
        options.defines.emplace_back(def, "1");
      } else {
        options.defines.emplace_back(def.substr(0, eq),
                                     def.substr(eq + 1));
      }
    } else if (arg == "--mode=summaries") {
      options.taint.mode = analysis::TaintOptions::Mode::kSummaries;
      forward({"--mode=summaries"});
    } else if (arg == "--mode=call-strings") {
      options.taint.mode = analysis::TaintOptions::Mode::kCallStrings;
      forward({"--mode=call-strings"});
    } else if (arg == "--no-control-deps") {
      options.taint.track_control_deps = false;
      forward({"--no-control-deps"});
    } else if (arg == "--no-ranges") {
      options.ranges.enabled = false;
      forward({"--no-ranges"});
    } else if (arg == "--kill-critical") {
      options.taint.implicit_critical_calls.emplace_back("kill", 0u);
      forward({"--kill-critical"});
    } else if (arg == "--dot" && i + 1 < argc) {
      render.dot_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
      options.collect_trace = true;
    } else if (arg == "--stats") {
      stats_table = true;
    } else if (arg == "--stats-json" && i + 1 < argc) {
      stats_json_path = argv[++i];
    } else if (arg == "--json") {
      render.json = true;
    } else if (arg == "--time-budget" && i + 1 < argc) {
      if (!support::parseDuration(argv[++i],
                                  &options.budget.time_seconds)) {
        std::cerr << "invalid --time-budget '" << argv[i] << "'\n";
        return 2;
      }
      forward({"--time-budget", argv[i]});
    } else if (arg == "--step-budget" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "invalid --step-budget '" << argv[i] << "'\n";
        return 2;
      }
      options.budget.phase_steps = n;
      forward({"--step-budget", argv[i]});
    } else if (arg == "--isolate") {
      isolate = true;
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_path = argv[++i];
    } else if (arg == "--deadline" && i + 1 < argc) {
      if (!support::parseDuration(argv[++i], &client_deadline_seconds)) {
        std::cerr << "invalid --deadline '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--daemon-status") {
      daemon_status = true;
    } else if (arg == "--daemon-shutdown") {
      daemon_shutdown = true;
    } else if (arg == "--worker-timeout" && i + 1 < argc) {
      if (!support::parseDuration(argv[++i],
                                  &sup_options.worker_timeout_seconds)) {
        std::cerr << "invalid --worker-timeout '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--retries" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "invalid --retries '" << argv[i] << "'\n";
        return 2;
      }
      sup_options.max_retries = static_cast<int>(n);
    } else if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--telemetry-spans") {
      telemetry_spans = true;
      options.collect_trace = true;
    } else if (arg == "--worker-stderr-cap" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "invalid --worker-stderr-cap '" << argv[i] << "'\n";
        return 2;
      }
      sup_options.worker_stderr_cap = static_cast<std::size_t>(n);
    } else if (arg == "--log-level" && i + 1 < argc) {
      if (!support::parseLogLevel(argv[++i], &log_level)) {
        std::cerr << "invalid --log-level '" << argv[i]
                  << "' (expected error|warn|note|info|debug)\n";
        return 2;
      }
      obs_args.emplace_back("--log-level");
      obs_args.emplace_back(argv[i]);
    } else if (arg == "--log-json") {
      log_json = true;
      obs_args.emplace_back("--log-json");
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out_path = argv[++i];
    } else if (arg == "--cache") {
      cache_enabled = true;
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_enabled = true;
      cache_dir = argv[++i];
    } else if (arg == "--no-cache") {
      cache_disabled = true;
    } else if (arg == "--cache-max-mb" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "invalid --cache-max-mb '" << argv[i] << "'\n";
        return 2;
      }
      cache_max_mb = n;
    } else if (arg == "--version") {
      std::cout << "safeflow " << kAnalyzerVersion << "\n";
      return 0;
    } else if (arg == "--quiet") {
      render.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  // Daemon control ops need a socket, not input files.
  if (daemon_status || daemon_shutdown) {
    if (connect_path.empty()) {
      std::cerr << "--daemon-status/--daemon-shutdown require "
                   "--connect <socket>\n";
      return 2;
    }
    const std::string request =
        daemon_status ? "{\"safeflowd\": 1, \"op\": \"status\"}\n"
                      : "{\"safeflowd\": 1, \"op\": \"shutdown\"}\n";
    std::string response, error;
    if (!daemonRoundTrip(connect_path, request, /*read_timeout_seconds=*/10.0,
                         &response, &error)) {
      std::cerr << "safeflow: " << error << "\n";
      return 2;
    }
    std::cout << response << "\n";
    support::json::Value parsed;
    std::string parse_error;
    const bool ok = support::json::parse(response, &parsed, &parse_error) &&
                    parsed.memberString("status") == "ok";
    return ok ? 0 : 2;
  }
  if (files.empty()) {
    usage();
    return 2;
  }

  // --connect: hand the analysis to a resident safeflowd. The response
  // carries the exact bytes a local run would print, so the client only
  // relays. Anything the daemon protocol cannot express (--dot, --trace,
  // stats/metrics documents, local cache control) runs locally instead —
  // with a note, never silently. Transport failures and busy/draining
  // shedding also fall back to the local path, which prints the same
  // report.
  if (!connect_path.empty() && !worker_mode) {
    support::Logger::instance().configure(log_level, log_json, "client");
    const bool expressible =
        render.dot_path.empty() && trace_path.empty() &&
        stats_json_path.empty() && metrics_out_path.empty() &&
        !stats_table && !cache_enabled && !cache_disabled;
    if (!expressible) {
      SAFEFLOW_LOG(support::LogLevel::kNote, "client",
                   "--connect cannot express --dot/--trace/--stats/cache "
                   "flags; analyzing locally");
    } else {
      const double deadline_seconds =
          client_deadline_seconds > 0.0 ? client_deadline_seconds
                                        : kDefaultDeadlineSeconds;
      std::ostringstream request;
      request << "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [";
      for (std::size_t i = 0; i < files.size(); ++i) {
        request << (i == 0 ? "" : ", ") << '"'
                << support::json::escape(files[i]) << '"';
      }
      request << "], \"flags\": [";
      for (std::size_t i = 0; i < passthrough.size(); ++i) {
        request << (i == 0 ? "" : ", ") << '"'
                << support::json::escape(passthrough[i]) << '"';
      }
      request << "], \"json\": " << (render.json ? "true" : "false")
              << ", \"quiet\": " << (render.quiet ? "true" : "false")
              << ", \"deadline_ms\": "
              << static_cast<std::uint64_t>(deadline_seconds * 1000.0)
              << "}\n";
      std::string fallback_reason;
      for (int attempt = 0; attempt < 3; ++attempt) {
        std::string response;
        if (!daemonRoundTrip(connect_path, request.str(),
                             deadline_seconds + 30.0, &response,
                             &fallback_reason)) {
          break;
        }
        support::json::Value parsed;
        std::string parse_error;
        if (!support::json::parse(response, &parsed, &parse_error) ||
            !parsed.isObject()) {
          fallback_reason = "unparseable daemon response";
          break;
        }
        const std::string status = parsed.memberString("status");
        if (status == "ok") {
          std::cerr << parsed.memberString("stderr");
          std::cout << parsed.memberString("stdout");
          return static_cast<int>(parsed.memberNumber("exit_code", 2.0));
        }
        if (status == "busy") {
          // Shed under load: back off exponentially from the daemon's
          // hint (capped at 5s) with deterministic per-process jitter,
          // so a fleet of synchronized clients spreads out instead of
          // re-stampeding a shedding daemon on the same tick.
          const double hint_ms =
              parsed.memberNumber("retry_after_ms", 250.0);
          const double capped_ms =
              std::min(hint_ms * std::ldexp(1.0, attempt), 5000.0);
          const std::uint64_t seed =
              support::fnv1a(std::to_string(::getpid()) + ":" +
                             std::to_string(attempt));
          const double jitter =
              0.5 + 0.5 * static_cast<double>(seed % 1000) / 1000.0;
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(capped_ms *
                                                        jitter));
          fallback_reason = "daemon busy";
          continue;
        }
        if (status == "draining") {
          fallback_reason = "daemon draining";
          break;
        }
        fallback_reason =
            "daemon error: " + parsed.memberString("message", "unknown");
        break;
      }
      SAFEFLOW_LOG(support::LogLevel::kNote, "client",
                   "falling back to local analysis",
                   {{"reason", fallback_reason}});
    }
  }

  const bool supervised = isolate && !worker_mode;
  support::Logger::instance().configure(
      log_level, log_json,
      worker_mode ? "worker" : (supervised ? "supervisor" : ""));

  if (worker_mode) {
    // The supervisor's child: the default path below, printed as one
    // JSON envelope. Fault injection arms only here.
    support::armWorkerFaultInjection();
    SafeFlowDriver driver(options);
    const RunOutput run = analyzeAndRender(driver, files, render);
    std::string telemetry;
    if (telemetry_spans && driver.trace() != nullptr) {
      // This worker's pid plus its spans and the monotonic epoch they
      // are relative to, for the parent's stitched trace.
      telemetry = "{\"pid\": " + std::to_string(::getpid()) +
                  ", \"epoch_steady_ns\": " +
                  std::to_string(driver.trace()->epochSteadyNs()) +
                  ", \"spans\": " + driver.trace()->spansToJsonArray() + "}";
    }
    std::cout << renderEnvelope(run, telemetry);
    return run.exit_code;
  }

  CacheOptions cache_options;
  cache_options.enabled = cache_enabled && !cache_disabled;
  cache_options.dir = cache_dir;
  cache_options.max_bytes = cache_max_mb << 20;
  cache_options.analysis_flags = passthrough;
  for (const std::string& a : render.args()) {
    cache_options.analysis_flags.push_back(a);
  }
  support::MetricsRegistry registry;
  CacheManager cache(cache_options, &registry);
  // --dot/--trace need a live pipeline: a replayed entry has no graph
  // and no spans. The manager can also disarm itself (fault injection).
  if (!render.dot_path.empty()) {
    cache.disable("dot");
  } else if (!trace_path.empty()) {
    cache.disable("trace");
  }
  cache.recover();

  RunOutput run;
  if (supervised) {
    sup_options.worker_exe = selfExePath(argv[0]);
    sup_options.worker_args = passthrough;
    sup_options.worker_args.insert(sup_options.worker_args.end(),
                                   obs_args.begin(), obs_args.end());
    sup_options.render = render;
    sup_options.base_time_budget_seconds = options.budget.time_seconds;
    if (cache.enabled()) sup_options.cache = &cache;
    // --trace: the supervisor records its own spans and asks the worker
    // to send its spans back, then stitches one timeline (DESIGN.md §13).
    support::TraceCollector trace;
    if (!trace_path.empty()) {
      sup_options.trace = &trace;
      sup_options.worker_args.emplace_back("--telemetry-spans");
    }
    // SIGTERM/SIGINT forward to the in-flight worker (SIGKILL after
    // grace) so an interrupted run never leaves an orphaned child.
    support::installTerminationForwarding();
    SupervisedRun result = Supervisor(sup_options, &registry).run(files);
    if (!trace_path.empty() &&
        !writeFile(trace_path, renderStitchedTrace(trace, result),
                   "trace.out")) {
      return 2;
    }
    run = std::move(result.output);
  } else {
    CacheKey key;
    std::optional<RunOutput> hit;
    if (cache.enabled()) {
      key = cache.keyFor(files);
      hit = cache.lookup(key);
    }
    if (hit) {
      run = std::move(*hit);
    } else {
      SafeFlowDriver driver(options);
      run = analyzeAndRender(driver, files, render);
      // A parse failure still leaves a partial trace showing where the
      // time went.
      if (!trace_path.empty() && driver.trace() != nullptr &&
          !writeFile(trace_path, driver.trace()->toChromeTraceJson(),
                     "trace.out")) {
        return 2;
      }
      if (cache.enabled()) cache.store(key.hex, run);
    }
    if (cache_options.enabled) {
      foldRegistrySnapshot(registry, &run.stats);
      run.stats.resource = support::sampleResourceUsage();
    }
  }
  // Why a requested cache did not run (fault injection, --dot, --trace).
  run.stats.cache_disabled_reason = cache.disabledReason();
  const int code =
      emit(run, stats_json_path, metrics_out_path, stats_table, render.json);
  // Report an interruption the conventional shell way (128 + signal)
  // after the output is out; a drained run must not look like a clean
  // one.
  if (supervised && support::terminationRequested()) {
    return 128 + support::terminationSignal();
  }
  return code;
}
