#include "safeflow/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

#include "safeflow/cache_manager.h"
#include "support/log.h"
#include "support/subprocess.h"

namespace safeflow {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string tail(const std::string& text, std::size_t max_bytes = 2000) {
  if (text.size() <= max_bytes) return text;
  return "..." + text.substr(text.size() - max_bytes);
}

/// What a run no worker finished prints: exit 2, the worker's stderr
/// tail under a header, and one `[failed]` line — or, under --json, a
/// document whose one `worker_failures` entry carries the postmortem.
RunOutput renderFailure(const WorkerFailure& f, bool json) {
  RunOutput out;
  out.exit_code = 2;
  out.stderr_text = "--- worker stderr (" + f.reason + ", " +
                    std::to_string(f.attempts) + " attempt(s)) ---\n" +
                    f.stderr_tail;
  if (!f.stderr_tail.empty() && f.stderr_tail.back() != '\n') {
    out.stderr_text += '\n';
  }
  if (!json) {
    out.stdout_text = "  [failed] analysis worker " + f.reason + " after " +
                      std::to_string(f.attempts) +
                      " attempt(s); no report\n";
    return out;
  }
  std::ostringstream doc;
  doc << "{\n  \"schema_version\": 1,\n  \"worker_failures\": [\n"
      << "    {\"reason\": \"" << support::json::escape(f.reason)
      << "\", \"attempts\": " << f.attempts;
  if (!f.flight_events.empty()) {
    doc << ", \"flight_recorder\": [";
    for (std::size_t e = 0; e < f.flight_events.size(); ++e) {
      const support::FlightEvent& ev = f.flight_events[e];
      doc << (e == 0 ? "" : ", ") << "{\"seq\": " << ev.seq
          << ", \"kind\": \"" << support::json::escape(ev.kind)
          << "\", \"detail\": \"" << support::json::escape(ev.detail)
          << "\"}";
    }
    doc << "]";
  }
  doc << "}\n  ]\n}\n";
  out.stdout_text = doc.str();
  return out;
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions options,
                       support::MetricsRegistry* metrics)
    : options_(std::move(options)), metrics_(metrics) {}

SupervisedRun Supervisor::run(const std::vector<std::string>& files) {
  SupervisedRun result;
  const Clock::time_point start = Clock::now();
  std::size_t run_span = 0;
  if (options_.trace != nullptr) {
    run_span = options_.trace->beginSpan("supervisor.run");
  }

  CacheManager* cache =
      options_.cache != nullptr && options_.cache->enabled()
          ? options_.cache
          : nullptr;
  CacheKey key;
  std::optional<RunOutput> hit;
  if (cache != nullptr) {
    key = cache->keyFor(files);
    hit = cache->lookup(key);
  }

  SafeFlowStats::ShardStat worker;
  if (hit) {
    // Cache hit: no worker is spawned at all.
    result.output = std::move(*hit);
    result.from_cache = true;
    worker.from_cache = true;
  } else {
    runWorker(files, &result, &worker.wall_seconds);
    // Only first-attempt successes are stored: a retried attempt ran
    // with a tightened --time-budget, i.e. a different effective
    // configuration whose (possibly degraded) report must not be
    // replayed for the original one.
    if (cache != nullptr && !result.failure && result.attempts == 1) {
      cache->store(key.hex, result.output);
    }
  }
  worker.attempts = result.attempts;
  if (result.failure) {
    metrics_->counter("supervisor.runs_failed").add();
    result.output = renderFailure(*result.failure, options_.render.json);
  } else if (!result.from_cache) {
    worker.user_seconds = result.output.stats.resource.user_seconds;
    worker.sys_seconds = result.output.stats.resource.sys_seconds;
    worker.max_rss_kb = result.output.stats.resource.max_rss_kb;
  }
  metrics_->duration("supervisor.run_seconds").record(secondsSince(start));
  if (options_.trace != nullptr) options_.trace->endSpan(run_span);

  // The run's stats: the worker's pipeline figures, one row attributing
  // the worker, and the supervisor's own registry (including cache.*
  // counters when a cache is attached) and resource sample.
  SafeFlowStats& stats = result.output.stats;
  stats.shards = {worker};
  foldRegistrySnapshot(*metrics_, &stats);
  stats.resource = support::sampleResourceUsage();
  return result;
}

void Supervisor::runWorker(const std::vector<std::string>& files,
                           SupervisedRun* run, double* wall_seconds) {
  WorkerFailure failure;
  const int max_attempts = 1 + std::max(0, options_.max_retries);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (support::terminationRequested()) {
      // Never retry (or even start an attempt) once the supervisor has
      // been told to die: the forwarded SIGTERM already killed the
      // previous attempt's worker.
      if (failure.reason.empty()) failure.reason = "interrupted";
      break;
    }
    run->attempts = attempt;
    failure.attempts = attempt;
    if (attempt > 1) {
      // Exponential backoff before the retry (first retry waits the
      // base, each further retry doubles it).
      const double wait =
          options_.backoff_base_seconds * std::ldexp(1.0, attempt - 2);
      if (wait > 0.0) {
        metrics_->counter("supervisor.backoff_waits").add();
        std::size_t backoff_span = 0;
        if (options_.trace != nullptr) {
          backoff_span = options_.trace->beginSpan("supervisor.backoff");
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        if (options_.trace != nullptr) {
          options_.trace->endSpan(backoff_span);
        }
      }
      metrics_->counter("supervisor.workers_retried").add();
      SAFEFLOW_LOG(support::LogLevel::kInfo, "supervisor", "retrying worker",
                   {{"attempt", std::to_string(attempt)},
                    {"previous_failure", failure.reason}});
    }

    std::vector<std::string> argv;
    argv.reserve(options_.worker_args.size() + files.size() + 4);
    argv.push_back(options_.worker_exe);
    argv.push_back("--worker");
    argv.insert(argv.end(), options_.worker_args.begin(),
                options_.worker_args.end());
    for (std::string& flag : options_.render.args()) {
      argv.push_back(std::move(flag));
    }
    if (attempt > 1) {
      // Tighten the analysis budget on retries: if the worker died or
      // hung, the productive outcome is a conservative degraded report,
      // not a second identical death. Last --time-budget wins in the
      // worker's CLI parse, so appending overrides the original.
      double base = options_.base_time_budget_seconds;
      if (base <= 0.0 && options_.worker_timeout_seconds > 0.0) {
        base = options_.worker_timeout_seconds * 0.5;
      }
      if (base > 0.0) {
        const double tightened =
            base * std::pow(options_.retry_budget_factor, attempt - 1);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", tightened);
        argv.emplace_back("--time-budget");
        argv.emplace_back(buf);
      }
    }
    argv.insert(argv.end(), files.begin(), files.end());

    support::SubprocessOptions sub;
    sub.timeout_seconds = options_.worker_timeout_seconds;
    sub.max_stderr_capture_bytes = options_.worker_stderr_cap;
    sub.extra_env = options_.extra_env;
    sub.extra_env.emplace_back("SAFEFLOW_WORKER_ATTEMPT",
                               std::to_string(attempt));

    metrics_->counter("supervisor.workers_spawned").add();
    SAFEFLOW_LOG(support::LogLevel::kDebug, "supervisor", "spawning worker",
                 {{"attempt", std::to_string(attempt)}});
    std::size_t spawn_span = 0;
    if (options_.trace != nullptr) {
      spawn_span = options_.trace->beginSpan("supervisor.spawn");
      options_.trace->setArg(spawn_span, "attempt", std::to_string(attempt));
    }
    const Clock::time_point t0 = Clock::now();
    const support::SubprocessResult child = support::runSubprocess(argv, sub);
    *wall_seconds = secondsSince(t0);
    if (options_.trace != nullptr) options_.trace->endSpan(spawn_span);
    metrics_->duration("supervisor.worker_wall").record(*wall_seconds);
    std::string stderr_text = child.err_text;
    if (child.err_truncated) {
      metrics_->counter("supervisor.worker_stderr_truncated").add();
      stderr_text += "\n[safeflow: worker stderr truncated at " +
                     std::to_string(options_.worker_stderr_cap) +
                     " bytes]\n";
    }

    bool retryable = true;
    using Status = support::SubprocessResult::Status;
    switch (child.status) {
      case Status::kExited: {
        if (child.exit_code < 0 || child.exit_code > 3) {
          failure.reason = "exit " + std::to_string(child.exit_code);
          retryable = child.exit_code != 127;  // exec failure: deterministic
          break;
        }
        support::json::Value doc;
        std::string err;
        if (support::json::parse(child.out_text, &doc, &err) &&
            readEnvelope(doc, &run->output)) {
          if (const support::json::Value* t = doc.find("telemetry")) {
            run->worker_telemetry = *t;
          }
          return;
        }
        if (child.exit_code == 2) {
          // A frontend-style exit without an envelope is deterministic
          // (the injected "exit2" fault and hard usage errors look like
          // this): retrying cannot help.
          failure.reason = "exit 2 (no report)";
          retryable = false;
          break;
        }
        failure.reason = "unparseable report (exit " +
                         std::to_string(child.exit_code) + ": " + err + ")";
        break;  // torn stdout: worth a retry
      }
      case Status::kSignaled:
        metrics_->counter("supervisor.worker_crashes").add();
        failure.reason = support::signalName(child.signal_number);
        break;
      case Status::kTimedOut:
        metrics_->counter("supervisor.workers_killed").add();
        failure.reason = "timeout";
        break;
      case Status::kSpawnFailed:
        failure.reason = "spawn failed: " + child.spawn_error;
        retryable = false;  // environment problem, not input-dependent
        break;
    }
    failure.stderr_tail = tail(stderr_text);
    // A dying worker dumps its flight recorder to stderr; decode the
    // SAFEFLOW-FR lines so the failure names the phase and the events
    // leading up to the death (DESIGN.md §13). A capped capture may have
    // cut the dump mid-line, so the parser drops a final event it cannot
    // prove complete.
    failure.flight_events = support::parseFlightRecorderLines(
        stderr_text, /*assume_truncated=*/child.err_truncated);
    if (!retryable) break;
  }
  run->failure = std::move(failure);
}

void foldRegistrySnapshot(const support::MetricsRegistry& metrics,
                          SafeFlowStats* stats) {
  auto snap = metrics.snapshot();
  std::map<std::string, std::uint64_t> counters(stats->counters.begin(),
                                                stats->counters.end());
  for (const auto& [name, value] : snap.counters) counters[name] += value;
  stats->counters.assign(counters.begin(), counters.end());
  std::map<std::string, double> gauges(stats->gauges.begin(),
                                       stats->gauges.end());
  for (const auto& [name, value] : snap.gauges) gauges[name] = value;
  stats->gauges.assign(gauges.begin(), gauges.end());
  std::map<std::string, support::MetricsRegistry::DurationSnapshot>
      durations;
  for (auto& d : stats->durations) durations[d.name] = std::move(d);
  for (auto& d : snap.durations) durations[d.name] = std::move(d);
  stats->durations.clear();
  for (auto& [name, d] : durations) stats->durations.push_back(std::move(d));
}

std::string renderStitchedTrace(const support::TraceCollector& supervisor_trace,
                                const SupervisedRun& run) {
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    out << (first ? "  " : ",\n  ") << event;
    first = false;
  };
  const auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  const auto meta = [&](int pid, const std::string& label) {
    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
         std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": \"" +
         support::json::escape(label) + "\"}}");
  };
  using Args = std::vector<std::pair<std::string, std::string>>;
  const auto span = [&](int pid, const std::string& name, std::uint64_t tid,
                        double start_us, double dur_us, const Args& args) {
    std::string event = "{\"name\": \"" + support::json::escape(name) +
                        "\", \"ph\": \"X\", \"pid\": " + std::to_string(pid) +
                        ", \"tid\": " + std::to_string(tid) +
                        ", \"ts\": " + num(start_us) +
                        ", \"dur\": " + num(dur_us < 0.0 ? 0.0 : dur_us);
    if (!args.empty()) {
      event += ", \"args\": {";
      for (std::size_t i = 0; i < args.size(); ++i) {
        event += (i == 0 ? "\"" : ", \"") +
                 support::json::escape(args[i].first) + "\": \"" +
                 support::json::escape(args[i].second) + "\"";
      }
      event += "}";
    }
    emit(event + "}");
  };

  // Lane 1: the supervisor's own spans, already on the reference clock.
  meta(1, "safeflow supervisor");
  for (const support::TraceCollector::Span& s : supervisor_trace.spans()) {
    span(1, s.name, s.tid, s.start_us, s.dur_us, s.args);
  }

  // Lane 2: the live worker, labeled with its real pid. Both clocks are
  // CLOCK_MONOTONIC readings on this machine, so the worker's span
  // offsets shift by the epoch difference. A cache hit has no worker.
  const support::json::Value* spans = run.worker_telemetry.find("spans");
  if (spans != nullptr && spans->isArray()) {
    meta(2, "safeflow worker (pid " +
                std::to_string(run.worker_telemetry.memberUint("pid")) + ")");
    const double base_us =
        (run.worker_telemetry.memberNumber("epoch_steady_ns") -
         static_cast<double>(supervisor_trace.epochSteadyNs())) /
        1000.0;
    for (const support::json::Value& s : spans->array) {
      Args args;
      if (const support::json::Value* a = s.find("args");
          a != nullptr && a->isObject()) {
        for (const auto& [key, value] : a->members) {
          args.emplace_back(key, value.stringOr({}));
        }
      }
      span(2, s.memberString("name"), s.memberUint("tid"),
           base_us + s.memberNumber("start_us"), s.memberNumber("dur_us"),
           args);
    }
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace safeflow
