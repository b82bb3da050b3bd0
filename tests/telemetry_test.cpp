// Telemetry v2 tests (DESIGN.md §13): duration-percentile digests, the
// crash flight recorder (ring semantics, signal-safe dump format, the
// supervisor-side parser), structured-log level parsing, the
// per-stream stderr capture cap, Prometheus exposition, stats schema
// v2 (shards / resource / durations), and end-to-end cross-process
// trace stitching — one Chrome-trace timeline from a supervised run
// with a supervisor lane and a worker lane, re-based onto the
// supervisor's clock.
//
// The e2e tests spawn the real `safeflow` binary (SAFEFLOW_EXE) as the
// worker, arming faults via extra_env like supervisor_test.cpp does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "safeflow/cache_manager.h"
#include "safeflow/driver.h"
#include "safeflow/supervisor.h"
#include "support/flight_recorder.h"
#include "support/json.h"
#include "support/log.h"
#include "support/metrics.h"
#include "support/subprocess.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

std::vector<std::string> ipCoreFiles() {
  return {
      kCorpus + "/ip/core/comm.c",      kCorpus + "/ip/core/decision.c",
      kCorpus + "/ip/core/filter.c",    kCorpus + "/ip/core/main.c",
      kCorpus + "/ip/core/safety.c",    kCorpus + "/ip/core/selftest.c",
      kCorpus + "/ip/core/telemetry.c",
  };
}

SupervisorOptions fastOptions() {
  SupervisorOptions opts;
  opts.worker_exe = SAFEFLOW_EXE;
  opts.worker_timeout_seconds = 30.0;
  opts.backoff_base_seconds = 0.001;
  opts.worker_args = {"-I", kCorpus + "/ip/common"};
  return opts;
}

// -- duration percentiles ---------------------------------------------------

TEST(TelemetryPercentiles, OrderedAndClampedToObservedRange) {
  support::MetricsRegistry registry;
  support::MetricsRegistry::DurationStat& d = registry.duration("d");
  for (int i = 1; i <= 100; ++i) d.record(i * 0.001);  // 1ms .. 100ms
  const double p50 = d.percentileSeconds(0.50);
  const double p90 = d.percentileSeconds(0.90);
  const double p99 = d.percentileSeconds(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Bucket estimates never leave the observed [min, max] envelope.
  EXPECT_GE(p50, d.minSeconds());
  EXPECT_LE(p99, d.maxSeconds());
  // A power-of-two bucket edge is at worst 2x the true value.
  EXPECT_LE(p50, 0.128);
  EXPECT_GE(p99, 0.064);
}

TEST(TelemetryPercentiles, SingleSampleCollapsesToThatSample) {
  support::MetricsRegistry registry;
  support::MetricsRegistry::DurationStat& d = registry.duration("one");
  d.record(0.005);
  EXPECT_DOUBLE_EQ(d.percentileSeconds(0.50), 0.005);
  EXPECT_DOUBLE_EQ(d.percentileSeconds(0.99), 0.005);
}

TEST(TelemetryPercentiles, SnapshotCarriesDigest) {
  support::MetricsRegistry registry;
  registry.duration("phase.fake").record(0.010);
  registry.duration("phase.fake").record(0.020);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.durations.size(), 1u);
  EXPECT_EQ(snap.durations[0].name, "phase.fake");
  EXPECT_EQ(snap.durations[0].count, 2u);
  EXPECT_NEAR(snap.durations[0].total_seconds, 0.030, 1e-9);
  EXPECT_GE(snap.durations[0].p99_seconds, snap.durations[0].p50_seconds);
}

// -- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RoundTripsThroughDumpAndParser) {
  support::flightRecorderReset();
  support::flightRecord("phase", "frontend");
  support::flightRecord("cache", std::string("miss abc123"));
  support::flightRecord("phase", "taint");

  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  support::flightRecorderDump(fds[1]);
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) text.append(buf, n);
  close(fds[0]);

  const auto events = support::parseFlightRecorderLines(text);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, "phase");
  EXPECT_EQ(events[0].detail, "frontend");
  EXPECT_EQ(events[1].kind, "cache");
  EXPECT_EQ(events[1].detail, "miss abc123");
  EXPECT_EQ(events[2].detail, "taint");
  EXPECT_LT(events[0].seq, events[2].seq);
}

TEST(FlightRecorder, RingKeepsTheNewestEventsWhenFull) {
  support::flightRecorderReset();
  for (int i = 0; i < 200; ++i) {
    support::flightRecord("phase", "event-" + std::to_string(i));
  }
  EXPECT_EQ(support::flightRecorderCount(), 200u);

  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  support::flightRecorderDump(fds[1]);
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) text.append(buf, n);
  close(fds[0]);

  const auto events = support::parseFlightRecorderLines(text);
  ASSERT_LE(events.size(), support::kFlightRecorderCapacity);
  ASSERT_FALSE(events.empty());
  // Oldest-first dump; the last line is the newest event.
  EXPECT_EQ(events.back().detail, "event-199");
  EXPECT_EQ(events.front().detail,
            "event-" + std::to_string(200 - events.size()));
  support::flightRecorderReset();
}

TEST(FlightRecorder, ParserSkipsForeignAndMalformedLines) {
  const std::string stderr_text =
      "safeflow: some ordinary diagnostic\n"
      "SAFEFLOW-FR 7 phase taint\n"
      "SAFEFLOW-FR garbage\n"
      "SAFEFLOW-FR 9 cache miss with spaces kept\n"
      "trailing noise";
  const auto events = support::parseFlightRecorderLines(stderr_text);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 7u);
  EXPECT_EQ(events[0].kind, "phase");
  EXPECT_EQ(events[0].detail, "taint");
  EXPECT_EQ(events[1].detail, "miss with spaces kept");
}

TEST(FlightRecorder, TruncatedCaptureDropsTheUnprovableLastEvent) {
  // A --worker-stderr-cap capture can end exactly on a line boundary:
  // the final event parses cleanly, yet its successors (and the END
  // marker) were dropped, so it cannot be proven complete.
  const std::string capped =
      "SAFEFLOW-FR 1 phase frontend\n"
      "SAFEFLOW-FR 2 phase ssa\n"
      "SAFEFLOW-FR 3 phase taint\n";
  const auto trusting = support::parseFlightRecorderLines(capped);
  ASSERT_EQ(trusting.size(), 3u);
  const auto wary =
      support::parseFlightRecorderLines(capped, /*assume_truncated=*/true);
  ASSERT_EQ(wary.size(), 2u);
  EXPECT_EQ(wary.back().detail, "ssa");
}

TEST(FlightRecorder, EndMarkerProvesCompletenessUnderTruncation) {
  // When the terminator survived the cap, nothing after it was cut and
  // every parsed event is trustworthy even in assume_truncated mode.
  const std::string complete =
      "SAFEFLOW-FR 1 phase frontend\n"
      "SAFEFLOW-FR 2 phase taint\n"
      "SAFEFLOW-FR-END 2\n";
  const auto events =
      support::parseFlightRecorderLines(complete, /*assume_truncated=*/true);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().detail, "taint");
}

TEST(FlightRecorder, ParserRejectsCutAndInterleavedLines) {
  // Hostile stderr shapes the supervisor actually sees from dying
  // workers: a dump line cut mid-write (no newline), another stream's
  // bytes spliced into an FR line (fields wider than the dump can
  // produce), and an absurd sequence field.
  const std::string oversized_kind(40, 'k');
  const std::string oversized_detail(200, 'd');
  const std::string stderr_text =
      "SAFEFLOW-FR 1 phase frontend\n"
      "SAFEFLOW-FR 2 " + oversized_kind + " detail\n" +
      "SAFEFLOW-FR 3 cache " + oversized_detail + "\n" +
      "SAFEFLOW-FR 123456789012345678901 phase ssa\n"
      "SAFEFLOW-FR 4 phase report";  // cut mid-write: no newline
  const auto events = support::parseFlightRecorderLines(stderr_text);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].detail, "frontend");
}

// -- structured log levels --------------------------------------------------

TEST(TelemetryLog, ParseLogLevelAcceptsDocumentedNames) {
  support::LogLevel level{};
  EXPECT_TRUE(support::parseLogLevel("error", &level));
  EXPECT_EQ(level, support::LogLevel::kError);
  EXPECT_TRUE(support::parseLogLevel("warn", &level));
  EXPECT_EQ(level, support::LogLevel::kWarn);
  EXPECT_TRUE(support::parseLogLevel("note", &level));
  EXPECT_EQ(level, support::LogLevel::kNote);
  EXPECT_TRUE(support::parseLogLevel("info", &level));
  EXPECT_EQ(level, support::LogLevel::kInfo);
  EXPECT_TRUE(support::parseLogLevel("debug", &level));
  EXPECT_EQ(level, support::LogLevel::kDebug);
  EXPECT_FALSE(support::parseLogLevel("verbose", &level));
  EXPECT_FALSE(support::parseLogLevel("", &level));
}

// -- per-stream stderr capture cap ------------------------------------------

TEST(TelemetryStderrCap, StderrIsCappedIndependentlyOfStdout) {
  support::SubprocessOptions opts;
  opts.max_stderr_capture_bytes = 1024;
  const auto result = support::runSubprocess(
      {"/bin/sh", "-c",
       "i=0; while [ $i -lt 400 ]; do echo "
       "stderr-spam-stderr-spam-stderr-spam-stderr-spam 1>&2; "
       "i=$((i+1)); done; echo stdout-ok"},
      opts);
  ASSERT_TRUE(result.exitedWith(0)) << result.spawn_error;
  EXPECT_EQ(result.out_text, "stdout-ok\n");
  EXPECT_FALSE(result.out_truncated);
  EXPECT_TRUE(result.err_truncated);
  EXPECT_LE(result.err_text.size(), 1024u);
}

// -- Prometheus exposition --------------------------------------------------

TEST(PrometheusExposition, CarriesCountersQuantilesAndResource) {
  SafeFlowDriver driver;
  ASSERT_TRUE(driver.addSource("core.c",
                               "static int x;\n"
                               "int main(void) { return x; }\n"));
  driver.analyze();
  const std::string text = driver.stats().renderPrometheus();
  EXPECT_NE(text.find("# TYPE safeflow_frontend_files_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("safeflow_frontend_files_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("safeflow_process_user_seconds"), std::string::npos);
  EXPECT_NE(text.find("safeflow_process_max_rss_kb"), std::string::npos);
  // Metric names are sanitized: no '.' survives into a name.
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      const std::string name = line.substr(0, line.find_first_of(" {"));
      EXPECT_EQ(name.find('.'), std::string::npos) << line;
    }
    pos = eol + 1;
  }
}

// -- stats schema v2 --------------------------------------------------------

TEST(TelemetryMergedStats, SchemaV2CarriesShardsDurationsResource) {
  const auto files = ipCoreFiles();
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(fastOptions(), &registry).run(files);
  ASSERT_FALSE(run.failure.has_value());
  const SafeFlowStats& stats = run.output.stats;

  // One row attributes the run's one worker.
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GT(stats.shards[0].wall_seconds, 0.0);
  EXPECT_GT(stats.shards[0].max_rss_kb, 0u);
  EXPECT_EQ(stats.shards[0].attempts, 1);
  EXPECT_FALSE(stats.shards[0].from_cache);
  EXPECT_GT(stats.resource.max_rss_kb, 0u);
  // The worker's phase digests arrive with the supervisor's own.
  const auto has_digest = [&stats](const std::string& name) {
    return std::any_of(stats.durations.begin(), stats.durations.end(),
                       [&name](const auto& d) { return d.name == name; });
  };
  EXPECT_TRUE(has_digest("supervisor.run_seconds"));
  EXPECT_TRUE(has_digest("phase.taint"));
  EXPECT_EQ(stats.files, files.size());

  const std::string json = stats.renderJson();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"durations\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"resource\""), std::string::npos);
  // Determinism contract: every line carrying wall-clock or RSS content
  // also carries "seconds" so stripTimes-style filters drop it whole.
  for (std::size_t pos = 0; pos < json.size();) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string line = json.substr(pos, eol - pos);
    if (line.find("max_rss_kb") != std::string::npos ||
        line.find("\"wall") != std::string::npos) {
      EXPECT_NE(line.find("seconds"), std::string::npos) << line;
    }
    pos = eol + 1;
  }
}

TEST(TelemetryMergedStats, CacheDisableRecordsFirstReason) {
  CacheOptions copts;
  copts.enabled = true;
  copts.dir = "/tmp/safeflow-telemetry-test-cache";
  support::MetricsRegistry registry;
  CacheManager cache(copts, &registry);
  EXPECT_EQ(cache.disabledReason(), "");
  cache.disable("trace");
  EXPECT_EQ(cache.disabledReason(), "trace");
  cache.disable("dot");  // first reason wins
  EXPECT_EQ(cache.disabledReason(), "trace");
}

// -- stitched trace (e2e) ---------------------------------------------------

struct StitchedTrace {
  support::json::Value doc;
  std::vector<support::json::Value> events;  // the traceEvents array
};

StitchedTrace runStitched(const std::vector<std::string>& files) {
  SupervisorOptions opts = fastOptions();
  opts.worker_args.emplace_back("--telemetry-spans");
  support::TraceCollector trace;
  opts.trace = &trace;
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(files);
  EXPECT_FALSE(run.failure.has_value());

  StitchedTrace result;
  const std::string json = renderStitchedTrace(trace, run);
  std::string err;
  EXPECT_TRUE(support::json::parse(json, &result.doc, &err)) << err;
  const auto* events = result.doc.find("traceEvents");
  if (events != nullptr && events->isArray()) {
    result.events = events->array;
  }
  return result;
}

TEST(StitchedTraceE2E, IsolateProducesOneWorkerLanePlusSupervisor) {
  const StitchedTrace trace = runStitched(ipCoreFiles());
  ASSERT_FALSE(trace.events.empty());

  std::set<std::uint64_t> span_pids;
  std::size_t supervisor_run_spans = 0;
  bool worker_pipeline_span = false;
  for (const auto& e : trace.events) {
    const std::string ph = e.memberString("ph");
    const auto pid = static_cast<std::uint64_t>(e.memberNumber("pid"));
    if (ph != "X") continue;
    span_pids.insert(pid);
    // Complete events are non-negative and re-based: a worker span
    // before the supervisor's epoch would go negative.
    EXPECT_GE(e.memberNumber("ts"), 0.0);
    EXPECT_GE(e.memberNumber("dur"), 0.0);
    const std::string name = e.memberString("name");
    if (pid == 1 && name == "supervisor.run") ++supervisor_run_spans;
    if (pid == 2 && name == "safeflow.pipeline") worker_pipeline_span = true;
  }
  // Lane 1 is the supervisor, lane 2 the one worker.
  EXPECT_EQ(span_pids, (std::set<std::uint64_t>{1, 2}));
  EXPECT_EQ(supervisor_run_spans, 1u);
  EXPECT_TRUE(worker_pipeline_span);

  // The worker lane is labeled with the worker's real pid.
  std::size_t worker_labels = 0;
  for (const auto& e : trace.events) {
    if (e.memberString("ph") != "M") continue;
    const auto* args = e.find("args");
    ASSERT_NE(args, nullptr);
    if (static_cast<std::uint64_t>(e.memberNumber("pid")) == 2) {
      EXPECT_NE(args->memberString("name").find("pid "), std::string::npos);
      ++worker_labels;
    }
  }
  EXPECT_EQ(worker_labels, 1u);
}

TEST(StitchedTraceE2E, WorkerSpansLandInsideTheSupervisorTimeline) {
  const std::vector<std::string> files = {kCorpus + "/ip/core/filter.c",
                                          kCorpus + "/ip/core/comm.c"};
  const StitchedTrace trace = runStitched(files);

  // The supervisor's whole-run window: its earliest span start to the
  // latest span end (supervisor.run encloses everything).
  double sup_end = 0.0;
  for (const auto& e : trace.events) {
    if (e.memberString("ph") != "X") continue;
    if (static_cast<std::uint64_t>(e.memberNumber("pid")) != 1) continue;
    sup_end =
        std::max(sup_end, e.memberNumber("ts") + e.memberNumber("dur"));
  }
  ASSERT_GT(sup_end, 0.0);

  std::size_t worker_spans = 0;
  for (const auto& e : trace.events) {
    if (e.memberString("ph") != "X") continue;
    if (static_cast<std::uint64_t>(e.memberNumber("pid")) == 1) continue;
    ++worker_spans;
    // Re-based worker spans must sit inside the supervised run, not at
    // raw worker-local offsets (which would start near zero, before the
    // worker was even spawned).
    EXPECT_GE(e.memberNumber("ts"), 0.0);
    EXPECT_LE(e.memberNumber("ts") + e.memberNumber("dur"),
              sup_end + 1e5)  // 100ms slack for clock sampling
        << e.memberString("name");
  }
  // The live worker contributed spans (a pipeline root and its phases).
  EXPECT_GE(worker_spans, 2u);
}

// -- crash postmortem (e2e) -------------------------------------------------

TEST(TelemetryCrashE2E, TaintCrashAttachesFlightRecorderNamingPhase) {
  SupervisorOptions opts = fastOptions();
  opts.max_retries = 0;
  opts.render.json = true;
  opts.extra_env = {{"SAFEFLOW_INJECT_FAULT", "crash@taint"}};
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(ipCoreFiles());

  ASSERT_TRUE(run.failure.has_value());
  EXPECT_EQ(run.failure->reason, "SIGSEGV");
  ASSERT_FALSE(run.failure->flight_events.empty());
  // The last phase event names where the worker died.
  std::string last_phase;
  for (const auto& event : run.failure->flight_events) {
    if (event.kind == "phase") last_phase = event.detail;
  }
  EXPECT_EQ(last_phase, "taint");

  // The JSON report carries the postmortem for offline triage.
  const std::string& json = run.output.stdout_text;
  const std::size_t failures_pos = json.find("\"worker_failures\"");
  ASSERT_NE(failures_pos, std::string::npos);
  EXPECT_NE(json.find("\"flight_recorder\"", failures_pos),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"phase\"", failures_pos),
            std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"taint\"", failures_pos),
            std::string::npos);
}

}  // namespace
