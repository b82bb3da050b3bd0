// SafeFlow public entry point. Typical use:
//
//   safeflow::SafeFlowDriver driver;
//   driver.addFile("core/controller.c");
//   driver.addFile("core/decision.c");
//   const auto& report = driver.analyze();
//   std::cout << report.render(driver.sources());
//
// The driver owns the whole pipeline: C front end, IR lowering + SSA,
// shared-memory region discovery, phase 1 pointer propagation, phase 2
// restriction checking, the alias analysis, and the phase 3 value-flow /
// critical-data analysis.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ranges.h"
#include "analysis/report.h"
#include "analysis/restrictions.h"
#include "analysis/taint.h"
#include "cfront/frontend.h"
#include "ir/ir.h"
#include "support/limits.h"
#include "support/loc_counter.h"
#include "support/metrics.h"

namespace safeflow {

namespace support::json {
class Value;
}

class SummaryStore;

/// Analyzer identity: printed by `safeflow --version` and hashed into
/// every incremental-cache key (see safeflow/cache_manager.h).
///
/// BUMP THIS on any change that can alter analysis results, the report
/// or stats JSON schema, or the worker protocol — macro expansion,
/// propagation, restriction rules, taint, rendering, defaults. The bump
/// is what invalidates every stale cache entry; forgetting it means an
/// upgraded analyzer can replay a report the old version produced.
inline constexpr const char kAnalyzerVersion[] = "0.9.1";

/// The exit-code ladder, shared by every entry point (the worker runs
/// the in-process path) so no two can disagree:
///
///   1  error dependencies found (data errors)
///   2  usage / front-end errors (including worker crashes: the file was
///      not fully analyzed)
///   3  clean but degraded (an analysis budget tripped; findings are
///      valid, absences unproven)
///   0  clean
[[nodiscard]] constexpr int exitCodeFor(std::size_t data_errors,
                                        bool frontend_errors,
                                        bool degraded) {
  if (data_errors > 0) return 1;
  if (frontend_errors) return 2;
  if (degraded) return 3;
  return 0;
}

/// Function-level summary memoization against a resident store
/// (DESIGN.md §16). Runs only when `enabled` is set and a store was
/// handed in with SafeFlowDriver::setSummaryStore().
struct SummaryOptions {
  bool enabled = false;
  /// After the memoized phases, re-solve everything cold and compare the
  /// final states (summaryVerifyFailed()): the tests' oracle.
  bool verify = false;
};

struct SafeFlowOptions {
  std::vector<std::string> include_dirs;
  std::vector<std::pair<std::string, std::string>> defines;
  analysis::TaintOptions taint;
  analysis::AliasOptions alias;
  analysis::RestrictionOptions restrictions;
  /// Value-range analysis (--ranges / --no-ranges). Enabled by default;
  /// disabling it keeps the whole pipeline byte-identical to pre-0.5.0
  /// output (no ranges.* counters, no "ranges" phase, no discharges).
  analysis::RangeOptions ranges;
  /// Record hierarchical spans for the whole pipeline (Chrome trace /
  /// Perfetto export via SafeFlowDriver::trace()). Counters and per-phase
  /// wall times are always collected; only span recording is optional.
  bool collect_trace = false;
  /// Analysis budget (--time-budget / --step-budget / --max-depth). The
  /// default is unlimited; see support/limits.h and DESIGN.md for the
  /// degradation semantics when a limit trips.
  support::BudgetLimits budget;
  SummaryOptions summaries;
};

struct SafeFlowStats {
  std::size_t files = 0;
  support::LocStats loc;  // aggregated over added files
  std::size_t annotation_count = 0;
  std::size_t annotation_lines = 0;
  std::size_t functions = 0;
  std::size_t monitor_functions = 0;
  std::size_t init_functions = 0;
  std::size_t shm_regions = 0;
  std::size_t noncore_regions = 0;
  std::size_t shm_iterations = 0;
  std::size_t taint_body_analyses = 0;
  /// Wall time spent in the front end (preprocess + parse, all files).
  double frontend_seconds = 0.0;
  /// Wall time of analyze() (lowering through reporting).
  double analysis_seconds = 0.0;
  /// frontend_seconds + analysis_seconds.
  double total_seconds = 0.0;
  /// Per-phase wall time in pipeline order ("frontend", "lowering", "ssa",
  /// "shm_regions", "callgraph", "ranges", "shm_propagation",
  /// "restrictions", "alias", "taint", "report"), backed by the metrics
  /// registry.
  std::vector<std::pair<std::string, double>> phase_seconds;
  /// Snapshot of every named pipeline counter (e.g.
  /// "taint.body_analyses"), sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Snapshot of every named gauge (e.g. "alias.objects"), sorted by name.
  std::vector<std::pair<std::string, double>> gauges;
  /// Phases whose budget tripped, in trip order (empty on a full run).
  /// Mirrored into the report and the JSON renderings; a non-empty list
  /// means the run degraded and must not be read as certifying.
  std::vector<support::BudgetEvent> budget_events;
  /// Input files the front end could not fully parse; analysis continued
  /// on the declarations that survived recovery (empty on a clean run).
  std::vector<std::string> failed_files;
  /// Per-duration-histogram digest (count/total/min/max/p50/p90/p99),
  /// name-sorted; covers every "phase.*" histogram plus supervisor-side
  /// histograms like "supervisor.run_seconds" (schema_version 2).
  std::vector<support::MetricsRegistry::DurationSnapshot> durations;
  /// The supervised run's worker, filled by the supervisor (one row;
  /// empty on the in-process path): wall clock, CPU split, peak RSS.
  struct ShardStat {
    double wall_seconds = 0.0;
    double user_seconds = 0.0;
    double sys_seconds = 0.0;
    std::uint64_t max_rss_kb = 0;
    int attempts = 1;
    bool from_cache = false;
  };
  std::vector<ShardStat> shards;
  /// This process's own getrusage sample, taken when stats are finalized.
  support::ResourceSample resource;
  /// Why a requested incremental cache was disabled ("" when it ran):
  /// "fault-injection", "trace", or "dot" (CacheManager::disabledReason).
  std::string cache_disabled_reason;
  /// Why requested summary memoization was disabled ("" when it ran):
  /// "budget", "call-strings", or "fault-injection". In-process only:
  /// no entry point enables memoization, so it is never rendered.
  std::string summaries_disabled_reason;

  /// Human-readable statistics table (what `safeflow --stats` prints).
  [[nodiscard]] std::string renderTable() const;
  /// Machine-readable JSON object (snake_case keys, schema_version field);
  /// the same object `safeflow --stats-json` writes and `--json` embeds.
  /// Schema history: v1 through analyzer 0.5.0; v2 adds durations
  /// digests, shards, resource, and cache_disabled_reason.
  [[nodiscard]] std::string renderJson() const;
  /// Reads a renderJson() document back (the worker envelope and cache
  /// entries carry one). False when `doc` is not an object.
  static bool fromJson(const support::json::Value& doc, SafeFlowStats* out);
  /// Prometheus text exposition (what `--metrics-out <file>` writes):
  /// counters as safeflow_<name>_total, gauges/timings as safeflow_<name>.
  [[nodiscard]] std::string renderPrometheus() const;
};

class SafeFlowDriver {
 public:
  explicit SafeFlowDriver(SafeFlowOptions options = {});
  ~SafeFlowDriver();
  SafeFlowDriver(const SafeFlowDriver&) = delete;
  SafeFlowDriver& operator=(const SafeFlowDriver&) = delete;

  /// Adds a core-component source file (or buffer) to the analysis set.
  bool addFile(const std::string& path);
  bool addSource(std::string name, std::string text);

  /// Runs every phase and returns the report. Idempotent: repeated calls
  /// return the same report.
  const analysis::SafeFlowReport& analyze();

  [[nodiscard]] const analysis::SafeFlowReport& report() const {
    return report_;
  }
  [[nodiscard]] const SafeFlowStats& stats() const { return stats_; }
  [[nodiscard]] const support::SourceManager& sources() const;
  [[nodiscard]] const support::DiagnosticEngine& diagnostics() const;
  [[nodiscard]] bool hasFrontendErrors() const { return frontend_errors_; }
  /// True when any phase ran out of budget (results are conservative).
  [[nodiscard]] bool degraded() const { return budget_.anyDegraded(); }
  [[nodiscard]] const support::AnalysisBudget& budget() const {
    return budget_;
  }
  /// Files addFile() could not fully parse (analysis continued without
  /// the unparsed declarations).
  [[nodiscard]] const std::vector<std::string>& failedFiles() const {
    return failed_files_;
  }
  /// The lowered module (valid after analyze()).
  [[nodiscard]] const ir::Module* module() const { return module_.get(); }

  /// Every counter/gauge/duration the pipeline reported for this driver.
  [[nodiscard]] const support::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] support::MetricsRegistry& metrics() { return metrics_; }
  /// The span collector, or nullptr unless options.collect_trace was set.
  [[nodiscard]] const support::TraceCollector* trace() const {
    return trace_.get();
  }

  /// Hands the driver a resident summary store, which may outlive it and
  /// serve later drivers. Must be called before analyze(); requires
  /// options.summaries.enabled to take effect.
  void setSummaryStore(SummaryStore* store) { summary_store_ = store; }
  /// True when options.summaries.verify re-solved cold and found a state
  /// divergence (a memoization bug).
  [[nodiscard]] bool summaryVerifyFailed() const {
    return summary_verify_failed_;
  }

 private:
  void countAnnotations();
  /// Opens the root span / starts the pipeline clock on first use.
  void beginPipeline();
  /// Closes the root span and snapshots the registry into stats_.
  void finishPipeline();

  SafeFlowOptions options_;
  support::AnalysisBudget budget_;
  SummaryStore* summary_store_ = nullptr;
  bool summary_verify_failed_ = false;
  std::vector<std::string> failed_files_;
  support::MetricsRegistry metrics_;
  std::unique_ptr<support::TraceCollector> trace_;
  support::PipelineObserver observer_;
  cfront::Frontend frontend_;
  std::unique_ptr<ir::Module> module_;
  analysis::SafeFlowReport report_;
  SafeFlowStats stats_;
  bool analyzed_ = false;
  bool frontend_errors_ = false;
  bool pipeline_started_ = false;
  std::size_t root_span_ = 0;
};

}  // namespace safeflow
