#include "safeflow/driver.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "analysis/alias.h"
#include "analysis/shm_propagation.h"
#include "analysis/shm_regions.h"
#include "analysis/summaries.h"
#include "ir/callgraph.h"
#include "ir/lowering.h"
#include "ir/ssa.h"
#include "safeflow/summary_store.h"
#include "support/cache.h"
#include "support/fault_inject.h"
#include "support/json.h"

namespace safeflow {

using support::json::escape;

namespace {

/// Pipeline phases in execution order; phase durations are recorded under
/// "phase.<name>" by each stage itself (see support/metrics.h).
constexpr const char* kPhaseOrder[] = {
    "frontend",     "lowering",        "ssa",   "shm_regions",
    "callgraph",    "ranges",          "shm_propagation",
    "restrictions", "alias",           "taint", "report",
};

std::size_t lineSpan(std::string_view text) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.end(), '\n'));
}

void countAnnotationsInStmt(const cfront::Stmt* stmt, SafeFlowStats& stats) {
  if (stmt == nullptr) return;
  switch (stmt->kind()) {
    case cfront::Stmt::Kind::kAnnotation: {
      const auto& a =
          static_cast<const cfront::AnnotationStmt*>(stmt)->annotation();
      ++stats.annotation_count;
      stats.annotation_lines += lineSpan(a.text);
      return;
    }
    case cfront::Stmt::Kind::kCompound:
      for (const cfront::Stmt* s :
           static_cast<const cfront::CompoundStmt*>(stmt)->stmts()) {
        countAnnotationsInStmt(s, stats);
      }
      return;
    case cfront::Stmt::Kind::kIf: {
      const auto* s = static_cast<const cfront::IfStmt*>(stmt);
      countAnnotationsInStmt(s->thenStmt(), stats);
      countAnnotationsInStmt(s->elseStmt(), stats);
      return;
    }
    case cfront::Stmt::Kind::kWhile:
      countAnnotationsInStmt(
          static_cast<const cfront::WhileStmt*>(stmt)->body(), stats);
      return;
    case cfront::Stmt::Kind::kDo:
      countAnnotationsInStmt(
          static_cast<const cfront::DoStmt*>(stmt)->body(), stats);
      return;
    case cfront::Stmt::Kind::kFor: {
      const auto* s = static_cast<const cfront::ForStmt*>(stmt);
      countAnnotationsInStmt(s->init(), stats);
      countAnnotationsInStmt(s->body(), stats);
      return;
    }
    case cfront::Stmt::Kind::kSwitch:
      countAnnotationsInStmt(
          static_cast<const cfront::SwitchStmt*>(stmt)->body(), stats);
      return;
    default:
      return;
  }
}

/// Everything that changes what the memoized phases compute must be in
/// the summary key fingerprint: a ranges/taint/alias option flip must
/// invalidate every entry, exactly like a version bump.
std::string summaryConfigFingerprint(const SafeFlowOptions& options) {
  std::string fp = kAnalyzerVersion;
  fp += "|ranges:";
  fp += options.ranges.enabled ? "1" : "0";
  fp += "|alias:";
  fp += options.alias.field_sensitive ? "1" : "0";
  fp += "|taint:";
  fp += options.taint.track_control_deps ? "1" : "0";
  for (const auto& [name, arg] : options.taint.implicit_critical_calls) {
    fp += ";" + name + "#" + std::to_string(arg);
  }
  for (const auto& rc : options.taint.receive_calls) {
    fp += ";" + rc.name + "@" + std::to_string(rc.socket_arg) + "," +
          std::to_string(rc.buffer_arg);
  }
  return fp;
}

/// Summary memoization is exact only when the run is deterministic and
/// complete; configurations that break either assumption disable it
/// with a recorded reason instead of risking a wrong replay.
std::string summariesDisabledReason(const SafeFlowOptions& options) {
  if (options.budget.limited()) return "budget";
  if (options.taint.mode == analysis::TaintOptions::Mode::kCallStrings) {
    return "call-strings";
  }
  if (support::faultInjectionArmed()) return "fault-injection";
  return "";
}

}  // namespace

FileRead fileReadOf(std::string path, const support::SourceManager& sm,
                    support::FileId file) {
  FileRead read{std::move(path), ""};
  if (file.valid()) {
    support::Fnv1a hasher;
    hasher.update(sm.contents(file));
    read.digest = hasher.hex();
  }
  return read;
}

SafeFlowDriver::SafeFlowDriver(SafeFlowOptions options)
    : options_(std::move(options)),
      budget_(options_.budget),
      frontend_(options_.include_dirs) {
  if (options_.collect_trace) {
    trace_ = std::make_unique<support::TraceCollector>();
  }
  observer_.metrics = &metrics_;
  observer_.trace = trace_.get();
  for (const auto& [name, value] : options_.defines) {
    frontend_.predefine(name, value);
  }
}

SafeFlowDriver::~SafeFlowDriver() = default;

void SafeFlowDriver::beginPipeline() {
  if (pipeline_started_) return;
  pipeline_started_ = true;
  budget_.start();  // the wall-clock budget covers the whole pipeline
  if (trace_ != nullptr) root_span_ = trace_->beginSpan("safeflow.pipeline");
}

bool SafeFlowDriver::addFile(const std::string& path) {
  const support::ScopedObserver install(&observer_);
  beginPipeline();
  ++stats_.files;
  support::faultInjectionPoint("frontend");
  support::FileId file;
  const bool ok = frontend_.parseFile(path, &file);
  if (!ok) {
    frontend_errors_ = true;
    failed_files_.push_back(path);
  }
  // Aggregate LOC over the file as the frontend read it.
  if (file.valid()) addLoc(frontend_.sources().contents(file));
  reads_.push_back(fileReadOf(path, frontend_.sources(), file));
  return ok;
}

void SafeFlowDriver::addLoc(std::string_view text) {
  const auto loc = support::countLoc(text);
  stats_.loc.total_lines += loc.total_lines;
  stats_.loc.code_lines += loc.code_lines;
  stats_.loc.comment_lines += loc.comment_lines;
  stats_.loc.blank_lines += loc.blank_lines;
}

bool SafeFlowDriver::addSource(std::string name, std::string text) {
  const support::ScopedObserver install(&observer_);
  beginPipeline();
  ++stats_.files;
  addLoc(text);
  const std::string display_name = name;
  const bool ok = frontend_.parseBuffer(std::move(name), std::move(text));
  if (!ok) {
    frontend_errors_ = true;
    failed_files_.push_back(display_name);
  }
  return ok;
}

const support::SourceManager& SafeFlowDriver::sources() const {
  return frontend_.sources();
}

const support::DiagnosticEngine& SafeFlowDriver::diagnostics() const {
  return frontend_.diagnostics();
}

void SafeFlowDriver::countAnnotations() {
  for (const cfront::FunctionDecl* fn : frontend_.unit().functions()) {
    for (const cfront::Annotation& a : fn->entryAnnotations()) {
      ++stats_.annotation_count;
      stats_.annotation_lines += lineSpan(a.text);
    }
    countAnnotationsInStmt(fn->body(), stats_);
  }
}

const analysis::SafeFlowReport& SafeFlowDriver::analyze() {
  if (analyzed_) return report_;
  analyzed_ = true;
  const support::ScopedObserver install(&observer_);
  beginPipeline();
  const auto start = std::chrono::steady_clock::now();

  for (const auto& [path, file] : frontend_.headers().paths()) {
    reads_.push_back(fileReadOf(path, frontend_.sources(), file));
  }
  frontend_.releaseHeaders();
  auto& diags = frontend_.diagnostics();
  // The last read of the AST: it is freed once lowered.
  countAnnotations();

  module_ = std::make_unique<ir::Module>(frontend_.types());
  support::faultInjectionPoint("lowering");
  ir::Lowering lowering(frontend_.unit(), *module_, diags);
  if (!lowering.run()) {
    // Per-file isolation: lowering recovers from bad constructs with
    // undef values and seals every block, so the partial module is
    // structurally sound. Keep going and report what can be analyzed.
    frontend_errors_ = true;
  }
  frontend_.releaseUnit();
  support::faultInjectionPoint("ssa");
  ir::promoteModuleToSsa(*module_);

  stats_.functions = module_->functions().size();
  for (const auto& fn : module_->functions()) {
    if (fn->annotations.is_monitor) ++stats_.monitor_functions;
    if (fn->annotations.is_shminit) ++stats_.init_functions;
  }

  support::faultInjectionPoint("shm_regions");
  const auto regions = analysis::ShmRegionTable::build(*module_, diags);
  stats_.shm_regions = regions.regions().size();
  stats_.noncore_regions = regions.noncoreCount();

  support::faultInjectionPoint("callgraph");
  ir::CallGraph callgraph(*module_);

  // Function-level summary memoization (DESIGN.md §16): bind this run's
  // Merkle keys in the resident store and hand each interprocedural
  // phase its memo seam. Off unless a caller enables it and hands in a
  // store; disabled with a recorded reason under configurations where a
  // replay could diverge from a cold solve.
  std::unique_ptr<analysis::ModuleIndex> summary_index;
  analysis::PhaseMemoHooks shm_memo, ranges_memo, taint_memo;
  SummaryStore* summaries = nullptr;
  if (options_.summaries.enabled && summary_store_ != nullptr) {
    const std::string reason = summariesDisabledReason(options_);
    if (!reason.empty()) {
      stats_.summaries_disabled_reason = reason;
    } else {
      summaries = summary_store_;
      summary_index = std::make_unique<analysis::ModuleIndex>(*module_);
      summaries->beginRun(analysis::computeFunctionKeys(
          *module_, callgraph, summaryConfigFingerprint(options_)));
      shm_memo = {summaries->bank(SummaryPhase::kShm), summary_index.get()};
      ranges_memo = {summaries->bank(SummaryPhase::kRanges),
                     summary_index.get()};
      taint_memo = {summaries->bank(SummaryPhase::kTaint),
                    summary_index.get()};
    }
  }

  // The value-range pass runs right after the call graph so every later
  // phase can query it; when disabled it is skipped entirely (no fault
  // point, no phase timer, no counters) so --no-ranges output is
  // byte-identical to pre-0.5.0 runs.
  analysis::RangeAnalysis ranges(*module_, callgraph, options_.ranges,
                                 &budget_, ranges_memo);
  if (options_.ranges.enabled) {
    support::faultInjectionPoint("ranges");
    ranges.run();
  }

  support::faultInjectionPoint("shm_propagation");
  analysis::ShmPointerAnalysis shm(*module_, regions, callgraph, &budget_,
                                   shm_memo);
  shm.run();
  stats_.shm_iterations = shm.iterations();

  support::faultInjectionPoint("restrictions");
  analysis::RestrictionChecker restrictions(
      *module_, regions, shm, options_.restrictions, &budget_, &ranges);
  report_.restriction_violations = restrictions.run(diags);

  support::faultInjectionPoint("alias");
  analysis::AliasAnalysis alias(*module_, regions, callgraph,
                                options_.alias, &budget_);
  alias.run();

  if (options_.ranges.enabled) {
    // Consumer 3 appends its shm-bounds-const findings after the
    // restriction phase's.
    analysis::checkShmConstBounds(*module_, regions, shm, alias, ranges,
                                  report_, diags);
  }

  support::faultInjectionPoint("taint");
  analysis::TaintAnalysis taint(*module_, regions, shm, alias, callgraph,
                                options_.taint, &budget_, &ranges,
                                taint_memo);
  taint.run(report_);
  stats_.taint_body_analyses = taint.bodyAnalyses();

  if (summaries != nullptr) {
    // summaries.verify: re-solve all three phases cold (no memo, no
    // budget) and compare the final abstract states. A divergence is a
    // memoization bug.
    if (options_.summaries.verify && !degraded()) {
      analysis::RangeAnalysis ranges2(*module_, callgraph, options_.ranges,
                                      nullptr);
      if (options_.ranges.enabled) ranges2.run();
      analysis::ShmPointerAnalysis shm2(*module_, regions, callgraph,
                                        nullptr);
      shm2.run();
      analysis::TaintAnalysis taint2(*module_, regions, shm2, alias,
                                     callgraph, options_.taint, nullptr,
                                     &ranges2);
      analysis::SafeFlowReport scratch;
      taint2.run(scratch);
      summary_verify_failed_ =
          ranges.digestState(*summary_index) !=
              ranges2.digestState(*summary_index) ||
          shm.digestState(*summary_index) !=
              shm2.digestState(*summary_index) ||
          taint.digestState(*summary_index) !=
              taint2.digestState(*summary_index);
    }
    summaries->finishRun();
  }

  // Mirror report entries into the diagnostic stream so tooling that only
  // consumes diagnostics sees everything.
  {
    support::faultInjectionPoint("report");
    const support::ScopedTimer timer("phase.report");
    // One finding per distinct location+message: headers included by
    // several TUs would otherwise repeat their diagnostics verbatim.
    report_.deduplicate(frontend_.sources());
    report_.failed_files = failed_files_;
    for (const support::BudgetEvent& e : budget_.events()) {
      report_.degraded_phases.push_back(e.phase);
      diags.warning(
          support::SourceLocation{}, "budget",
          "analysis budget exhausted in phase '" + e.phase + "' (" +
              e.reason + " limit, after " + std::to_string(e.steps) +
              " steps); results for this phase are conservative");
    }
    for (const auto& w : report_.warnings) {
      diags.warning(w.location, "safeflow.warning",
                    "unmonitored read of non-core region '" + w.region_name +
                        "' in " + w.function);
    }
    for (const auto& e : report_.errors) {
      const bool data =
          e.kind == analysis::CriticalDependencyError::Kind::kData;
      diags.report(
          data ? support::Severity::kError : support::Severity::kWarning,
          e.assert_location,
          data ? "safeflow.error" : "safeflow.control-dep",
          "critical value '" + e.critical_value +
              "' depends on unmonitored non-core values" +
              (data ? "" : " (control dependence only: review manually)"));
    }
  }

  stats_.analysis_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  finishPipeline();
  return report_;
}

void SafeFlowDriver::finishPipeline() {
  if (trace_ != nullptr && pipeline_started_) trace_->endSpan(root_span_);

  stats_.frontend_seconds = metrics_.durationTotalSeconds("phase.frontend");
  stats_.total_seconds = stats_.frontend_seconds + stats_.analysis_seconds;

  metrics_.gauge("ir.functions").set(static_cast<double>(stats_.functions));
  metrics_.gauge("shm.regions").set(static_cast<double>(stats_.shm_regions));
  metrics_.gauge("shm.noncore_regions")
      .set(static_cast<double>(stats_.noncore_regions));

  stats_.phase_seconds.clear();
  for (const char* phase : kPhaseOrder) {
    const std::string key = std::string("phase.") + phase;
    if (metrics_.durationCount(key) == 0) continue;
    stats_.phase_seconds.emplace_back(phase,
                                      metrics_.durationTotalSeconds(key));
  }
  auto snap = metrics_.snapshot();
  stats_.counters = snap.counters;
  stats_.gauges = snap.gauges;
  stats_.durations = std::move(snap.durations);
  stats_.budget_events = budget_.events();
  stats_.failed_files = failed_files_;
  stats_.resource = support::sampleResourceUsage();
}

namespace {

std::string jsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string SafeFlowStats::renderTable() const {
  std::ostringstream out;
  out << "== SafeFlow pipeline statistics ==\n";
  out << "files analyzed        " << files << "\n"
      << "core LOC              " << loc.code_lines << " (of "
      << loc.total_lines << " total lines)\n"
      << "annotations           " << annotation_count << " ("
      << annotation_lines << " lines)\n"
      << "functions             " << functions << " ("
      << monitor_functions << " monitor, " << init_functions << " init)\n"
      << "shm regions           " << shm_regions << " (" << noncore_regions
      << " non-core)\n";
  out << "phase breakdown:\n";
  char buf[128];
  for (const auto& [name, seconds] : phase_seconds) {
    const double share =
        total_seconds > 0.0 ? 100.0 * seconds / total_seconds : 0.0;
    std::snprintf(buf, sizeof buf, "  %-20s %10.3f ms  %5.1f%%\n",
                  name.c_str(), seconds * 1e3, share);
    out << buf;
  }
  std::snprintf(buf, sizeof buf, "  %-20s %10.3f ms\n", "total",
                total_seconds * 1e3);
  out << buf;
  if (!budget_events.empty()) {
    out << "degraded phases (budget exhausted):\n";
    for (const auto& e : budget_events) {
      std::snprintf(buf, sizeof buf, "  %-20s %s limit after %llu steps\n",
                    e.phase.c_str(), e.reason.c_str(),
                    static_cast<unsigned long long>(e.steps));
      out << buf;
    }
  }
  if (!failed_files.empty()) {
    out << "files with parse errors (partial results):\n";
    for (const std::string& f : failed_files) out << "  " << f << "\n";
  }
  if (!durations.empty()) {
    out << "duration percentiles (bucket-estimated):\n";
    for (const auto& d : durations) {
      std::snprintf(buf, sizeof buf,
                    "  %-28s n=%-6llu p50 %9.3f ms  p90 %9.3f ms  p99 "
                    "%9.3f ms\n",
                    d.name.c_str(), static_cast<unsigned long long>(d.count),
                    d.p50_seconds * 1e3, d.p90_seconds * 1e3,
                    d.p99_seconds * 1e3);
      out << buf;
    }
  }
  if (!shards.empty()) {
    for (const auto& s : shards) {
      std::snprintf(buf, sizeof buf,
                    "worker: %9.3f ms wall  %8llu KiB rss  %d attempt(s)%s\n",
                    s.wall_seconds * 1e3,
                    static_cast<unsigned long long>(s.max_rss_kb), s.attempts,
                    s.from_cache ? "  [cache]" : "");
      out << buf;
    }
  }
  std::snprintf(buf, sizeof buf,
                "resource usage: user %.3f s, sys %.3f s, peak RSS %llu KiB\n",
                resource.user_seconds, resource.sys_seconds,
                static_cast<unsigned long long>(resource.max_rss_kb));
  out << buf;
  if (!cache_disabled_reason.empty()) {
    out << "cache disabled: " << cache_disabled_reason << "\n";
  }
  if (!counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : counters) {
      std::snprintf(buf, sizeof buf, "  %-38s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out << buf;
    }
  }
  return out.str();
}

std::string SafeFlowStats::renderJson() const {
  std::ostringstream out;
  out << "{\n  \"schema_version\": 2,\n  \"files\": " << files
      << ",\n  \"loc\": {\"total_lines\": " << loc.total_lines
      << ", \"code_lines\": " << loc.code_lines
      << ", \"comment_lines\": " << loc.comment_lines
      << ", \"blank_lines\": " << loc.blank_lines << "}"
      << ",\n  \"annotation_count\": " << annotation_count
      << ",\n  \"annotation_lines\": " << annotation_lines
      << ",\n  \"functions\": " << functions
      << ",\n  \"monitor_functions\": " << monitor_functions
      << ",\n  \"init_functions\": " << init_functions
      << ",\n  \"shm_regions\": " << shm_regions
      << ",\n  \"noncore_regions\": " << noncore_regions
      << ",\n  \"shm_iterations\": " << shm_iterations
      << ",\n  \"taint_body_analyses\": " << taint_body_analyses
      << ",\n  \"frontend_seconds\": " << jsonDouble(frontend_seconds)
      << ",\n  \"analysis_seconds\": " << jsonDouble(analysis_seconds)
      << ",\n  \"total_seconds\": " << jsonDouble(total_seconds);
  // Degradation markers appear only when a limit tripped, keeping full
  // runs byte-identical to builds without the budget layer.
  if (!budget_events.empty()) {
    out << ",\n  \"degraded\": true,\n  \"degraded_phases\": [";
    for (std::size_t i = 0; i < budget_events.size(); ++i) {
      const auto& e = budget_events[i];
      out << (i == 0 ? "\n" : ",\n") << "    {\"phase\": \""
          << escape(e.phase) << "\", \"reason\": \""
          << escape(e.reason) << "\", \"steps\": " << e.steps << "}";
    }
    out << "\n  ]";
  }
  if (!failed_files.empty()) {
    out << ",\n  \"failed_files\": [";
    for (std::size_t i = 0; i < failed_files.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << escape(failed_files[i])
          << "\"";
    }
    out << "]";
  }
  out << ",\n  \"phases\": [";
  for (std::size_t i = 0; i < phase_seconds.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << escape(phase_seconds[i].first) << "\", \"seconds\": "
        << jsonDouble(phase_seconds[i].second) << "}";
  }
  out << (phase_seconds.empty() ? "]" : "\n  ]");
  out << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << escape(counters[i].first)
        << "\": " << counters[i].second;
  }
  out << "}";
  out << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << escape(gauges[i].first)
        << "\": " << jsonDouble(gauges[i].second);
  }
  out << "}";
  // Schema v2 telemetry sections. Each array entry / object is rendered
  // on a single line that contains a "*_seconds" key, so time-stripping
  // comparators (tests, CI byte-identity checks) drop exactly the
  // nondeterministic lines and keep the deterministic structure.
  if (!durations.empty()) {
    out << ",\n  \"durations\": [";
    for (std::size_t i = 0; i < durations.size(); ++i) {
      const auto& d = durations[i];
      out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
          << escape(d.name) << "\", \"count\": " << d.count
          << ", \"total_seconds\": " << jsonDouble(d.total_seconds)
          << ", \"min_seconds\": " << jsonDouble(d.min_seconds)
          << ", \"max_seconds\": " << jsonDouble(d.max_seconds)
          << ", \"p50_seconds\": " << jsonDouble(d.p50_seconds)
          << ", \"p90_seconds\": " << jsonDouble(d.p90_seconds)
          << ", \"p99_seconds\": " << jsonDouble(d.p99_seconds) << "}";
    }
    out << "\n  ]";
  }
  if (!shards.empty()) {
    out << ",\n  \"shards\": [";
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const auto& s = shards[i];
      out << (i == 0 ? "\n" : ",\n") << "    {\"wall_seconds\": "
          << jsonDouble(s.wall_seconds)
          << ", \"user_seconds\": " << jsonDouble(s.user_seconds)
          << ", \"sys_seconds\": " << jsonDouble(s.sys_seconds)
          << ", \"max_rss_kb\": " << s.max_rss_kb
          << ", \"attempts\": " << s.attempts << ", \"from_cache\": "
          << (s.from_cache ? "true" : "false") << "}";
    }
    out << "\n  ]";
  }
  out << ",\n  \"resource\": {\"user_seconds\": "
      << jsonDouble(resource.user_seconds)
      << ", \"sys_seconds\": " << jsonDouble(resource.sys_seconds)
      << ", \"max_rss_kb\": " << resource.max_rss_kb << "}";
  if (!cache_disabled_reason.empty()) {
    out << ",\n  \"cache_disabled_reason\": \""
        << escape(cache_disabled_reason) << "\"";
  }
  out << "\n}";
  return out.str();
}

bool SafeFlowStats::fromJson(const support::json::Value& doc,
                             SafeFlowStats* out) {
  using support::json::Value;
  if (!doc.isObject()) return false;
  SafeFlowStats s;
  s.files = doc.memberUint("files");
  if (const Value* loc = doc.find("loc")) {
    s.loc.total_lines = loc->memberUint("total_lines");
    s.loc.code_lines = loc->memberUint("code_lines");
    s.loc.comment_lines = loc->memberUint("comment_lines");
    s.loc.blank_lines = loc->memberUint("blank_lines");
  }
  s.annotation_count = doc.memberUint("annotation_count");
  s.annotation_lines = doc.memberUint("annotation_lines");
  s.functions = doc.memberUint("functions");
  s.monitor_functions = doc.memberUint("monitor_functions");
  s.init_functions = doc.memberUint("init_functions");
  s.shm_regions = doc.memberUint("shm_regions");
  s.noncore_regions = doc.memberUint("noncore_regions");
  s.shm_iterations = doc.memberUint("shm_iterations");
  s.taint_body_analyses = doc.memberUint("taint_body_analyses");
  s.frontend_seconds = doc.memberNumber("frontend_seconds");
  s.analysis_seconds = doc.memberNumber("analysis_seconds");
  s.total_seconds = doc.memberNumber("total_seconds");
  if (const Value* events = doc.find("degraded_phases")) {
    for (const Value& e : events->array) {
      s.budget_events.push_back({e.memberString("phase"),
                                 e.memberString("reason"),
                                 e.memberUint("steps")});
    }
  }
  if (const Value* failed = doc.find("failed_files")) {
    for (const Value& f : failed->array) {
      s.failed_files.push_back(f.stringOr({}));
    }
  }
  if (const Value* phases = doc.find("phases")) {
    for (const Value& p : phases->array) {
      s.phase_seconds.emplace_back(p.memberString("name"),
                                   p.memberNumber("seconds"));
    }
  }
  if (const Value* counters = doc.find("counters")) {
    for (const auto& [name, value] : counters->members) {
      s.counters.emplace_back(name, value.uintOr(0));
    }
  }
  if (const Value* gauges = doc.find("gauges")) {
    for (const auto& [name, value] : gauges->members) {
      s.gauges.emplace_back(name, value.numberOr(0.0));
    }
  }
  if (const Value* durations = doc.find("durations")) {
    for (const Value& d : durations->array) {
      support::MetricsRegistry::DurationSnapshot digest;
      digest.name = d.memberString("name");
      digest.count = d.memberUint("count");
      digest.total_seconds = d.memberNumber("total_seconds");
      digest.min_seconds = d.memberNumber("min_seconds");
      digest.max_seconds = d.memberNumber("max_seconds");
      digest.p50_seconds = d.memberNumber("p50_seconds");
      digest.p90_seconds = d.memberNumber("p90_seconds");
      digest.p99_seconds = d.memberNumber("p99_seconds");
      s.durations.push_back(std::move(digest));
    }
  }
  if (const Value* shards = doc.find("shards")) {
    for (const Value& row : shards->array) {
      ShardStat shard;
      shard.wall_seconds = row.memberNumber("wall_seconds");
      shard.user_seconds = row.memberNumber("user_seconds");
      shard.sys_seconds = row.memberNumber("sys_seconds");
      shard.max_rss_kb = row.memberUint("max_rss_kb");
      shard.attempts = static_cast<int>(row.memberUint("attempts", 1));
      const Value* cached = row.find("from_cache");
      shard.from_cache = cached != nullptr && cached->boolOr(false);
      s.shards.push_back(shard);
    }
  }
  if (const Value* res = doc.find("resource")) {
    s.resource.user_seconds = res->memberNumber("user_seconds");
    s.resource.sys_seconds = res->memberNumber("sys_seconds");
    s.resource.max_rss_kb = res->memberUint("max_rss_kb");
  }
  s.cache_disabled_reason = doc.memberString("cache_disabled_reason");
  *out = std::move(s);
  return true;
}

std::string SafeFlowStats::renderPrometheus() const {
  // Prometheus text exposition format, version 0.0.4. Metric names keep
  // the registry's dotted names with '.' mapped to '_' and a `safeflow_`
  // prefix; duration histograms export as summaries (quantile labels).
  const auto sanitize = [](const std::string& name) {
    std::string out = "safeflow_";
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
      out += ok ? c : '_';
    }
    return out;
  };
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    const std::string metric = sanitize(name) + "_total";
    out << "# TYPE " << metric << " counter\n"
        << metric << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string metric = sanitize(name);
    out << "# TYPE " << metric << " gauge\n"
        << metric << " " << jsonDouble(value) << "\n";
  }
  for (const auto& d : durations) {
    const std::string metric = sanitize(d.name) + "_seconds";
    out << "# TYPE " << metric << " summary\n"
        << metric << "{quantile=\"0.5\"} " << jsonDouble(d.p50_seconds)
        << "\n"
        << metric << "{quantile=\"0.9\"} " << jsonDouble(d.p90_seconds)
        << "\n"
        << metric << "{quantile=\"0.99\"} " << jsonDouble(d.p99_seconds)
        << "\n"
        << metric << "_sum " << jsonDouble(d.total_seconds) << "\n"
        << metric << "_count " << d.count << "\n";
  }
  out << "# TYPE safeflow_process_user_seconds gauge\n"
      << "safeflow_process_user_seconds "
      << jsonDouble(resource.user_seconds) << "\n"
      << "# TYPE safeflow_process_sys_seconds gauge\n"
      << "safeflow_process_sys_seconds " << jsonDouble(resource.sys_seconds)
      << "\n"
      << "# TYPE safeflow_process_max_rss_kb gauge\n"
      << "safeflow_process_max_rss_kb " << resource.max_rss_kb << "\n";
  for (const auto& s : shards) {
    out << "# TYPE safeflow_worker_wall_seconds gauge\n"
        << "safeflow_worker_wall_seconds " << jsonDouble(s.wall_seconds)
        << "\n"
        << "# TYPE safeflow_worker_max_rss_kb gauge\n"
        << "safeflow_worker_max_rss_kb " << s.max_rss_kb << "\n";
  }
  return out.str();
}

}  // namespace safeflow
