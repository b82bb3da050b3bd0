#include "traced.h"

#include <cstdio>
#include <optional>
#include <sstream>

#include "analysis/alias.h"
#include "analysis/ranges.h"
#include "analysis/restrictions.h"
#include "analysis/shm_propagation.h"
#include "analysis/shm_regions.h"
#include "analysis/taint.h"
#include "cfront/frontend.h"
#include "ir/callgraph.h"
#include "ir/lowering.h"
#include "ir/ssa.h"
#include "support/limits.h"
#include "support/metrics.h"

namespace verdictbench {

std::size_t Tracer::begin(std::string layer, std::string call,
                          std::uint64_t op) {
  Span s;
  s.layer = std::move(layer);
  s.call = std::move(call);
  s.op = op;
  s.parent = open_.empty() ? -1 : static_cast<std::ptrdiff_t>(open_.back());
  s.start_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  spans_[id].end_s =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, double> Tracer::selfTimeByLayer(std::uint64_t op) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op != op || s.end_s < 0.0) continue;
    self[i] += s.end_s - s.start_s;
    // Spans nest strictly, so a child's whole interval lies inside its
    // parent's: subtract it once.
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op == op && spans_[i].end_s >= 0.0) {
      by_layer[spans_[i].layer] += self[i];
    }
  }
  return by_layer;
}

std::string Tracer::toChromeJson() const {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                  s.start_s * 1e6,
                  (s.end_s < 0.0 ? 0.0 : s.end_s - s.start_s) * 1e6);
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.layer << " "
        << s.call << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buf
        << ", \"args\": {\"op\": " << s.op << ", \"span\": " << i
        << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

namespace {

/// Runs `fn` inside a span.
template <typename Fn>
decltype(auto) traced(Tracer& tracer, const char* layer, const char* call,
                      std::uint64_t op, Fn&& fn) {
  struct Closer {
    Tracer& t;
    std::size_t id;
    ~Closer() { t.end(id); }
  } closer{tracer, tracer.begin(layer, call, op)};
  return fn();
}

}  // namespace

TracedAnalysis tracedAnalyze(const safeflow::SafeFlowOptions& options,
                             const std::vector<std::string>& files,
                             Tracer& tracer, std::uint64_t op) {
  using namespace safeflow;
  TracedAnalysis out;
  const std::size_t root = tracer.begin("pipeline", "analyze", op);
  {
    // Spans wrap the entry points only. Constructing and destroying the
    // passes falls to the root span's self time, as it falls outside
    // every phase timer in SafeFlowDriver.
    //
    // SafeFlowDriver reports into its own registry; so does this run, so both
    // pay the same instrumentation cost and the counters can be compared.
    support::MetricsRegistry metrics;
    support::PipelineObserver observer;
    observer.metrics = &metrics;
    const support::ScopedObserver install(&observer);

    support::AnalysisBudget budget(options.budget);
    budget.start();
    cfront::Frontend frontend(options.include_dirs);
    for (const auto& [name, value] : options.defines) {
      frontend.predefine(name, value);
    }
    bool frontend_errors = false;
    std::vector<std::string> failed_files;
    for (const std::string& path : files) {
      if (!traced(tracer, "cfront", "Frontend::parseFile", op,
                  [&] { return frontend.parseFile(path); })) {
        frontend_errors = true;
        failed_files.push_back(path);
      }
    }
    support::DiagnosticEngine& diags = frontend.diagnostics();

    ir::Module module(frontend.types());
    ir::Lowering lowering(frontend.unit(), module, diags);
    if (!traced(tracer, "ir.lower", "Lowering::run", op,
                [&] { return lowering.run(); })) {
      frontend_errors = true;
    }
    traced(tracer, "ir.ssa", "promoteModuleToSsa", op,
           [&] { return ir::promoteModuleToSsa(module); });
    out.functions = module.functions().size();

    const analysis::ShmRegionTable regions =
        traced(tracer, "analysis.other", "ShmRegionTable::build", op,
               [&] { return analysis::ShmRegionTable::build(module, diags); });
    std::optional<ir::CallGraph> callgraph;
    traced(tracer, "ir.callgraph", "CallGraph", op,
           [&] { callgraph.emplace(module); });

    analysis::SafeFlowReport report;
    analysis::RangeAnalysis ranges(module, *callgraph, options.ranges,
                                   &budget);
    if (options.ranges.enabled) {
      traced(tracer, "analysis.ranges", "RangeAnalysis::run", op,
             [&] { ranges.run(); });
    }
    analysis::ShmPointerAnalysis shm(module, regions, *callgraph, &budget);
    traced(tracer, "analysis.other", "ShmPointerAnalysis::run", op,
           [&] { shm.run(); });
    analysis::RestrictionChecker restrictions(
        module, regions, shm, options.restrictions, &budget, &ranges);
    report.restriction_violations =
        traced(tracer, "analysis.other", "RestrictionChecker::run", op,
               [&] { return restrictions.run(diags); });
    analysis::AliasAnalysis alias(module, regions, *callgraph, options.alias,
                                  &budget);
    traced(tracer, "analysis.pointsto", "AliasAnalysis::run", op,
           [&] { alias.run(); });
    if (options.ranges.enabled) {
      traced(tracer, "analysis.other", "checkShmConstBounds", op, [&] {
        return analysis::checkShmConstBounds(module, regions, shm, alias,
                                             ranges, report, diags);
      });
    }
    analysis::TaintAnalysis taint(module, regions, shm, alias, *callgraph,
                                  options.taint, &budget, &ranges);
    traced(tracer, "analysis.taint", "TaintAnalysis::run", op,
           [&] { taint.run(report); });
    out.report =
        traced(tracer, "analysis.other", "deduplicate+render", op, [&] {
          report.deduplicate(frontend.sources());
          report.failed_files = failed_files;
          for (const support::BudgetEvent& e : budget.events()) {
            report.degraded_phases.push_back(e.phase);
          }
          return report.render(frontend.sources());
        });

    out.warnings = report.warnings.size();
    out.data_errors = report.dataErrorCount();
    out.control_only = report.controlErrorCount();
    out.restriction_violations = report.restriction_violations.size();
    out.clean = !frontend_errors && !budget.anyDegraded();
    for (const auto& [name, value] : metrics.snapshot().counters) {
      out.counters[name] = value;
    }
  }
  tracer.end(root);
  return out;
}

}  // namespace verdictbench
