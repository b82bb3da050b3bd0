// The traced run: SafeFlow's pipeline driven through each layer's public
// entry points in SafeFlowDriver::analyze()'s order, with a span kept in
// memory around every call. Spans are the benchmark's own; the program
// is not changed to record them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "safeflow/driver.h"

namespace verdictbench {

struct Span {
  std::string layer;  // "cfront", "ir.ssa", "analysis.taint", ...
  std::string call;   // the public entry point the span wraps
  double start_s = 0.0;
  double end_s = -1.0;
  std::ptrdiff_t parent = -1;  // index of the enclosing span
  std::uint64_t op = 0;        // operation the span belongs to
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  std::size_t begin(std::string layer, std::string call, std::uint64_t op);
  void end(std::size_t id);

  /// Self time (duration minus the part its child spans cover) summed
  /// per layer over the spans of operation `op`.
  [[nodiscard]] std::map<std::string, double> selfTimeByLayer(
      std::uint64_t op) const;
  /// Chrome trace-event JSON of every span.
  [[nodiscard]] std::string toChromeJson() const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

struct TracedAnalysis {
  std::string report;  // SafeFlowReport::render() text
  std::size_t warnings = 0;
  std::size_t data_errors = 0;
  std::size_t control_only = 0;
  std::size_t restriction_violations = 0;
  bool clean = false;  // no front-end errors and no degraded phase
  std::size_t functions = 0;
  /// Every counter the pipeline reported, by name.
  std::map<std::string, std::uint64_t> counters;
};

/// Analyzes `files` as SafeFlowDriver would with `options`, one span per
/// entry point, all tagged with `op`.
[[nodiscard]] TracedAnalysis tracedAnalyze(
    const safeflow::SafeFlowOptions& options,
    const std::vector<std::string>& files, Tracer& tracer, std::uint64_t op);

}  // namespace verdictbench
