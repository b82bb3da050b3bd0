// Overhead of the telemetry layer (DESIGN.md §13): runs the in-process
// pipeline over a synthetic module with telemetry off (no span
// collection — the default) and with full telemetry (span collection
// on), best-of-N wall time each from N interleaved off/on pairs, and
// micro-times the always-on primitives (flightRecord, a below-threshold
// SAFEFLOW_LOG). Emits BENCH_telemetry.json; exits non-zero when the run
// is invalid: full telemetry costs more than the 5% overhead budget, or
// an always-on primitive stops being cheap enough to be always-on. CI
// runs this and archives the JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "bench/synthetic.h"
#include "safeflow/driver.h"
#include "support/flight_recorder.h"
#include "support/log.h"

namespace {

using namespace safeflow;

double runOnce(const std::string& program, bool telemetry) {
  SafeFlowOptions o;
  o.collect_trace = telemetry;
  SafeFlowDriver d(o);
  const auto start = std::chrono::steady_clock::now();
  if (!d.addSource("synthetic.c", program)) {
    std::cerr << "telemetry_micro: synthetic module failed to parse\n";
    std::exit(1);
  }
  d.analyze();
  const auto end = std::chrono::steady_clock::now();
  if (telemetry && d.trace() == nullptr) {
    std::cerr << "telemetry_micro: trace collection did not engage\n";
    std::exit(1);
  }
  return std::chrono::duration<double>(end - start).count();
}

/// Best-of-`reps` wall time with telemetry off and on. The samples come
/// in off/on pairs, and every other pair runs "on" first, so drift in the
/// machine's speed and the order of the runs fall on both sides alike.
std::pair<double, double> bestOfPairs(const std::string& program, int reps) {
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (int i = 0; i < reps; ++i) {
    for (const bool telemetry : {i % 2 != 0, i % 2 == 0}) {
      best[telemetry] = std::min(best[telemetry], runOnce(program, telemetry));
    }
  }
  return {best[0], best[1]};
}

/// ns per call over `iters` iterations of `fn`.
template <typename Fn>
double nsPerCall(int iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         iters;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_telemetry.json";
  constexpr int kReps = 7;
  constexpr double kOverheadBudget = 1.05;  // full telemetry: <5%
  constexpr double kFlightRecordBudgetNs = 2000.0;
  constexpr double kDisabledLogBudgetNs = 200.0;

  // Big enough that a 5% overhead is measurable above scheduler noise.
  const std::string program = bench::scalingProgram(400);

  const auto [off_seconds, on_seconds] = bestOfPairs(program, kReps);
  const double ratio = off_seconds > 0.0 ? on_seconds / off_seconds : 0.0;

  // The always-on primitives: the flight-recorder append (runs on every
  // phase entry / cache decision / diagnostic, handler or not) and a
  // SAFEFLOW_LOG below the configured threshold (the macro's guard must
  // make disabled logging nearly free).
  const double flight_record_ns = nsPerCall(
      200000, [] { support::flightRecord("bench", "overhead probe"); });
  support::flightRecorderReset();
  support::Logger::instance().configure(support::LogLevel::kError,
                                        /*json=*/false, "");
  const double disabled_log_ns = nsPerCall(200000, [] {
    SAFEFLOW_LOG(support::LogLevel::kDebug, "bench", "never emitted",
                 {{"k", "v"}});
  });

  bool ok = true;
  if (ratio > kOverheadBudget) {
    std::cerr << "telemetry_micro: full-telemetry ratio " << ratio
              << " exceeds budget " << kOverheadBudget << "\n";
    ok = false;
  }
  if (flight_record_ns > kFlightRecordBudgetNs) {
    std::cerr << "telemetry_micro: flightRecord costs " << flight_record_ns
              << " ns/event; too expensive to stay always-on\n";
    ok = false;
  }
  if (disabled_log_ns > kDisabledLogBudgetNs) {
    std::cerr << "telemetry_micro: a disabled SAFEFLOW_LOG costs "
              << disabled_log_ns << " ns/call; the guard is broken\n";
    ok = false;
  }

  std::ofstream out(out_path, std::ios::trunc);
  out << "{\n"
      << "  \"bench\": \"telemetry_micro\",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"off_seconds\": " << off_seconds << ",\n"
      << "  \"on_seconds\": " << on_seconds << ",\n"
      << "  \"overhead_ratio\": " << ratio << ",\n"
      << "  \"overhead_budget\": " << kOverheadBudget << ",\n"
      << "  \"flight_record_ns\": " << flight_record_ns << ",\n"
      << "  \"flight_record_budget_ns\": " << kFlightRecordBudgetNs << ",\n"
      << "  \"disabled_log_ns\": " << disabled_log_ns << ",\n"
      << "  \"disabled_log_budget_ns\": " << kDisabledLogBudgetNs << ",\n"
      << "  \"valid\": " << (ok ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::printf(
      "telemetry_micro: off %.3fs, on %.3fs, ratio %.3f, "
      "flightRecord %.0f ns, disabled log %.1f ns\n",
      off_seconds, on_seconds, ratio, flight_record_ns, disabled_log_ns);
  return ok ? 0 : 1;
}
