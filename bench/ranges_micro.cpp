// Overhead and precision of the value-range pass: runs the in-process
// pipeline over the checked-in corpus systems with and without
// --no-ranges (best-of-N wall time each), and emits BENCH_ranges.json with
// the overhead ratio plus the precision counters the pass is paid in
// (A2 discharges, pruned control/phi edges, shm-bounds-const findings).
// Exits non-zero when the run is invalid: the pass degraded, produced no
// precision win on the rangelab system, or cost more than the 10%
// overhead budget. CI runs this and archives the JSON.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "safeflow/driver.h"
#include "support/metrics.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

struct System {
  const char* name;
  std::vector<std::string> files;
};

std::vector<System> corpusSystems() {
  return {
      {"ip",
       {kCorpus + "/ip/core/comm.c", kCorpus + "/ip/core/decision.c",
        kCorpus + "/ip/core/filter.c", kCorpus + "/ip/core/main.c",
        kCorpus + "/ip/core/safety.c", kCorpus + "/ip/core/selftest.c",
        kCorpus + "/ip/core/telemetry.c"}},
      {"rangelab",
       {kCorpus + "/rangelab/core/comm.c", kCorpus + "/rangelab/core/filter.c",
        kCorpus + "/rangelab/core/main.c"}},
  };
}

struct RunResult {
  double seconds = 0.0;
  bool degraded = false;
  std::uint64_t a2_discharged = 0;
  std::uint64_t bounds_seeded = 0;
  std::uint64_t control_pruned = 0;
  std::uint64_t phi_pruned = 0;
  std::uint64_t shm_bounds_const = 0;
};

RunResult runOnce(const std::vector<std::string>& files, bool ranges) {
  SafeFlowOptions o;
  o.ranges.enabled = ranges;
  SafeFlowDriver d(o);
  const auto start = std::chrono::steady_clock::now();
  for (const auto& f : files) {
    if (!d.addFile(f)) {
      std::cerr << "ranges_micro: cannot read " << f << "\n";
      std::exit(1);
    }
  }
  d.analyze();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.degraded = d.degraded();
  const support::MetricsRegistry& m = d.metrics();
  r.a2_discharged = m.counterValue("ranges.a2_discharged");
  r.bounds_seeded = m.counterValue("ranges.bounds_seeded");
  r.control_pruned = m.counterValue("ranges.control_edges_pruned");
  r.phi_pruned = m.counterValue("ranges.phi_edges_pruned");
  r.shm_bounds_const = m.counterValue("ranges.shm_bounds_const.violations");
  return r;
}

RunResult bestOf(const std::vector<std::string>& files, bool ranges,
                 int reps) {
  RunResult best = runOnce(files, ranges);
  for (int i = 1; i < reps; ++i) {
    RunResult again = runOnce(files, ranges);
    if (again.seconds < best.seconds) {
      again.degraded = again.degraded || best.degraded;
      best = again;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_ranges.json";
  constexpr int kReps = 5;
  constexpr double kOverheadBudget = 1.10;

  double off_total = 0.0;
  double on_total = 0.0;
  RunResult precision;  // summed over systems, from the ranges-on runs
  bool degraded = false;

  std::vector<std::string> per_system;
  for (const System& sys : corpusSystems()) {
    const RunResult off = bestOf(sys.files, /*ranges=*/false, kReps);
    const RunResult on = bestOf(sys.files, /*ranges=*/true, kReps);
    off_total += off.seconds;
    on_total += on.seconds;
    degraded = degraded || off.degraded || on.degraded;
    precision.a2_discharged += on.a2_discharged;
    precision.bounds_seeded += on.bounds_seeded;
    precision.control_pruned += on.control_pruned;
    precision.phi_pruned += on.phi_pruned;
    precision.shm_bounds_const += on.shm_bounds_const;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"system\": \"%s\", \"off_seconds\": %g, "
                  "\"on_seconds\": %g, \"a2_discharged\": %llu}",
                  sys.name, off.seconds, on.seconds,
                  static_cast<unsigned long long>(on.a2_discharged));
    per_system.push_back(buf);
  }

  const double ratio = off_total > 0.0 ? on_total / off_total : 0.0;
  bool ok = true;
  if (degraded) {
    std::cerr << "ranges_micro: a corpus run degraded; timings are bogus\n";
    ok = false;
  }
  if (precision.a2_discharged == 0 || precision.control_pruned == 0) {
    std::cerr << "ranges_micro: no precision win on the corpus "
              << "(a2_discharged=" << precision.a2_discharged
              << ", control_edges_pruned=" << precision.control_pruned
              << ") - the pass is not earning its keep\n";
    ok = false;
  }
  if (ratio > kOverheadBudget) {
    std::cerr << "ranges_micro: overhead ratio " << ratio
              << " exceeds budget " << kOverheadBudget << "\n";
    ok = false;
  }

  std::ofstream out(out_path, std::ios::trunc);
  out << "{\n"
      << "  \"bench\": \"ranges_micro\",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"off_seconds\": " << off_total << ",\n"
      << "  \"on_seconds\": " << on_total << ",\n"
      << "  \"overhead_ratio\": " << ratio << ",\n"
      << "  \"overhead_budget\": " << kOverheadBudget << ",\n"
      << "  \"a2_discharged\": " << precision.a2_discharged << ",\n"
      << "  \"bounds_seeded\": " << precision.bounds_seeded << ",\n"
      << "  \"control_edges_pruned\": " << precision.control_pruned << ",\n"
      << "  \"phi_edges_pruned\": " << precision.phi_pruned << ",\n"
      << "  \"shm_bounds_const\": " << precision.shm_bounds_const << ",\n"
      << "  \"systems\": [\n";
  for (std::size_t i = 0; i < per_system.size(); ++i) {
    out << per_system[i] << (i + 1 < per_system.size() ? ",\n" : "\n");
  }
  out << "  ],\n"
      << "  \"valid\": " << (ok ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::printf(
      "ranges_micro: off %.3fs, on %.3fs, ratio %.3f, "
      "a2_discharged %llu, control_pruned %llu, shm_bounds_const %llu\n",
      off_total, on_total, ratio,
      static_cast<unsigned long long>(precision.a2_discharged),
      static_cast<unsigned long long>(precision.control_pruned),
      static_cast<unsigned long long>(precision.shm_bounds_const));
  return ok ? 0 : 1;
}
