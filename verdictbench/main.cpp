// verdictbench: time to a verdict through SafeFlow's three entry points
// (in-process SafeFlowDriver, one-shot `safeflow`, resident `safeflowd`)
// on one workload, every verdict checked against an answer SafeFlow did
// not produce. See README.md.
//
//   verdictbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --bin <dir holding safeflow and safeflowd>
//                --corpus <corpus dir> --work <scratch dir>
//                [--trace-out <chrome trace file>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// from a separate traced run. The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "process.h"
#include "safeflow/driver.h"
#include "safeflow/summary_store.h"
#include "support/json.h"
#include "traced.h"
#include "workload.h"

namespace verdictbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Longest any single child, request or daemon start may take.
constexpr double kOpTimeoutS = 120.0;

/// The program counters the benchmark records from every in-process
/// operation; they must repeat exactly.
constexpr const char* kWorkCounters[] = {
    "frontend.tokens", "ssa.phis_inserted", "ranges.function_analyses",
    "pointsto.worklist_iterations", "taint.body_analyses",
    "pointsto.constraints"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string bin;
  std::string corpus;
  std::string work;
  std::string trace_out;
};

bool parseArgs(int argc, char** argv, Args* a) {
  std::set<std::string> seen;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    seen.insert(key);
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || a->seconds <= 0.0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (key == "--bin") {
      a->bin = value;
    } else if (key == "--corpus") {
      a->corpus = value;
    } else if (key == "--work") {
      a->work = value;
    } else if (key == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace",
                               "--bin", "--corpus", "--work"}) {
    if (seen.count(required) == 0) return false;
  }
  return argc % 2 == 1;
}

// -- Statistics ----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Median of `samples`, with its count (and p90 when there are at least
/// 100 samples) logged on stderr.
Metric summarize(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples) {
  std::fprintf(stderr, "  %-44s %14.6g %-6s n=%zu", name.c_str(),
               median(samples), unit.c_str(), samples.size());
  if (samples.size() >= 2) {
    std::fprintf(stderr, "  q1 %.6g  q3 %.6g", quantile(samples, 0.25),
                 quantile(samples, 0.75));
  }
  if (samples.size() >= 100) {
    std::fprintf(stderr, "  p90 %.6g", quantile(samples, 0.9));
  }
  std::fprintf(stderr, "\n");
  return {name, unit, median(samples)};
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.12g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           num + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

// -- Verdicts ------------------------------------------------------------

/// Reads the counts from a rendered text report.
bool parseVerdict(const std::string& text, Verdict* v) {
  const auto line = [&text](const char* prefix) -> const char* {
    const std::size_t at = text.find(prefix);
    return at == std::string::npos ? nullptr : text.c_str() + at;
  };
  const char* warnings = line("warnings (unmonitored non-core accesses): ");
  const char* errors = line("error dependencies: ");
  const char* violations = line("restriction violations: ");
  std::size_t total = 0;
  return warnings != nullptr && errors != nullptr && violations != nullptr &&
         std::sscanf(warnings, "warnings (unmonitored non-core accesses): %zu",
                     &v->warnings) == 1 &&
         std::sscanf(errors, "error dependencies: %zu (%zu data, %zu",
                     &total, &v->data_errors, &v->control_only) == 3 &&
         total == v->data_errors + v->control_only &&
         std::sscanf(violations, "restriction violations: %zu",
                     &v->restriction_violations) == 1;
}

int expectedExitCode(const Verdict& v) { return v.data_errors > 0 ? 1 : 0; }

// -- The three entry points ----------------------------------------------

safeflow::SafeFlowOptions optionsFor(const Workload& w, const Program& p) {
  safeflow::SafeFlowOptions o;
  o.include_dirs = p.include_dirs;
  if (w.kill_critical) o.taint.implicit_critical_calls.emplace_back("kill", 0u);
  return o;
}

std::vector<std::string> analysisFlags(const Workload& w, const Program& p) {
  std::vector<std::string> flags;
  if (w.kill_critical) flags.push_back("--kill-critical");
  for (const std::string& dir : p.include_dirs) {
    flags.push_back("-I");
    flags.push_back(dir);
  }
  return flags;
}

using Counters = std::map<std::string, std::uint64_t>;

struct Sample {
  bool ok = true;
  std::string failure;
  double seconds = 0.0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t workers_spawned = 0;
  std::uint64_t cache_hits = 0;
  Counters counters;              // in-process only
  std::vector<std::string> reports;  // in-process only
};

void fail(Sample* s, const std::string& why) {
  if (s->ok) s->failure = why;
  s->ok = false;
}

void checkVerdict(Sample* s, const Program& p, const Verdict& got,
                  const char* path) {
  if (!(got == p.expected)) {
    fail(s, std::string(path) + " " + p.name + ": got " + got.describe() +
                "; expected " + p.expected.describe());
  }
}

void addCounters(const std::vector<std::pair<std::string, std::uint64_t>>& all,
                 Counters* into) {
  for (const char* name : kWorkCounters) {
    for (const auto& [n, v] : all) {
      if (n == name) (*into)[n] += v;
    }
  }
}

/// SafeFlowDriver with the workload's options: construct, addFile each
/// input, analyze(), render(). With `stores`, each program runs against
/// its resident summary store.
Sample runInProcess(const Workload& w,
                    std::vector<std::unique_ptr<safeflow::SummaryStore>>* stores) {
  Sample s;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < w.programs.size(); ++i) {
    const Program& p = w.programs[i];
    safeflow::SafeFlowOptions options = optionsFor(w, p);
    if (stores != nullptr) options.summaries.enabled = true;
    safeflow::SafeFlowDriver driver(options);
    if (stores != nullptr) driver.setSummaryStore((*stores)[i].get());
    for (const std::string& f : p.files) driver.addFile(f);
    const auto& report = driver.analyze();
    s.reports.push_back(report.render(driver.sources()));
    if (driver.hasFrontendErrors() || driver.degraded()) {
      fail(&s, "in-process " + p.name + ": front-end errors or degraded");
    }
    checkVerdict(&s, p,
                 {report.warnings.size(), report.dataErrorCount(),
                  report.controlErrorCount(),
                  report.restriction_violations.size()},
                 "in-process");
    addCounters(driver.stats().counters, &s.counters);
  }
  s.seconds = since(t0);
  return s;
}

/// `safeflow` with default flags (in-process in the child, no cache),
/// timed from spawn to exit.
Sample runOneShot(const Workload& w, const std::string& exe,
                  Spawner& spawner) {
  Sample s;
  for (const Program& p : w.programs) {
    std::vector<std::string> argv = {exe};
    for (const std::string& f : analysisFlags(w, p)) argv.push_back(f);
    for (const std::string& f : p.files) argv.push_back(f);
    const ChildRun run = spawner.run(argv, kOpTimeoutS);
    s.seconds += run.seconds;
    s.max_rss_kb = std::max(s.max_rss_kb, run.max_rss_kb);
    Verdict got;
    if (run.timed_out) {
      fail(&s, "one-shot " + p.name + ": timed out");
    } else if (!run.exited || run.exit_code != expectedExitCode(p.expected)) {
      fail(&s, "one-shot " + p.name + ": exit code " +
                   std::to_string(run.exit_code) + ", expected " +
                   std::to_string(expectedExitCode(p.expected)));
    } else if (!parseVerdict(run.out, &got)) {
      fail(&s, "one-shot " + p.name + ": unreadable report");
    } else {
      checkVerdict(&s, p, got, "one-shot");
    }
  }
  return s;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string analyzeRequest(const std::vector<std::string>& files,
                           const std::vector<std::string>& flags) {
  std::string r = "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [";
  for (std::size_t i = 0; i < files.size(); ++i) {
    r += (i == 0 ? "" : ", ") + jsonString(files[i]);
  }
  r += "], \"flags\": [";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    r += (i == 0 ? "" : ", ") + jsonString(flags[i]);
  }
  return r + "], \"deadline_ms\": " +
         std::to_string(static_cast<int>(kOpTimeoutS * 1000)) + "}";
}

/// One analyze request per program, each over its whole-program file:
/// connect, send, read the full response.
Sample runDaemon(const Workload& w, const std::string& socket,
                 bool multi_file = false) {
  Sample s;
  for (const Program& p : w.programs) {
    const std::vector<std::string> files =
        multi_file ? p.files : std::vector<std::string>{p.whole_file};
    const std::string request = analyzeRequest(files, analysisFlags(w, p));
    std::string response, error;
    const Clock::time_point t0 = Clock::now();
    const bool exchanged =
        daemonExchange(socket, request, kOpTimeoutS, &response, &error);
    s.seconds += since(t0);
    safeflow::support::json::Value doc;
    Verdict got;
    if (!exchanged) {
      fail(&s, "daemon " + p.name + ": " + error);
    } else if (!safeflow::support::json::parse(response, &doc) ||
               doc.memberString("status") != "ok") {
      fail(&s, "daemon " + p.name + ": response " + response.substr(0, 200));
    } else if (doc.memberUint("exit_code", 99) !=
                   static_cast<std::uint64_t>(expectedExitCode(p.expected)) ||
               doc.memberUint("worker_failures", 1) != 0) {
      fail(&s, "daemon " + p.name + ": exit code " +
                   std::to_string(doc.memberUint("exit_code", 99)) +
                   ", worker failures " +
                   std::to_string(doc.memberUint("worker_failures", 1)));
    } else if (!parseVerdict(doc.memberString("stdout"), &got)) {
      fail(&s, "daemon " + p.name + ": unreadable report");
    } else {
      checkVerdict(&s, p, got, "daemon");
    }
    s.workers_spawned += doc.memberUint("workers_spawned", 0);
    s.cache_hits += doc.memberUint("cache_hits", 0);
  }
  return s;
}

// -- Contention correction -----------------------------------------------
//
// The cores of the 4-core box this benchmark was tuned on share their SMT
// siblings with other tenants. While a sibling is busy, SafeFlow runs
// about 1.4x slower, in phases that last seconds: block medians of Table 1
// analyses flip between about 17.5 and 25 ms, so the median of a 20-second
// run depends on how much of it fell into busy phases. A fixed high-IPC
// loop slows down by the same factor in the same phases (a DRAM-bound
// pointer chase does not), so each timed sample is divided by that probe's
// time measured right before and after it, and multiplied by the probe's
// time with an idle sibling: seconds as they read on a quiet box. The raw
// medians are logged beside the corrected ones.

constexpr int kProbeRounds = 40000;

/// The probe's time with an idle sibling on the reference box.
constexpr double kProbeNominalS = 116e-6;

volatile std::uint64_t g_probe_sink = 0;

/// Fastest of three repetitions of four independent xorshift64 streams.
double probeSeconds() {
  double best = 1e30;
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  const auto step = [](std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  };
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kProbeRounds; ++i) {
      step(a);
      step(b);
      step(c);
      step(d);
    }
    best = std::min(best, since(t0));
  }
  g_probe_sink = a ^ b ^ c ^ d;
  return best;
}

/// Timed samples of one metric, raw and contention-corrected.
struct Timings {
  std::vector<double> raw;
  std::vector<double> corrected;
  std::vector<double> probes;

  void add(double seconds, double probe) {
    raw.push_back(seconds);
    corrected.push_back(seconds * kProbeNominalS / probe);
    probes.push_back(probe);
  }
};

/// Runs `op` between two probes; returns the op's result and sets
/// `*probe` to the mean of the two probe times.
template <typename Op>
auto probed(double* probe, Op&& op) {
  const double before = probeSeconds();
  auto result = op();
  *probe = 0.5 * (before + probeSeconds());
  return result;
}

Metric summarizeTimings(const std::string& name, const Timings& t) {
  std::fprintf(stderr, "  %-44s raw median %.6g s, probe median %.4g us\n",
               (name + " (raw)").c_str(), median(t.raw),
               median(t.probes) * 1e6);
  return summarize(name, "s", t.corrected);
}

void pinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Every regular file under `dir`.
std::set<std::string> listFiles(const std::string& dir) {
  std::set<std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.insert(e.path().string());
  }
  return files;
}

// -- Runs ----------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void problem(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
  /// Counts one operation; true when it passed.
  bool count(const Sample& s) {
    ++attempted;
    if (s.ok) return true;
    ++failed;
    problem(s.failure);
    return false;
  }
};

/// Checks that every in-process operation reports the same work counts.
void checkCounters(const Counters& got, Counters* first, Tally* t) {
  if (first->empty()) {
    *first = got;
  } else if (got != *first) {
    t->problem("program work counters differ between operations");
  }
}

enum Path { kInProcess, kOneShot, kDaemon };

/// Path order per round: all six orders in turn, so no path always runs
/// first or always follows the same neighbour.
constexpr Path kOrders[6][3] = {
    {kInProcess, kOneShot, kDaemon}, {kDaemon, kOneShot, kInProcess},
    {kOneShot, kDaemon, kInProcess}, {kInProcess, kDaemon, kOneShot},
    {kDaemon, kInProcess, kOneShot}, {kOneShot, kInProcess, kDaemon}};

struct Bench {
  Args args;
  Workload workload;
  std::string safeflow_exe;
  std::string safeflowd_exe;
  Spawner spawner;
  DaemonProcess daemon;
  /// The daemon's cache directory as the priming request left it.
  std::set<std::string> primed_files;
  Tally tally;
  std::unique_ptr<EditSequence> edits;

  bool startResident() {
    double ready = 0.0;
    std::string error;
    if (!daemon.start(safeflowd_exe, "sfd.sock", "cache", kOpTimeoutS, &ready,
                      &error)) {
      tally.problem(error);
      return false;
    }
    // The priming request fills the cache with the unedited inputs.
    Sample prime = runDaemon(workload, daemon.socket());
    if (!prime.ok) tally.problem("priming: " + prime.failure);
    primed_files = listFiles("cache");
    return prime.ok;
  }

  /// Removes what the daemon stored since priming. Every request then
  /// meets the cache as priming left it, not one that grows with the
  /// number of rounds: each worker's summary store verifies every entry
  /// at start-up, so a growing cache slows every later request.
  void restoreCache() {
    std::vector<std::string> added;
    for (const std::string& f : listFiles("cache")) {
      if (primed_files.count(f) == 0) added.push_back(f);
    }
    for (const std::string& f : added) fs::remove(f);
  }

  std::vector<Metric> timedRun();
  std::vector<Metric> tracedRun();
};

std::vector<Metric> Bench::timedRun() {
  if (!startResident()) return {};
  // setup_s starts daemons over a copy of the cache as priming left it.
  fs::copy("cache", "cache-primed", fs::copy_options::recursive);
  Counters first_counters;
  {
    // Warm-up, not timed: page cache, allocator, first spawns.
    const Sample a = runInProcess(workload, nullptr);
    if (!tally.count(a)) return {};
    checkCounters(a.counters, &first_counters, &tally);
    if (!tally.count(runOneShot(workload, safeflow_exe, spawner))) return {};
  }

  Timings analyze, oneshot, daemon_rtt, setup;
  std::vector<double> rss_mb;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_setup = Clock::now();
  const auto setupSample = [&] {
    DaemonProcess d;
    double ready = 0.0, probe = 0.0;
    std::string error;
    if (probed(&probe, [&] {
          return d.start(safeflowd_exe, "setup.sock", "cache-primed",
                         kOpTimeoutS, &ready, &error);
        })) {
      setup.add(ready, probe);
    } else {
      tally.problem("setup daemon: " + error);
    }
    d.kill();
    last_setup = Clock::now();
  };

  Edit previous{};
  for (std::uint64_t round = 1; since(start) < args.seconds; ++round) {
    const Edit edit = edits->next();
    rewriteInputs(workload, round == 1 ? nullptr : &previous, &edit);
    previous = edit;
    for (const Path path : kOrders[round % 6]) {
      double probe = 0.0;
      if (path == kInProcess) {
        const Sample s =
            probed(&probe, [&] { return runInProcess(workload, nullptr); });
        if (tally.count(s)) analyze.add(s.seconds, probe);
        checkCounters(s.counters, &first_counters, &tally);
      } else if (path == kOneShot) {
        const Sample s = probed(
            &probe, [&] { return runOneShot(workload, safeflow_exe, spawner); });
        if (tally.count(s)) {
          oneshot.add(s.seconds, probe);
          rss_mb.push_back(static_cast<double>(s.max_rss_kb) / 1024.0);
        }
      } else {
        const Sample s =
            probed(&probe, [&] { return runDaemon(workload, daemon.socket()); });
        if (tally.count(s)) daemon_rtt.add(s.seconds, probe);
        restoreCache();
      }
      if (since(last_setup) >= 0.1) setupSample();
    }
  }
  daemon.shutdown();

  std::fprintf(stderr, "verdictbench %s seed %llu: timed run\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(args.seed));
  for (const auto& [name, value] : first_counters) {
    std::fprintf(stderr, "  counter %-36s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  std::vector<Metric> m;
  m.push_back(summarizeTimings("analyze_s", analyze));
  m.push_back(summarizeTimings("oneshot_s", oneshot));
  m.push_back(summarizeTimings("daemon_rtt_s", daemon_rtt));
  m.push_back(summarize("peak_rss_mb", "MB", rss_mb));
  m.push_back(summarizeTimings("setup_s", setup));
  m.push_back({"ok_frac", "ratio",
               tally.attempted == 0
                   ? 0.0
                   : static_cast<double>(tally.attempted - tally.failed) /
                         static_cast<double>(tally.attempted)});
  for (const Metric& x : m) {
    if (x.value <= 0.0) tally.problem("no passing samples for " + x.name);
  }
  return m;
}

std::vector<Metric> Bench::tracedRun() {
  if (!startResident()) return {};
  Tracer tracer;
  std::map<std::string, std::vector<double>> layer_s;
  std::map<std::string, std::vector<double>> per_op;
  Counters first_counters;
  Edit previous{};
  const Clock::time_point start = Clock::now();
  // The last quarter of the run belongs to the warm summary store.
  std::uint64_t round = 1;
  for (; since(start) < 0.75 * args.seconds; ++round) {
    const Edit edit = edits->next();
    rewriteInputs(workload, round == 1 ? nullptr : &previous, &edit);
    previous = edit;

    // Traced and untraced analyses of the same input, alternating which
    // goes first; the reports must be byte-identical.
    Sample untraced;
    Sample traced;
    const auto runTraced = [&] {
      const Clock::time_point t0 = Clock::now();
      for (const Program& p : workload.programs) {
        const TracedAnalysis a =
            tracedAnalyze(optionsFor(workload, p), p.files, tracer, round);
        traced.reports.push_back(a.report);
        if (!a.clean) fail(&traced, "traced " + p.name + ": not clean");
        checkVerdict(&traced, p,
                     {a.warnings, a.data_errors, a.control_only,
                      a.restriction_violations},
                     "traced");
        std::vector<std::pair<std::string, std::uint64_t>> all(
            a.counters.begin(), a.counters.end());
        addCounters(all, &traced.counters);
        traced.counters["functions"] += a.functions;
      }
      traced.seconds = since(t0);
    };
    // Every time below is contention-corrected like the timed run's.
    double traced_probe = 0.0, untraced_probe = 0.0;
    const auto tracedOp = [&] {
      probed(&traced_probe, [&] {
        runTraced();
        return 0;
      });
    };
    if (round % 2 == 0) tracedOp();
    untraced = probed(&untraced_probe,
                      [&] { return runInProcess(workload, nullptr); });
    if (round % 2 == 1) tracedOp();
    const double traced_factor = kProbeNominalS / traced_probe;
    const bool traced_ok = tally.count(traced);
    if (tally.count(untraced)) {
      per_op["untraced_s"].push_back(untraced.seconds * kProbeNominalS /
                                     untraced_probe);
    }
    if (traced.reports != untraced.reports) {
      tally.problem("traced report differs from SafeFlowDriver's");
    }
    Counters work = traced.counters;
    work.erase("functions");
    checkCounters(work, &first_counters, &tally);
    if (traced_ok) {
      per_op["total_s"].push_back(traced.seconds * traced_factor);
      const auto self = tracer.selfTimeByLayer(round);
      for (const char* layer :
           {"cfront", "ir.lower", "ir.ssa", "ir.callgraph", "analysis.ranges",
            "analysis.pointsto", "analysis.taint", "analysis.other"}) {
        const auto it = self.find(layer);
        layer_s[layer].push_back(
            (it == self.end() ? 0.0 : it->second) * traced_factor);
      }
      const auto count = [&](const char* name) {
        return static_cast<double>(traced.counters[name]);
      };
      const double functions = count("functions");
      per_op["tokens_per_s"].push_back(count("frontend.tokens") /
                                       layer_s["cfront"].back());
      per_op["ssa_us_per_function"].push_back(layer_s["ir.ssa"].back() * 1e6 /
                                              functions);
      per_op["ranges_analyses_per_function"].push_back(
          count("ranges.function_analyses") / functions);
      per_op["pointsto_iterations_per_constraint"].push_back(
          count("pointsto.worklist_iterations") /
          std::max(1.0, count("pointsto.constraints")));
      per_op["taint_ms_per_body"].push_back(
          layer_s["analysis.taint"].back() * 1e3 /
          std::max(1.0, count("taint.body_analyses")));
    }

    // The daemon on the edited input (the edited file misses the cache),
    // then the same request again (every file hits).
    const Sample edited = runDaemon(workload, daemon.socket());
    if (tally.count(edited)) {
      per_op["workers_spawned"].push_back(static_cast<double>(edited.workers_spawned));
      per_op["cache_hits"].push_back(static_cast<double>(edited.cache_hits));
    }
    double probe = 0.0;
    const Sample replay =
        probed(&probe, [&] { return runDaemon(workload, daemon.socket()); });
    if (tally.count(replay)) {
      per_op["cache_replay_s"].push_back(replay.seconds * kProbeNominalS /
                                         probe);
      if (replay.workers_spawned != 0) {
        tally.problem("unchanged daemon request spawned workers");
      }
    }
    restoreCache();

    const ChildRun version = probed(&probe, [&] {
      return spawner.run({safeflow_exe, "--version"}, kOpTimeoutS);
    });
    ++tally.attempted;
    if (version.exited && version.exit_code == 0) {
      per_op["startup_s"].push_back(version.seconds * kProbeNominalS / probe);
    } else {
      ++tally.failed;
      tally.problem("safeflow --version failed");
    }
  }

  // Resident summary stores, warmed on the unedited inputs, then timed on
  // further edits. They come last because the entries they keep slow
  // every later analysis in this process.
  std::vector<std::unique_ptr<safeflow::SummaryStore>> stores;
  for (std::size_t i = 0; i < workload.programs.size(); ++i) {
    stores.push_back(std::make_unique<safeflow::SummaryStore>(
        "", safeflow::kAnalyzerVersion));
  }
  rewriteInputs(workload, &previous, nullptr);
  bool warmed = tally.count(runInProcess(workload, &stores));
  for (int n = 0; warmed && (n < 3 || since(start) < args.seconds); ++n) {
    const Edit edit = edits->next();
    rewriteInputs(workload, n == 0 ? nullptr : &previous, &edit);
    previous = edit;
    const Sample cold = runInProcess(workload, nullptr);
    double probe = 0.0;
    const Sample warm =
        probed(&probe, [&] { return runInProcess(workload, &stores); });
    if (tally.count(warm)) {
      per_op["summary_warm_edit_s"].push_back(warm.seconds * kProbeNominalS /
                                              probe);
    }
    if (!tally.count(cold) || warm.reports != cold.reports) {
      tally.problem("warm-summary report differs from a cold analysis");
      warmed = false;
    }
  }

  // Whole programs as separate files through the daemon: per-file
  // sharding analyzes each file alone, so a multi-file program's verdict
  // differs from Table 1 (the count falls to 0 once shards hold the
  // whole program). Recorded, not counted as a failed operation.
  double sharded_mismatches = 0.0;
  for (const Program& p : workload.programs) {
    Workload one = workload;
    one.programs = {p};
    if (!runDaemon(one, daemon.socket(), /*multi_file=*/true).ok) {
      sharded_mismatches += 1.0;
    }
  }
  daemon.shutdown();

  if (!args.trace_out.empty()) {
    std::ofstream(args.trace_out, std::ios::trunc) << tracer.toChromeJson();
  }

  std::fprintf(stderr, "verdictbench %s seed %llu: traced run, %llu rounds\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(round - 1));
  std::string largest;
  double largest_s = -1.0;
  for (const auto& [layer, samples] : layer_s) {
    if (median(samples) > largest_s) {
      largest_s = median(samples);
      largest = layer;
    }
  }
  std::fprintf(stderr, "  largest self time: %s (%.1f%% of the traced total)\n",
               largest.c_str(), 100.0 * largest_s / median(per_op["total_s"]));

  const auto counter = [&](const char* name) {
    return std::vector<double>{static_cast<double>(first_counters[name])};
  };
  std::vector<Metric> m;
  m.push_back(summarize("cfront.parse_s", "s", layer_s["cfront"]));
  m.push_back(summarize("cfront.tokens", "count", counter("frontend.tokens")));
  m.push_back(summarize("cfront.tokens_per_s", "1/s", per_op["tokens_per_s"]));
  m.push_back(summarize("ir.lower_s", "s", layer_s["ir.lower"]));
  m.push_back(summarize("ir.ssa_s", "s", layer_s["ir.ssa"]));
  m.push_back(summarize("ir.ssa_us_per_function", "us",
                        per_op["ssa_us_per_function"]));
  m.push_back(summarize("ir.phis_inserted", "count", counter("ssa.phis_inserted")));
  m.push_back(summarize("ir.callgraph_s", "s", layer_s["ir.callgraph"]));
  m.push_back(summarize("analysis.ranges_s", "s", layer_s["analysis.ranges"]));
  m.push_back(summarize("analysis.ranges_function_analyses", "count",
                        counter("ranges.function_analyses")));
  m.push_back(summarize("analysis.ranges_analyses_per_function", "ratio",
                        per_op["ranges_analyses_per_function"]));
  m.push_back(summarize("analysis.pointsto_s", "s", layer_s["analysis.pointsto"]));
  m.push_back(summarize("analysis.pointsto_constraints", "count",
                        counter("pointsto.constraints")));
  m.push_back(summarize("analysis.pointsto_worklist_iterations", "count",
                        counter("pointsto.worklist_iterations")));
  m.push_back(summarize("analysis.pointsto_iterations_per_constraint", "ratio",
                        per_op["pointsto_iterations_per_constraint"]));
  m.push_back(summarize("analysis.taint_s", "s", layer_s["analysis.taint"]));
  m.push_back(summarize("analysis.taint_body_analyses", "count",
                        counter("taint.body_analyses")));
  m.push_back(summarize("analysis.taint_ms_per_body", "ms",
                        per_op["taint_ms_per_body"]));
  m.push_back(summarize("analysis.other_s", "s", layer_s["analysis.other"]));
  m.push_back(summarize("safeflow.startup_s", "s", per_op["startup_s"]));
  m.push_back(summarize("safeflow.workers_spawned", "count",
                        per_op["workers_spawned"]));
  m.push_back(summarize("safeflow.cache_hits", "count", per_op["cache_hits"]));
  m.push_back(summarize("safeflow.cache_replay_s", "s", per_op["cache_replay_s"]));
  m.push_back(summarize("safeflow.summary_warm_edit_s", "s",
                        per_op["summary_warm_edit_s"]));
  m.push_back(summarize("safeflow.sharded_verdict_mismatches", "count",
                        {sharded_mismatches}));
  m.push_back(summarize("trace.total_s", "s", per_op["total_s"]));
  m.push_back(summarize("trace.untraced_analyze_s", "s", per_op["untraced_s"]));
  m.push_back({"trace.overhead_s", "s",
               median(per_op["total_s"]) - median(per_op["untraced_s"])});
  std::fprintf(stderr, "  %-44s %14.6g s\n", "trace.overhead_s",
               m.back().value);
  return m;
}

int run(int argc, char** argv) {
  Bench b;
  if (!parseArgs(argc, argv, &b.args)) {
    std::cerr << "usage: verdictbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --bin <dir> --corpus <dir> "
                 "--work <dir> [--trace-out <file>]\n";
    return 2;
  }
  const fs::path bin = fs::absolute(b.args.bin);
  b.safeflow_exe = (bin / "safeflow").string();
  b.safeflowd_exe = (bin / "safeflowd").string();
  const std::string corpus = fs::absolute(b.args.corpus).string();
  if (!b.args.trace_out.empty()) {
    b.args.trace_out = fs::absolute(b.args.trace_out).string();
  }
  const fs::path work = fs::absolute(b.args.work);
  fs::remove_all(work);
  fs::create_directories(work);
  const fs::path home = fs::current_path();
  fs::current_path(work);
  // One core for the client and everything it starts, so the probe sees
  // the contention the timed work saw. Each request misses the cache for
  // at most one file, so the daemon never has two workers busy at once.
  pinToCurrentCpu();
  if (!b.spawner.start()) {
    std::cerr << "verdictbench: cannot fork the spawn helper\n";
    return 1;
  }

  std::vector<Metric> metrics;
  try {
    b.workload = makeWorkload(b.args.workload, b.args.seed, corpus);
    b.edits = std::make_unique<EditSequence>(b.args.seed, b.workload.sites.size());
    writeInputs(b.workload, nullptr);
    metrics = b.args.trace ? b.tracedRun() : b.timedRun();
  } catch (const std::exception& e) {
    b.tally.problem(std::string("error: ") + e.what());
  }
  b.daemon.shutdown();
  fs::current_path(home);
  fs::remove_all(work);

  for (const std::string& p : b.tally.problems) {
    std::fprintf(stderr, "verdictbench: %s\n", p.c_str());
  }
  if (metrics.empty()) return 1;
  printResult(b.tally.correct, b.tally.attempted, b.tally.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace verdictbench

int main(int argc, char** argv) { return verdictbench::run(argc, argv); }
