// Warm-path latency of the resident daemon vs the one-shot CLI: both
// sides answer the same supervised ip-corpus request from a fully warm
// disk cache, so the difference is exactly what safeflowd exists to
// remove — process spawn, runtime init, and cache open on every
// invocation. Emits BENCH_daemon.json (CI archives it) and exits
// non-zero if either side stopped measuring what it claims to measure
// (cold responses, mismatched reports, a daemon that would not drain).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "support/json.h"
#include "support/subprocess.h"
#include "support/unix_socket.h"

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

pid_t spawnDaemon(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<std::string> store;
  store.emplace_back(SAFEFLOWD_EXE);
  for (const std::string& a : args) store.push_back(a);
  std::vector<char*> argv;
  argv.reserve(store.size() + 1);
  for (std::string& a : store) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  ::_exit(127);
}

bool waitForSocket(const std::string& path, double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    const int fd = support::connectUnixSocket(path);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::string roundTrip(const std::string& socket_path,
                      const std::string& request) {
  std::string line;
  const int fd = support::connectUnixSocket(socket_path);
  if (fd < 0) return line;
  if (support::writeAll(fd, request)) {
    (void)support::readLine(fd, &line, 64u << 20, 120.0);
  }
  ::close(fd);
  return line;
}

std::string analyzeRequest(const std::vector<std::string>& files,
                           const std::vector<std::string>& flags) {
  std::string request =
      "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [";
  for (std::size_t i = 0; i < files.size(); ++i) {
    request += (i == 0 ? "\"" : ", \"") + files[i] + "\"";
  }
  request += "], \"flags\": [";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    request += (i == 0 ? "\"" : ", \"") + flags[i] + "\"";
  }
  request += "]}\n";
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_daemon.json";
  const auto files = ipCoreFiles();
  const std::vector<std::string> flags = {"-I", kCorpus + "/ip/common"};

  const std::string tag = std::to_string(::getpid());
  const std::string socket = "/tmp/safeflow-daemon-bench." + tag + ".sock";
  const std::string cache_dir = "/tmp/safeflow-daemon-bench." + tag;
  const std::string scrub = "rm -rf '" + cache_dir + "'";
  (void)std::system(scrub.c_str());

  const pid_t pid = spawnDaemon({"--socket", socket, "--cache-dir",
                                 cache_dir, "--jobs", "2", "--worker-exe",
                                 SAFEFLOW_EXE, "--log-level", "error"});
  if (pid <= 0 || !waitForSocket(socket, 15.0)) {
    std::cerr << "daemon_micro: daemon failed to start\n";
    return 1;
  }

  const std::string request = analyzeRequest(files, flags);
  bool ok = true;

  // Prime the shared cache (and the daemon) with one cold round trip.
  const std::string cold = roundTrip(socket, request);

  // Warm daemon round trips: connect + request + full response each
  // time, exactly what a build-system client pays per invocation.
  constexpr int kDaemonIters = 20;
  double daemon_total = 0.0, daemon_best = 1e9;
  std::string warm;
  for (int i = 0; i < kDaemonIters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    warm = roundTrip(socket, request);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    daemon_total += s;
    if (s < daemon_best) daemon_best = s;
  }
  support::json::Value warm_doc;
  std::string parse_error;
  if (!support::json::parse(warm, &warm_doc, &parse_error) ||
      warm_doc.memberString("status") != "ok" ||
      warm_doc.memberUint("cache_hits") != 1 ||
      warm_doc.memberUint("workers_spawned") != 0) {
    std::cerr << "daemon_micro: warm response was not fully warm: "
              << warm << "\n";
    ok = false;
  }

  // One-shot CLI over the same warm cache: spawn, init, open cache,
  // replay, exit — per invocation.
  constexpr int kOneShotIters = 5;
  double oneshot_total = 0.0, oneshot_best = 1e9;
  std::string oneshot_stdout;
  for (int i = 0; i < kOneShotIters; ++i) {
    std::vector<std::string> cli = {SAFEFLOW_EXE, "--isolate", "--cache-dir",
                                    cache_dir};
    cli.insert(cli.end(), flags.begin(), flags.end());
    cli.insert(cli.end(), files.begin(), files.end());
    support::SubprocessOptions opts;
    opts.timeout_seconds = 120.0;
    const auto start = std::chrono::steady_clock::now();
    const support::SubprocessResult run = support::runSubprocess(cli, opts);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    oneshot_total += s;
    if (s < oneshot_best) oneshot_best = s;
    if (!run.exitedWith(0)) {
      std::cerr << "daemon_micro: one-shot run failed\n" << run.err_text;
      ok = false;
    }
    oneshot_stdout = run.out_text;
  }
  if (warm_doc.memberString("stdout") != oneshot_stdout) {
    std::cerr << "daemon_micro: daemon and one-shot reports differ\n";
    ok = false;
  }

  // A benchmarked daemon still has to drain cleanly.
  ::kill(pid, SIGTERM);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::cerr << "daemon_micro: daemon did not drain cleanly\n";
    ok = false;
  }
  (void)std::system(scrub.c_str());

  const double daemon_mean = daemon_total / kDaemonIters;
  const double oneshot_mean = oneshot_total / kOneShotIters;
  const double speedup =
      daemon_mean > 0.0 ? oneshot_mean / daemon_mean : 0.0;
  std::ofstream out(out_path, std::ios::trunc);
  out << "{\n"
      << "  \"bench\": \"daemon_micro\",\n"
      << "  \"files\": " << files.size() << ",\n"
      << "  \"daemon_warm_mean_seconds\": " << daemon_mean << ",\n"
      << "  \"daemon_warm_best_seconds\": " << daemon_best << ",\n"
      << "  \"oneshot_warm_mean_seconds\": " << oneshot_mean << ",\n"
      << "  \"oneshot_warm_best_seconds\": " << oneshot_best << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"valid\": " << (ok ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::printf(
      "daemon_micro: %zu files, daemon %.4fs, one-shot %.4fs, %.1fx\n",
      files.size(), daemon_mean, oneshot_mean, speedup);
  return ok ? 0 : 1;
}
