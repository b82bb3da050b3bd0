// safeflowd: the resident analysis daemon (DESIGN.md §14).
//
//   safeflowd [options]
//
// `safeflowd --help` lists the options (usage() below is the one list).
//
// SIGTERM/SIGINT drain gracefully (finish in-flight, reject new, flush
// metrics, exit 0). A SIGKILLed daemon restarts clean: the stale socket
// is swept and the cache dir reattached warm.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "safeflow/daemon.h"
#include "support/flight_recorder.h"
#include "support/io_faults.h"
#include "support/limits.h"
#include "support/log.h"

namespace {

safeflow::Daemon* g_daemon = nullptr;

extern "C" void terminationHandler(int) {
  if (g_daemon != nullptr) g_daemon->requestStop();
}

void usage() {
  std::cerr
      << "usage: safeflowd [options]\n"
         "  --socket <path>        listen socket (default safeflowd.sock)\n"
         "  --jobs <n>             concurrent analyses (default 2)\n"
         "  --max-queue <n>        queued analyses before `busy` (default 8)\n"
         "  --max-rss-mb <n>       RSS shed threshold, 0 = off (default 0)\n"
         "  --worker-timeout <dur> per-worker watchdog (default 60s)\n"
         "  --retries <n>          retries per request (default 2)\n"
         "  --worker-stderr-cap <n> stderr capture cap (default 65536)\n"
         "  --worker-exe <path>    safeflow binary (default: sibling)\n"
         "  --cache-dir <dir>      cache dir (default .safeflow-cache)\n"
         "  --no-cache             disable the result cache\n"
         "  --cache-max-mb <n>     cache size cap (default 256)\n"
         "  --log-level <lvl>      error|warn|note|info|debug\n"
         "  --log-json             NDJSON logs\n"
         "  --metrics-out <file>   flush Prometheus metrics at drain\n";
}

/// Default worker: the `safeflow` binary next to this executable.
std::string siblingSafeflow(const char* argv0) {
  char buf[4096];
  std::string self;
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    self = buf;
  } else {
    self = argv0;
  }
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "safeflow";
  return self.substr(0, slash + 1) + "safeflow";
}

bool parseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safeflow;

  support::installCrashDumpHandlers();
  support::io::armIoFaultInjectionFromEnv();

  DaemonOptions options;
  options.cache.enabled = true;
  support::LogLevel log_level = support::LogLevel::kNote;
  bool log_json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    unsigned long long n = 0;
    if (arg == "--socket" && i + 1 < argc) {
      options.socket_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!parseUnsigned(argv[++i], &n) || n == 0) {
        std::cerr << "invalid --jobs '" << argv[i] << "'\n";
        return 2;
      }
      options.jobs = static_cast<std::size_t>(n);
    } else if (arg == "--max-queue" && i + 1 < argc) {
      if (!parseUnsigned(argv[++i], &n)) {
        std::cerr << "invalid --max-queue '" << argv[i] << "'\n";
        return 2;
      }
      options.max_queue = static_cast<std::size_t>(n);
    } else if (arg == "--max-rss-mb" && i + 1 < argc) {
      if (!parseUnsigned(argv[++i], &n)) {
        std::cerr << "invalid --max-rss-mb '" << argv[i] << "'\n";
        return 2;
      }
      options.max_rss_mb = n;
    } else if (arg == "--worker-timeout" && i + 1 < argc) {
      if (!support::parseDuration(argv[++i],
                                  &options.worker_timeout_seconds)) {
        std::cerr << "invalid --worker-timeout '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--retries" && i + 1 < argc) {
      if (!parseUnsigned(argv[++i], &n)) {
        std::cerr << "invalid --retries '" << argv[i] << "'\n";
        return 2;
      }
      options.max_retries = static_cast<int>(n);
    } else if (arg == "--worker-stderr-cap" && i + 1 < argc) {
      if (!parseUnsigned(argv[++i], &n)) {
        std::cerr << "invalid --worker-stderr-cap '" << argv[i] << "'\n";
        return 2;
      }
      options.worker_stderr_cap = static_cast<std::size_t>(n);
    } else if (arg == "--worker-exe" && i + 1 < argc) {
      options.worker_exe = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      options.cache.enabled = true;
      options.cache.dir = argv[++i];
    } else if (arg == "--no-cache") {
      options.cache.enabled = false;
    } else if (arg == "--cache-max-mb" && i + 1 < argc) {
      if (!parseUnsigned(argv[++i], &n)) {
        std::cerr << "invalid --cache-max-mb '" << argv[i] << "'\n";
        return 2;
      }
      options.cache.max_bytes = n << 20;
    } else if (arg == "--log-level" && i + 1 < argc) {
      if (!support::parseLogLevel(argv[++i], &log_level)) {
        std::cerr << "invalid --log-level '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--log-json") {
      log_json = true;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      options.metrics_out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      usage();
      return 2;
    }
  }
  if (options.worker_exe.empty()) {
    options.worker_exe = siblingSafeflow(argv[0]);
  }

  support::Logger::instance().configure(log_level, log_json, "safeflowd");

  Daemon daemon(std::move(options));
  std::string error;
  if (!daemon.start(&error)) {
    std::cerr << "safeflowd: " << error << "\n";
    return 2;
  }

  // SIGTERM/SIGINT drain; SIGPIPE must never kill the daemon (writeAll
  // already uses MSG_NOSIGNAL, this is belt and braces for stdio).
  g_daemon = &daemon;
  struct sigaction action{};
  action.sa_handler = terminationHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  return daemon.serve();
}
