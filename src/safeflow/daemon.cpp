#include "safeflow/daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include "safeflow/driver.h"
#include "safeflow/supervisor.h"
#include "support/cache.h"
#include "support/flight_recorder.h"
#include "support/io_faults.h"
#include "support/limits.h"
#include "support/log.h"
#include "support/unix_socket.h"

namespace safeflow {

using support::json::escape;

namespace {

using Clock = std::chrono::steady_clock;

std::string errorResponse(const std::string& message) {
  return "{\"safeflowd\": 1, \"status\": \"error\", \"message\": \"" +
         escape(message) + "\"}\n";
}

/// Current resident set in bytes via /proc/self/statm (0 off-Linux or
/// on any read failure — the RSS gate then never sheds, which is the
/// safe default).
std::uint64_t residentBytes() {
  std::ifstream statm("/proc/self/statm");
  if (!statm) return 0;
  std::uint64_t total_pages = 0, resident_pages = 0;
  statm >> total_pages >> resident_pages;
  if (!statm) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident_pages * static_cast<std::uint64_t>(page > 0 ? page : 4096);
}

/// Open descriptors of this process via /proc/self/fd (0 off-Linux or
/// on failure — the fd axis then never reads as pressured).
std::uint64_t countOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::uint64_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  // ".", "..", and the directory's own fd are not real load.
  return count > 3 ? count - 3 : 0;
}

/// Free bytes on the filesystem holding `path`; false when statvfs
/// fails (unknown free space must not read as pressure).
bool diskFreeBytes(const std::string& path, std::uint64_t* out) {
  struct statvfs vfs{};
  if (::statvfs(path.c_str(), &vfs) != 0) return false;
  *out = static_cast<std::uint64_t>(vfs.f_bavail) * vfs.f_frsize;
  return true;
}

const char* pressureLevelName(int level) {
  switch (level) {
    case 0: return "nominal";
    case 1: return "elevated";
    case 2: return "shedding";
    case 3: return "critical";
    case 4: return "draining";
  }
  return "?";
}

/// Server-side validation of the request's analysis flags. Only the
/// cache-key-relevant passthrough flags the CLI forwards to a worker are
/// accepted — scheduling and observability flags are the daemon's own
/// configuration, and anything unknown is rejected rather than spawned
/// into a worker argv. Fills `include_dirs` (the cache manager resolves
/// header closures with it) and `time_budget_seconds` (the base retries
/// tighten from, as in the one-shot CLI).
bool validateFlags(const std::vector<std::string>& flags,
                   std::vector<std::string>* include_dirs,
                   double* time_budget_seconds, std::string* error) {
  const auto unsignedArg = [](const std::string& v) {
    if (v.empty()) return false;
    char* end = nullptr;
    (void)std::strtoull(v.c_str(), &end, 10);
    return end != v.c_str() && *end == '\0';
  };
  for (std::size_t i = 0; i < flags.size(); ++i) {
    const std::string& flag = flags[i];
    const bool has_arg = i + 1 < flags.size();
    if (flag == "-I" || flag == "-D") {
      if (!has_arg) {
        *error = "flag '" + flag + "' is missing its argument";
        return false;
      }
      if (flag == "-I") include_dirs->push_back(flags[i + 1]);
      ++i;
    } else if (flag == "--mode=summaries" || flag == "--mode=call-strings" ||
               flag == "--no-control-deps" || flag == "--ranges" ||
               flag == "--no-ranges" || flag == "--kill-critical") {
      // No argument.
    } else if (flag == "--time-budget") {
      if (!has_arg ||
          !support::parseDuration(flags[i + 1], time_budget_seconds)) {
        *error = "invalid --time-budget";
        return false;
      }
      ++i;
    } else if (flag == "--step-budget" || flag == "--max-depth") {
      if (!has_arg || !unsignedArg(flags[i + 1])) {
        *error = "invalid " + flag;
        return false;
      }
      ++i;
    } else {
      *error = "unsupported analysis flag '" + flag + "'";
      return false;
    }
  }
  return true;
}

bool stringArray(const support::json::Value& doc, const char* member,
                 std::vector<std::string>* out) {
  const support::json::Value* arr = doc.find(member);
  if (arr == nullptr || !arr->isArray()) return false;
  for (const support::json::Value& v : arr->array) {
    if (!v.isString()) return false;
    out->push_back(v.string_value);
  }
  return true;
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  if (options_.jobs == 0) options_.jobs = 1;
}

Daemon::~Daemon() {
  if (pressure_thread_.joinable()) {
    stopping_.store(true, std::memory_order_release);
    pressure_thread_.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

bool Daemon::start(std::string* error) {
  // Pre-register the daemon's own counters so the status document and
  // --metrics-out always expose them — a zero shed count is a statement
  // ("no load was shed"), not a missing series.
  for (const char* name :
       {"daemon.requests", "daemon.analyze", "daemon.coalesced",
        "daemon.shed", "daemon.deadline_expired", "daemon.protocol_errors",
        "daemon.disconnects", "daemon.pressure.transitions"}) {
    metrics_.counter(name).add(0);
  }
  metrics_.gauge("daemon.queue_depth").set(0.0);
  metrics_.gauge("daemon.in_flight").set(0.0);
  metrics_.gauge("daemon.pressure.level").set(0.0);
  if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    if (error != nullptr) {
      *error = std::string("pipe: ") + std::strerror(errno);
    }
    return false;
  }
  bool was_stale = false;
  listen_fd_ = support::listenUnixSocket(options_.socket_path, 64, error,
                                         &was_stale);
  if (listen_fd_ < 0) return false;
  if (was_stale) {
    metrics_.counter("daemon.stale_socket_swept").add();
    SAFEFLOW_LOG(support::LogLevel::kNote, "daemon",
                 "note: swept stale socket from a crashed daemon",
                 {{"path", options_.socket_path}});
  }
  // Crash recovery half two, once for the daemon's lifetime: age out
  // cache temp files a SIGKILLed predecessor abandoned mid-store and
  // purge entries whose envelopes no longer verify. Requests and workers
  // never sweep.
  if (options_.cache.enabled) {
    CacheManager(options_.cache, &metrics_).recover();
  }
  SAFEFLOW_LOG(support::LogLevel::kNote, "daemon", "listening",
               {{"socket", options_.socket_path},
                {"jobs", std::to_string(options_.jobs)},
                {"cache_dir",
                 options_.cache.enabled ? options_.cache.dir : "(off)"}});
  return true;
}

void Daemon::requestStop() {
  // Async-signal-safe: one atomic store and one write(2).
  stopping_.store(true, std::memory_order_release);
  const char byte = 's';
  (void)!::write(stop_pipe_[1], &byte, 1);
}

int Daemon::serve() {
  if (options_.pressure_interval_seconds > 0.0) {
    pressure_thread_ = std::thread([this] { pressureWatchdog(); });
  }
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                            {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // requestStop woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) continue;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++connections_;
    }
    std::thread([this, client] {
      handleConnection(client);
      const std::lock_guard<std::mutex> lock(mu_);
      --connections_;
      connections_cv_.notify_all();
    }).detach();
  }

  // Drain: stop accepting (close + unlink so new clients fall back to
  // in-process analysis immediately), let in-flight requests finish,
  // wake queued leaders so they answer `draining`, flush metrics.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  {
    std::unique_lock<std::mutex> lock(mu_);
    slots_cv_.notify_all();
    connections_cv_.wait(lock, [this] { return connections_ == 0; });
  }
  if (pressure_thread_.joinable()) pressure_thread_.join();
  flushMetrics();
  SAFEFLOW_LOG(support::LogLevel::kNote, "daemon", "drained; exiting",
               {{"socket", options_.socket_path}});
  return 0;
}

void Daemon::pressureWatchdog() {
  int sustained_critical = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    (void)samplePressure(&sustained_critical);
    // Sleep in short slices so a drain request is honored promptly even
    // under a long sampling interval.
    double remaining = options_.pressure_interval_seconds;
    while (remaining > 0.0 && !stopping_.load(std::memory_order_acquire)) {
      const double slice = std::min(remaining, 0.05);
      std::this_thread::sleep_for(std::chrono::duration<double>(slice));
      remaining -= slice;
    }
  }
}

int Daemon::samplePressure(int* sustained_critical) {
  // Saturated samples before critical escalates to drain: long enough
  // to ride out one heavy request completing, short enough that a
  // genuinely wedged process exits before the OOM killer chooses for
  // it (8 samples = 8s at the default interval).
  constexpr int kSustainedCriticalSamples = 8;

  const std::uint64_t rss = residentBytes();
  const std::uint64_t fds = countOpenFds();
  std::uint64_t disk_free = 0;
  bool have_disk = false;
  if (options_.min_disk_free_mb > 0 && options_.cache.enabled) {
    have_disk = diskFreeBytes(options_.cache.dir, &disk_free);
  }

  // Ladder level = worst per-resource usage fraction. Each axis is
  // opt-in: an unset budget contributes nothing.
  double worst = 0.0;
  const char* axis = "none";
  if (options_.max_rss_mb > 0 && rss > 0) {
    const double frac = static_cast<double>(rss) /
                        static_cast<double>(options_.max_rss_mb << 20);
    if (frac > worst) { worst = frac; axis = "rss"; }
  }
  if (options_.max_open_fds > 0 && fds > 0) {
    const double frac = static_cast<double>(fds) /
                        static_cast<double>(options_.max_open_fds);
    if (frac > worst) { worst = frac; axis = "fds"; }
  }
  if (have_disk) {
    // Free space below the floor is full saturation; at twice the floor
    // the axis reads half-used.
    const double floor_bytes =
        static_cast<double>(options_.min_disk_free_mb) * 1048576.0;
    const double frac =
        floor_bytes / std::max(static_cast<double>(disk_free), 1.0);
    if (frac > worst) { worst = frac; axis = "disk"; }
  }

  metrics_.gauge("daemon.pressure.rss_mb")
      .set(static_cast<double>(rss) / 1048576.0);
  metrics_.gauge("daemon.pressure.open_fds").set(static_cast<double>(fds));
  if (have_disk) {
    metrics_.gauge("daemon.pressure.disk_free_mb")
        .set(static_cast<double>(disk_free) / 1048576.0);
  }

  int level = worst >= 1.0 ? 3 : worst >= 0.90 ? 2 : worst >= 0.75 ? 1 : 0;
  if (level >= 3) {
    ++*sustained_critical;
  } else {
    *sustained_critical = 0;
  }
  if (*sustained_critical >= kSustainedCriticalSamples) level = 4;

  const int old_level = pressure_level_.load(std::memory_order_relaxed);
  if (level == old_level) return level;

  pressure_level_.store(level, std::memory_order_relaxed);
  metrics_.gauge("daemon.pressure.level").set(static_cast<double>(level));
  metrics_.counter("daemon.pressure.transitions").add();
  char frac_text[32];
  std::snprintf(frac_text, sizeof frac_text, "%.2f", worst);
  support::flightRecord(
      "pressure", std::string(pressureLevelName(old_level)) + " -> " +
                      pressureLevelName(level) + " (" + axis + " at " +
                      frac_text + ")");
  SAFEFLOW_LOG(level > old_level ? support::LogLevel::kWarn
                                 : support::LogLevel::kNote,
               "daemon", "pressure level changed",
               {{"from", pressureLevelName(old_level)},
                {"to", pressureLevelName(level)},
                {"axis", axis},
                {"usage", frac_text}});

  // Entering critical: give back disk before anything else — the cache
  // is the one resource the daemon can shed without failing requests.
  if (level >= 3 && old_level < 3 && options_.cache.enabled &&
      options_.cache.max_bytes > 0) {
    support::DiskCache disk({options_.cache.dir, options_.cache.max_bytes});
    const std::uint64_t evicted =
        disk.evictToBytes(options_.cache.max_bytes / 2);
    metrics_.counter("daemon.pressure.cache_evicted").add(evicted);
    if (evicted > 0) {
      SAFEFLOW_LOG(support::LogLevel::kNote, "daemon",
                   "pressure eviction shrank the disk cache",
                   {{"entries", std::to_string(evicted)}});
    }
  }
  if (level == 4) {
    SAFEFLOW_LOG(support::LogLevel::kWarn, "daemon",
                 "resource pressure stayed critical; draining", {});
    requestStop();
  }
  return level;
}

void Daemon::handleConnection(int fd) {
  std::string line;
  const support::LineIo io = support::readLine(
      fd, &line, options_.max_request_bytes, options_.io_timeout_seconds);
  metrics_.counter("daemon.requests").add();
  std::string response;
  switch (io) {
    case support::LineIo::kOk:
      response = handleRequest(line);
      break;
    case support::LineIo::kEof:
      // Mid-request disconnect: nobody to answer.
      metrics_.counter("daemon.disconnects").add();
      ::close(fd);
      return;
    case support::LineIo::kOversized:
      metrics_.counter("daemon.protocol_errors").add();
      response = errorResponse("request exceeds " +
                               std::to_string(options_.max_request_bytes) +
                               " bytes");
      break;
    case support::LineIo::kTimeout:
      metrics_.counter("daemon.protocol_errors").add();
      response = errorResponse("request not received within " +
                               std::to_string(options_.io_timeout_seconds) +
                               "s");
      break;
    case support::LineIo::kError:
      metrics_.counter("daemon.disconnects").add();
      ::close(fd);
      return;
  }
  if (!support::writeAll(fd, response, "daemon.socket")) {
    // Client went away (or the chaos harness failed the write); either
    // way the client sees a truncated line it must discard, never a
    // plausible-but-wrong response.
    metrics_.counter("daemon.disconnects").add();
  }
  ::close(fd);
}

std::string Daemon::handleRequest(const std::string& line) {
  support::json::Value doc;
  std::string parse_error;
  if (!support::json::parse(line, &doc, &parse_error) || !doc.isObject()) {
    metrics_.counter("daemon.protocol_errors").add();
    return errorResponse("malformed request: " + parse_error);
  }
  if (doc.memberUint("safeflowd") != 1) {
    metrics_.counter("daemon.protocol_errors").add();
    return errorResponse("unsupported or missing protocol version "
                         "(expected \"safeflowd\": 1)");
  }
  const std::string op = doc.memberString("op");
  if (op == "status") return statusResponse();
  if (op == "shutdown") {
    SAFEFLOW_LOG(support::LogLevel::kNote, "daemon",
                 "shutdown requested by client", {});
    requestStop();
    return "{\"safeflowd\": 1, \"status\": \"ok\", \"draining\": true}\n";
  }
  if (op == "analyze") return handleAnalyze(doc);
  metrics_.counter("daemon.protocol_errors").add();
  return errorResponse("unknown op '" + op + "'");
}

std::string Daemon::busyResponse() {
  metrics_.counter("daemon.shed").add();
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    depth = queued_;
  }
  std::ostringstream out;
  out << "{\"safeflowd\": 1, \"status\": \"busy\", \"retry_after_ms\": "
      << static_cast<std::uint64_t>(options_.retry_after_seconds * 1000.0)
      << ", \"queue_depth\": " << depth << "}\n";
  return out.str();
}

std::string Daemon::handleAnalyze(const support::json::Value& request) {
  const Clock::time_point arrival = Clock::now();

  std::vector<std::string> files;
  if (!stringArray(request, "files", &files) || files.empty()) {
    metrics_.counter("daemon.protocol_errors").add();
    return errorResponse("analyze requires a non-empty \"files\" array "
                         "of strings");
  }
  for (const std::string& f : files) {
    if (f.empty()) {
      metrics_.counter("daemon.protocol_errors").add();
      return errorResponse("empty path in \"files\"");
    }
  }
  std::vector<std::string> flags;
  if (request.find("flags") != nullptr &&
      !stringArray(request, "flags", &flags)) {
    metrics_.counter("daemon.protocol_errors").add();
    return errorResponse("\"flags\" must be an array of strings");
  }
  std::vector<std::string> include_dirs;
  double time_budget_seconds = 0.0;
  std::string flag_error;
  if (!validateFlags(flags, &include_dirs, &time_budget_seconds,
                     &flag_error)) {
    metrics_.counter("daemon.protocol_errors").add();
    return errorResponse(flag_error);
  }
  const support::json::Value* json_member = request.find("json");
  const support::json::Value* quiet_member = request.find("quiet");
  RenderOptions render;
  render.json = json_member != nullptr && json_member->boolOr(false);
  render.quiet = quiet_member != nullptr && quiet_member->boolOr(false);
  double deadline_seconds = options_.default_deadline_seconds;
  if (const support::json::Value* dl = request.find("deadline_ms");
      dl != nullptr && dl->isNumber() && dl->number_value > 0) {
    deadline_seconds = dl->number_value / 1000.0;
  }

  metrics_.counter("daemon.analyze").add();

  if (stopping_.load(std::memory_order_acquire)) {
    return "{\"safeflowd\": 1, \"status\": \"draining\"}\n";
  }

  // Admission control: shed before the queue or the process can grow
  // without bound. A structured `busy` with a retry hint beats an
  // unbounded latency cliff.
  if (options_.max_rss_mb > 0 &&
      residentBytes() > options_.max_rss_mb << 20) {
    return busyResponse();
  }
  // Pressure ladder, level 2+: the watchdog found some resource within
  // 10% of its ceiling — shed new work until it recedes.
  if (pressure_level_.load(std::memory_order_relaxed) >= 2) {
    return busyResponse();
  }

  // Coalescing: identical concurrent requests share one analysis. The
  // key is the same identity the cache uses (files + flags) plus the
  // rendering switches, so "byte-identical response" is literal. The
  // deadline is part of the identity too: a tight-deadline probe must
  // never become the leader for a patient request and poison every
  // waiter with its own expiry.
  support::Fnv1a hasher;
  for (const std::string& f : files) {
    hasher.update("file:");
    hasher.update(f);
    hasher.update("\n");
  }
  for (const std::string& f : flags) {
    hasher.update("flag:");
    hasher.update(f);
    hasher.update("\n");
  }
  hasher.update(render.json ? "json" : "text");
  hasher.update(render.quiet ? "+quiet" : "");
  hasher.update("deadline:");
  hasher.update(std::to_string(deadline_seconds));
  const std::string key = hasher.hex();

  std::shared_ptr<Job> job;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (const auto it = jobs_.find(key); it != jobs_.end()) {
      // Waiter: ride the leader's analysis, answer with its bytes.
      job = it->second;
      metrics_.counter("daemon.coalesced").add();
      lock.unlock();
      std::unique_lock<std::mutex> job_lock(job->mu);
      job->cv.wait(job_lock, [&job] { return job->done; });
      return job->response;
    }
    // Shed only requests that would actually have to wait: total
    // occupancy (running + admitted-but-waiting) is bounded by
    // slots + waiting room, so --max-queue 0 means "no waiting room",
    // not "no service". Pressure level 1 halves the waiting room —
    // the first, gentlest rung of the degradation ladder.
    const std::size_t waiting_room =
        pressure_level_.load(std::memory_order_relaxed) >= 1
            ? options_.max_queue / 2
            : options_.max_queue;
    if (in_flight_ + queued_ >= options_.jobs + waiting_room) {
      lock.unlock();
      return busyResponse();
    }
    job = std::make_shared<Job>();
    jobs_.emplace(key, job);
    ++queued_;
    metrics_.gauge("daemon.queue_depth").set(static_cast<double>(queued_));
  }

  // Leader: wait for an in-flight slot, run, publish to every waiter.
  std::string response;
  {
    std::unique_lock<std::mutex> lock(mu_);
    slots_cv_.wait(lock, [this] {
      return in_flight_ < options_.jobs ||
             stopping_.load(std::memory_order_acquire);
    });
    --queued_;
    metrics_.gauge("daemon.queue_depth").set(static_cast<double>(queued_));
    if (stopping_.load(std::memory_order_acquire)) {
      response = "{\"safeflowd\": 1, \"status\": \"draining\"}\n";
    } else {
      ++in_flight_;
      metrics_.gauge("daemon.in_flight")
          .set(static_cast<double>(in_flight_));
    }
  }
  if (response.empty()) {
    const double waited =
        std::chrono::duration<double>(Clock::now() - arrival).count();
    const double remaining = deadline_seconds - waited;
    if (remaining <= 0.0) {
      metrics_.counter("daemon.deadline_expired").add();
      response = errorResponse("deadline expired before analysis started");
    } else {
      response = runAnalysis(files, flags, include_dirs, time_budget_seconds,
                             render, remaining);
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      metrics_.gauge("daemon.in_flight")
          .set(static_cast<double>(in_flight_));
    }
    slots_cv_.notify_all();
  }

  {
    const std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(key);
  }
  {
    const std::lock_guard<std::mutex> job_lock(job->mu);
    job->response = response;
    job->done = true;
  }
  job->cv.notify_all();
  return response;
}

std::string Daemon::runAnalysis(const std::vector<std::string>& files,
                                const std::vector<std::string>& flags,
                                const std::vector<std::string>& include_dirs,
                                double time_budget_seconds,
                                const RenderOptions& render,
                                double deadline_seconds) {
  // Fresh registry per request so the counters inside the response
  // describe this request alone, like a one-shot CLI invocation's.
  support::MetricsRegistry registry;

  CacheOptions cache_options = options_.cache;
  cache_options.include_dirs = include_dirs;
  cache_options.analysis_flags = flags;
  for (const std::string& a : render.args()) {
    cache_options.analysis_flags.push_back(a);
  }
  CacheManager cache(cache_options, &registry);

  SupervisorOptions sup;
  sup.max_retries = options_.max_retries;
  sup.worker_exe = options_.worker_exe;
  sup.worker_args = flags;
  sup.render = render;
  sup.worker_stderr_cap = options_.worker_stderr_cap;
  sup.base_time_budget_seconds = time_budget_seconds;
  // The request deadline is inherited into the worker watchdog: no
  // attempt may outlive what the client is willing to wait for.
  sup.worker_timeout_seconds =
      options_.worker_timeout_seconds > 0.0
          ? std::min(options_.worker_timeout_seconds, deadline_seconds)
          : deadline_seconds;
  if (cache.enabled()) sup.cache = &cache;

  support::flightRecord("daemon", "analyze " + files.front() +
                                      (files.size() > 1 ? " +" : ""));
  const SupervisedRun run = Supervisor(sup, &registry).run(files);

  // Fold the request's counters into the daemon-level registry so
  // `status` exposes fleet-wide totals across all clients.
  for (const auto& [name, value] : registry.snapshot().counters) {
    metrics_.counter(name).add(value);
  }

  std::ostringstream out;
  out << "{\"safeflowd\": 1, \"status\": \"ok\", \"exit_code\": "
      << run.output.exit_code
      << ", \"cache_hits\": " << registry.counterValue("cache.hits")
      << ", \"workers_spawned\": "
      << registry.counterValue("supervisor.workers_spawned")
      << ", \"worker_failures\": " << (run.failure ? 1 : 0)
      << ", \"stdout\": \"" << escape(run.output.stdout_text)
      << "\", \"stderr\": \"" << escape(run.output.stderr_text)
      << "\"}\n";
  return out.str();
}

std::string Daemon::statusResponse() {
  std::size_t queued = 0, in_flight = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queued = queued_;
    in_flight = in_flight_;
  }
  const auto snap = metrics_.snapshot();
  std::ostringstream out;
  out << "{\"safeflowd\": 1, \"status\": \"ok\", \"version\": \""
      << escape(kAnalyzerVersion) << "\", \"pid\": " << ::getpid()
      << ", \"queue_depth\": " << queued << ", \"in_flight\": " << in_flight
      << ", \"pressure_level\": "
      << pressure_level_.load(std::memory_order_relaxed)
      << ", \"draining\": "
      << (stopping_.load(std::memory_order_acquire) ? "true" : "false")
      << ", \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\""
        << escape(snap.counters[i].first)
        << "\": " << snap.counters[i].second;
  }
  out << "}, \"gauges\": {";
  char num[64];
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    std::snprintf(num, sizeof num, "%.9g", snap.gauges[i].second);
    out << (i == 0 ? "" : ", ") << "\"" << escape(snap.gauges[i].first)
        << "\": " << num;
  }
  out << "}}\n";
  return out.str();
}

void Daemon::flushMetrics() {
  if (options_.metrics_out_path.empty()) return;
  SafeFlowStats stats;
  foldRegistrySnapshot(metrics_, &stats);
  stats.resource = support::sampleResourceUsage();
  const support::io::IoStatus status = support::io::writeFile(
      options_.metrics_out_path, stats.renderPrometheus(), "metrics.out");
  if (!status.ok) {
    // The failed file is already unlinked: scrapers see stale-or-absent
    // metrics, never a truncated exposition.
    SAFEFLOW_LOG(support::LogLevel::kWarn, "daemon",
                 "warning: metrics flush failed",
                 {{"error", status.message}});
  }
}

}  // namespace safeflow
