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

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
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

/// Hard cap on one request line; longer is rejected as oversized.
constexpr std::size_t kMaxRequestBytes = 4u << 20;
/// Per-connection read deadline: a client that connects and dribbles
/// (or sends nothing) is cut off after this long.
constexpr double kIoTimeoutSeconds = 10.0;
/// retry_after_ms hint in `busy` responses.
constexpr double kRetryAfterSeconds = 0.25;
/// How long the accept loop backs off after accept() failed for want of
/// descriptors or memory. The pending connection stays queued and keeps
/// the listener readable until a connection thread frees a descriptor,
/// so polling the listener again at once would spin.
constexpr int kAcceptBackoffMs = 50;

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

/// Server-side validation of the request's analysis flags. Only the
/// cache-key-relevant passthrough flags the CLI forwards to a worker are
/// accepted — scheduling and observability flags are the daemon's own
/// configuration, and anything unknown is rejected rather than spawned
/// into a worker argv. Fills `time_budget_seconds` (the base retries
/// tighten from, as in the one-shot CLI).
bool validateFlags(const std::vector<std::string>& flags,
                   double* time_budget_seconds, std::string* error) {
  // The CLI's rule: an unsigned integer.
  const auto unsignedArg = [](const std::string& v) {
    char* end = nullptr;
    std::strtoull(v.c_str(), &end, 10);
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
      ++i;
    } else if (flag == "--mode=summaries" || flag == "--mode=call-strings" ||
               flag == "--no-control-deps" || flag == "--no-ranges" ||
               flag == "--kill-critical") {
      // No argument.
    } else if (flag == "--time-budget") {
      if (!has_arg ||
          !support::parseDuration(flags[i + 1], time_budget_seconds)) {
        *error = "invalid --time-budget";
        return false;
      }
      ++i;
    } else if (flag == "--step-budget") {
      if (!has_arg || !unsignedArg(flags[i + 1])) {
        *error = "invalid --step-budget";
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
        "daemon.disconnects", "daemon.accept_failures"}) {
    metrics_.counter(name).add(0);
  }
  metrics_.gauge("daemon.queue_depth").set(0.0);
  metrics_.gauge("daemon.in_flight").set(0.0);
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
    if (client < 0) {
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Back off on the stop pipe alone, so a drain still wakes the
        // loop at once.
        metrics_.counter("daemon.accept_failures").add();
        struct pollfd stop = {stop_pipe_[0], POLLIN, 0};
        (void)::poll(&stop, 1, kAcceptBackoffMs);
      }
      continue;
    }
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
  flushMetrics();
  SAFEFLOW_LOG(support::LogLevel::kNote, "daemon", "drained; exiting",
               {{"socket", options_.socket_path}});
  return 0;
}

void Daemon::handleConnection(int fd) {
  std::string line;
  const support::LineIo io = support::readLine(
      fd, &line, kMaxRequestBytes, kIoTimeoutSeconds);
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
                               std::to_string(kMaxRequestBytes) + " bytes");
      break;
    case support::LineIo::kTimeout:
      metrics_.counter("daemon.protocol_errors").add();
      response = errorResponse("request not received within " +
                               std::to_string(kIoTimeoutSeconds) + "s");
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
      << static_cast<std::uint64_t>(kRetryAfterSeconds * 1000.0)
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
  double time_budget_seconds = 0.0;
  std::string flag_error;
  if (!validateFlags(flags, &time_budget_seconds, &flag_error)) {
    metrics_.counter("daemon.protocol_errors").add();
    return errorResponse(flag_error);
  }
  const support::json::Value* json_member = request.find("json");
  const support::json::Value* quiet_member = request.find("quiet");
  RenderOptions render;
  render.json = json_member != nullptr && json_member->boolOr(false);
  render.quiet = quiet_member != nullptr && quiet_member->boolOr(false);
  double deadline_seconds = kDefaultDeadlineSeconds;
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
    // not "no service".
    if (in_flight_ + queued_ >= options_.jobs + options_.max_queue) {
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
      response =
          runAnalysis(files, flags, time_budget_seconds, render, remaining);
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
                                double time_budget_seconds,
                                const RenderOptions& render,
                                double deadline_seconds) {
  // Fresh registry per request so the counters inside the response
  // describe this request alone, like a one-shot CLI invocation's.
  support::MetricsRegistry registry;

  CacheOptions cache_options = options_.cache;
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
