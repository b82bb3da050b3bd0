#include "support/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "support/json.h"

namespace safeflow::support {

// ---------------------------------------------------------------------------
// MetricsRegistry

void MetricsRegistry::DurationStat::record(double seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0 || seconds < min_) min_ = seconds;
  if (count_ == 0 || seconds > max_) max_ = seconds;
  ++count_;
  total_ += seconds;
  const double us = seconds * 1e6;
  std::size_t bucket = 0;
  while (bucket + 1 < kBuckets && us >= static_cast<double>(2ull << bucket)) {
    ++bucket;
  }
  ++buckets_[bucket];
}

std::uint64_t MetricsRegistry::DurationStat::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double MetricsRegistry::DurationStat::totalSeconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

double MetricsRegistry::DurationStat::minSeconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double MetricsRegistry::DurationStat::maxSeconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

std::array<std::uint64_t, MetricsRegistry::DurationStat::kBuckets>
MetricsRegistry::DurationStat::buckets() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

double MetricsRegistry::DurationStat::percentileSeconds(double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile sample (1-based, ceil), then walk the
  // cumulative bucket counts to the bucket holding it.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      // Upper bucket edge in seconds, clamped into the observed range.
      const double upper_us = static_cast<double>(2ull << i);
      return std::min(max_, std::max(min_, upper_us * 1e-6));
    }
  }
  return max_;
}

MetricsRegistry::Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

MetricsRegistry::DurationStat& MetricsRegistry::duration(
    std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = durations_.find(name);
  if (it == durations_.end()) {
    it = durations_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::counterValue(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::gaugeValue(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

double MetricsRegistry::durationTotalSeconds(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = durations_.find(name);
  return it == durations_.end() ? 0.0 : it->second.totalSeconds();
}

std::uint64_t MetricsRegistry::durationCount(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = durations_.find(name);
  return it == durations_.end() ? 0 : it->second.count();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c.value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g.value());
  }
  snap.durations.reserve(durations_.size());
  for (const auto& [name, d] : durations_) {
    snap.durations.push_back({name, d.count(), d.totalSeconds(),
                              d.minSeconds(), d.maxSeconds(),
                              d.percentileSeconds(0.50),
                              d.percentileSeconds(0.90),
                              d.percentileSeconds(0.99)});
  }
  return snap;
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  durations_.clear();
}

// ---------------------------------------------------------------------------
// TraceCollector

namespace {

std::uint64_t threadKey() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

std::string formatUs(double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

}  // namespace

TraceCollector::TraceCollector() : epoch_(Clock::now()) {}

std::size_t TraceCollector::beginSpan(std::string_view name) {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t key = threadKey();
  const auto [tid_it, inserted] =
      tids_.try_emplace(key, static_cast<std::uint32_t>(tids_.size()));
  auto& stack = stacks_[key];
  Span span;
  span.name = std::string(name);
  span.tid = tid_it->second;
  span.start_us =
      std::chrono::duration<double, std::micro>(now - epoch_).count();
  span.parent = stack.empty() ? -1 : static_cast<std::ptrdiff_t>(stack.back());
  span.depth = static_cast<std::uint32_t>(stack.size());
  const std::size_t id = spans_.size();
  spans_.push_back(std::move(span));
  stack.push_back(id);
  return id;
}

void TraceCollector::setArg(std::size_t id, std::string_view key,
                            std::string value) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (id >= spans_.size()) return;
  spans_[id].args.emplace_back(std::string(key), std::move(value));
}

void TraceCollector::endSpan(std::size_t id) {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  if (id >= spans_.size()) return;
  const double end_us =
      std::chrono::duration<double, std::micro>(now - epoch_).count();
  auto& stack = stacks_[threadKey()];
  // Close everything begun after `id` on this thread too, so an early
  // return inside a span cannot leave descendants open forever.
  while (!stack.empty()) {
    const std::size_t top = stack.back();
    stack.pop_back();
    if (spans_[top].dur_us < 0.0) {
      spans_[top].dur_us = end_us - spans_[top].start_us;
    }
    if (top == id) return;
  }
  // `id` was not on this thread's stack (cross-thread end): close it
  // directly.
  if (spans_[id].dur_us < 0.0) spans_[id].dur_us = end_us - spans_[id].start_us;
}

std::size_t TraceCollector::spanCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t TraceCollector::openSpanCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t open = 0;
  for (const Span& s : spans_) {
    if (s.dur_us < 0.0) ++open;
  }
  return open;
}

std::vector<TraceCollector::Span> TraceCollector::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string TraceCollector::toChromeTraceJson() const {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  const double now_us =
      std::chrono::duration<double, std::micro>(now - epoch_).count();
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.dur_us >= 0.0 ? s.dur_us : now_us - s.start_us;
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << json::escape(s.name)
        << "\", \"cat\": \"safeflow\", \"ph\": \"X\", \"ts\": "
        << formatUs(s.start_us) << ", \"dur\": " << formatUs(dur)
        << ", \"pid\": 1, \"tid\": " << s.tid;
    if (!s.args.empty()) {
      out << ", \"args\": {";
      for (std::size_t a = 0; a < s.args.size(); ++a) {
        out << (a == 0 ? "" : ", ") << "\"" << json::escape(s.args[a].first)
            << "\": \"" << json::escape(s.args[a].second) << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  out << (spans_.empty() ? "]" : "\n]") << "}\n";
  return out.str();
}

std::int64_t TraceCollector::epochSteadyNs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             epoch_.time_since_epoch())
      .count();
}

std::string TraceCollector::spansToJsonArray() const {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  const double now_us =
      std::chrono::duration<double, std::micro>(now - epoch_).count();
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.dur_us >= 0.0 ? s.dur_us : now_us - s.start_us;
    out << (i == 0 ? "" : ", ") << "{\"name\": \"" << json::escape(s.name)
        << "\", \"tid\": " << s.tid << ", \"start_us\": "
        << formatUs(s.start_us) << ", \"dur_us\": " << formatUs(dur);
    if (!s.args.empty()) {
      out << ", \"args\": {";
      for (std::size_t a = 0; a < s.args.size(); ++a) {
        out << (a == 0 ? "" : ", ") << "\"" << json::escape(s.args[a].first)
            << "\": \"" << json::escape(s.args[a].second) << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  out << "]";
  return out.str();
}

std::string TraceCollector::selfTimeTable() const {
  struct Row {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    const double now_us =
        std::chrono::duration<double, std::micro>(now - epoch_).count();
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].dur_us >= 0.0 ? spans_[i].dur_us
                                        : now_us - spans_[i].start_us;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        const double dur = spans_[i].dur_us >= 0.0
                               ? spans_[i].dur_us
                               : now_us - spans_[i].start_us;
        self[static_cast<std::size_t>(spans_[i].parent)] -= dur;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& row = rows[spans_[i].name];
      ++row.count;
      row.total_us += spans_[i].dur_us >= 0.0 ? spans_[i].dur_us
                                              : now_us - spans_[i].start_us;
      row.self_us += self[i];
    }
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  std::ostringstream out;
  out << "span                                    count   total(ms)    "
         "self(ms)\n";
  for (const auto& [name, row] : sorted) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%-38s %6llu %11.3f %11.3f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_us / 1e3, row.self_us / 1e3);
    out << buf;
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Resource usage

ResourceSample sampleResourceUsage() {
  ResourceSample sample;
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return sample;
  sample.user_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                        static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  sample.sys_seconds = static_cast<double>(usage.ru_stime.tv_sec) +
                       static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  // Linux reports ru_maxrss in KiB already.
  sample.max_rss_kb = static_cast<std::uint64_t>(
      usage.ru_maxrss > 0 ? usage.ru_maxrss : 0);
  return sample;
}

// ---------------------------------------------------------------------------
// Observer plumbing

namespace {
thread_local PipelineObserver* g_observer = nullptr;
}  // namespace

PipelineObserver* currentObserver() { return g_observer; }

ScopedObserver::ScopedObserver(PipelineObserver* obs) : prev_(g_observer) {
  g_observer = obs;
}

ScopedObserver::~ScopedObserver() { g_observer = prev_; }

}  // namespace safeflow::support
