#include "support/limits.h"

#include <cerrno>
#include <cstdlib>

#include "support/flight_recorder.h"
#include "support/metrics.h"

namespace safeflow::support {

void AnalysisBudget::start() {
  if (started_) return;
  started_ = true;
  if (limits_.time_seconds > 0.0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(limits_.time_seconds));
  }
}

void AnalysisBudget::beginPhase(std::string phase) {
  phase_ = std::move(phase);
  phase_steps_ = 0;
  until_time_check_ = 0;
  exhausted_ = false;
}

bool AnalysisBudget::stepSlow(std::uint64_t n) {
  phase_steps_ += n;
  if (limits_.phase_steps > 0 && phase_steps_ > limits_.phase_steps) {
    trip("steps");
    return false;
  }
  if (started_ && limits_.time_seconds > 0.0) {
    if (until_time_check_ <= n) {
      until_time_check_ = kTimeCheckInterval;
      if (std::chrono::steady_clock::now() >= deadline_) {
        trip("time");
        return false;
      }
    } else {
      until_time_check_ -= n;
    }
  }
  return true;
}

void AnalysisBudget::trip(const char* reason) {
  exhausted_ = true;
  events_.push_back(BudgetEvent{phase_, reason, phase_steps_});
  SAFEFLOW_COUNT("budget.exhausted");
  flightRecord("budget", phase_ + " " + reason + " limit");
}

bool AnalysisBudget::phaseDegraded(std::string_view phase) const {
  for (const BudgetEvent& e : events_) {
    if (e.phase == phase) return true;
  }
  return false;
}

bool parseDuration(std::string_view text, double* seconds) {
  if (text.empty()) return false;
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || errno == ERANGE || value < 0.0) return false;
  const std::string_view unit = buf.c_str() + (end - buf.c_str());
  double scale = 1.0;
  if (unit == "s" || unit.empty()) {
    scale = 1.0;
  } else if (unit == "ms") {
    scale = 1e-3;
  } else if (unit == "us") {
    scale = 1e-6;
  } else if (unit == "m" || unit == "min") {
    scale = 60.0;
  } else {
    return false;
  }
  *seconds = value * scale;
  return true;
}

}  // namespace safeflow::support
