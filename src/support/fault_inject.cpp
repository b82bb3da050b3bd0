#include "support/fault_inject.h"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "support/flight_recorder.h"

namespace safeflow::support {

namespace {

enum class FaultKind { kNone, kCrash, kHang, kOom, kExit2 };

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  std::string phase;
  unsigned nth = 1;
  unsigned hits = 0;
};

std::atomic<bool> g_armed{false};
FaultSpec g_spec;  // written once by armWorkerFaultInjection, then read-only

[[noreturn]] void trigger(FaultKind kind) {
  // Deliberate fatal path: flush the flight recorder to stderr first so
  // the supervisor's postmortem (worker_failures.flight_recorder) names
  // the phase and the events leading up to the death. For kCrash the
  // recorder is dumped here because the SIGSEGV below runs with the
  // default disposition (no handler gets a chance); for kHang the dump
  // happens before the watchdog's SIGKILL can land.
  flightRecord("worker", "fault-injection trigger");
  flightRecorderDump(STDERR_FILENO);
  switch (kind) {
    case FaultKind::kCrash:
      // Restore the default disposition so a sanitizer's SEGV handler
      // cannot convert the death into a plain exit: the supervisor must
      // see WIFSIGNALED(SIGSEGV).
      std::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      break;
    case FaultKind::kHang:
      for (;;) ::sleep(3600);
    case FaultKind::kOom:
      // Emulate the OOM killer's SIGKILL without destabilizing the host.
      ::raise(SIGKILL);
      break;
    default:
      break;
  }
  std::_Exit(2);  // kExit2 (and the unreachable fallthroughs above)
}

bool parseSpec(const char* text, FaultSpec* spec) {
  const std::string s(text);
  const std::size_t at = s.find('@');
  if (at == std::string::npos) return false;
  const std::string kind = s.substr(0, at);
  std::string rest = s.substr(at + 1);
  if (kind == "crash") spec->kind = FaultKind::kCrash;
  else if (kind == "hang") spec->kind = FaultKind::kHang;
  else if (kind == "oom") spec->kind = FaultKind::kOom;
  else if (kind == "exit2") spec->kind = FaultKind::kExit2;
  else return false;
  const std::size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    const std::string nth = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
    char* end = nullptr;
    const unsigned long n = std::strtoul(nth.c_str(), &end, 10);
    if (end == nth.c_str() || *end != '\0' || n == 0) return false;
    spec->nth = static_cast<unsigned>(n);
  }
  if (rest.empty()) return false;
  spec->phase = rest;
  return true;
}

}  // namespace

void armWorkerFaultInjection() {
  const char* spec_text = std::getenv("SAFEFLOW_INJECT_FAULT");
  if (spec_text == nullptr || *spec_text == '\0') return;

  if (const char* attempts = std::getenv("SAFEFLOW_INJECT_FAULT_ATTEMPTS");
      attempts != nullptr && *attempts != '\0') {
    const char* attempt = std::getenv("SAFEFLOW_WORKER_ATTEMPT");
    const unsigned long limit = std::strtoul(attempts, nullptr, 10);
    const unsigned long current =
        attempt != nullptr ? std::strtoul(attempt, nullptr, 10) : 1;
    if (current > limit) return;  // past the faulty attempts: run clean
  }

  FaultSpec spec;
  if (!parseSpec(spec_text, &spec)) return;  // malformed spec: stay inert
  g_spec = spec;
  g_armed.store(true, std::memory_order_release);
}

bool faultInjectionArmed() {
  return g_armed.load(std::memory_order_acquire);
}

void faultInjectionPoint(const char* phase) {
  // Every pipeline stage announces itself here, so this is also the
  // flight recorder's phase-entry hook: the ring always knows which
  // phase the process died in, fault-injected or not.
  flightRecord("phase", phase);
  if (!g_armed.load(std::memory_order_relaxed)) return;
  if (g_spec.phase != phase) return;
  if (++g_spec.hits < g_spec.nth) return;
  trigger(g_spec.kind);
}

}  // namespace safeflow::support
