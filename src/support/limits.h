// Analysis budgets and graceful degradation. Every fixpoint/worklist loop
// in the pipeline (phase-1 shm propagation, ranges, the alias analysis,
// phase-3 taint, the restriction checks) accounts its work against one
// AnalysisBudget owned by the driver. A budget combines
//
//   - a wall-clock deadline shared by the whole run (--time-budget) and
//   - a per-phase step cap (--step-budget).
//
// When a time or step limit trips, the current phase stops where it is, a
// BudgetEvent is recorded, and the phase marks its partial results
// *conservative*:
// unresolved values are treated as unsafe and unproven constraints as
// violations, so degradation can add findings but never hide one (see
// DESIGN.md "Budgets and graceful degradation"). The default-constructed
// budget is unlimited and adds one predictable branch per step, so runs
// without --time-budget/--step-budget behave byte-identically to a build
// without this layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace safeflow::support {

struct BudgetLimits {
  /// Wall-clock budget for the whole pipeline in seconds; <= 0 means
  /// unlimited. The clock starts at AnalysisBudget::start().
  double time_seconds = 0.0;
  /// Cap on work units per phase (worklist pops, instructions visited,
  /// functions checked); 0 means unlimited.
  std::uint64_t phase_steps = 0;

  [[nodiscard]] bool limited() const {
    return time_seconds > 0.0 || phase_steps > 0;
  }
};

/// One phase that ran out of budget.
struct BudgetEvent {
  std::string phase;
  std::string reason;        // "time" or "steps"
  std::uint64_t steps = 0;   // work units completed when the limit tripped
};

class AnalysisBudget {
 public:
  /// Unlimited budget: step() always succeeds and records nothing.
  AnalysisBudget() = default;
  explicit AnalysisBudget(BudgetLimits limits) : limits_(limits) {}

  [[nodiscard]] bool limited() const { return limits_.limited(); }
  [[nodiscard]] const BudgetLimits& limits() const { return limits_; }

  /// Latches the wall-clock deadline; idempotent. The driver calls this
  /// when the pipeline starts; phases entered before start() only check
  /// the step cap.
  void start();

  /// Switches step accounting to `phase`: resets the per-phase step count
  /// and the exhausted flag. The wall-clock deadline keeps running, so a
  /// phase entered after the deadline trips on its first step.
  void beginPhase(std::string phase);

  /// Accounts `n` units of work in the current phase. Returns true while
  /// the phase is within budget; from the first exhausted call onward it
  /// records a BudgetEvent and returns false. The wall clock is sampled
  /// every kTimeCheckInterval steps, so loops may overrun a deadline by at
  /// most that many steps.
  bool step(std::uint64_t n = 1) {
    if (!limited()) return true;
    if (exhausted_) return false;
    return stepSlow(n);
  }

  /// True once the *current* phase tripped a limit (reset by beginPhase).
  [[nodiscard]] bool exhausted() const { return exhausted_; }

  /// Every phase that degraded during this run, in trip order.
  [[nodiscard]] const std::vector<BudgetEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool anyDegraded() const { return !events_.empty(); }
  [[nodiscard]] bool phaseDegraded(std::string_view phase) const;

 private:
  static constexpr std::uint64_t kTimeCheckInterval = 64;

  bool stepSlow(std::uint64_t n);
  void trip(const char* reason);

  BudgetLimits limits_;
  bool started_ = false;
  bool exhausted_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::string phase_ = "pipeline";
  std::uint64_t phase_steps_ = 0;
  std::uint64_t until_time_check_ = 0;
  std::vector<BudgetEvent> events_;
};

/// Null-tolerant step helper for passes that hold an optional budget.
inline bool budgetStep(AnalysisBudget* budget, std::uint64_t n = 1) {
  return budget == nullptr || budget->step(n);
}

/// Null-tolerant phase switch.
inline void budgetBeginPhase(AnalysisBudget* budget, std::string phase) {
  if (budget != nullptr) budget->beginPhase(std::move(phase));
}

/// Parses a human duration ("250ms", "2s", "1500us", bare seconds like
/// "0.5") into seconds. Returns false on malformed input.
bool parseDuration(std::string_view text, double* seconds);

}  // namespace safeflow::support
