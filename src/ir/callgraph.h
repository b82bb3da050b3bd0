// Call graph with Tarjan SCCs, providing the bottom-up / top-down
// traversal orders used by the paper's interprocedural phases, and the one
// function worklist those phases share.
// Indirect calls (through function pointers) are resolved conservatively
// to every address-taken function. Nothing is ordered by address, so two
// modules built from one program are walked alike.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

#include "ir/ir.h"

namespace safeflow::ir {

class CallGraph {
 public:
  explicit CallGraph(const Module& module);

  /// Distinct callees and callers of `fn`, in module order.
  [[nodiscard]] const std::vector<const Function*>& callees(
      const Function* fn) const;
  [[nodiscard]] const std::vector<const Function*>& callers(
      const Function* fn) const;

  /// Possible targets of one call instruction (singleton for direct calls).
  [[nodiscard]] std::vector<const Function*> targets(
      const Instruction& call) const;

  /// Strongly connected components in bottom-up (callee-first) order.
  [[nodiscard]] const std::vector<std::vector<const Function*>>&
  sccsBottomUp() const {
    return sccs_;
  }
  /// The same SCCs in top-down (caller-first) order.
  [[nodiscard]] std::vector<std::vector<const Function*>> sccsTopDown() const;

  /// True when fn participates in a cycle (including self-recursion).
  [[nodiscard]] bool isRecursive(const Function* fn) const;

  /// True for an entry function: one no call reaches, or main.
  [[nodiscard]] bool isRoot(const Function* fn) const {
    return callers(fn).empty() || fn->name() == "main";
  }
  /// The address-taken functions, every indirect call's targets.
  [[nodiscard]] const std::vector<const Function*>& addressTaken() const {
    return address_taken_;
  }

  /// fn's index in module().functions().
  [[nodiscard]] std::size_t position(const Function* fn) const {
    return position_.at(fn);
  }
  [[nodiscard]] const Module& module() const { return module_; }

 private:
  void computeSccs();

  const Module& module_;
  std::unordered_map<const Function*, std::size_t> position_;
  /// By module position.
  std::vector<std::vector<const Function*>> callees_;
  std::vector<std::vector<const Function*>> callers_;
  std::vector<const Function*> address_taken_;
  std::vector<std::vector<const Function*>> sccs_;
  std::set<const Function*> recursive_;
};

/// The schedule of shm propagation, ranges and summary-mode taint
/// (DESIGN.md §21): every member function seeded bottom-up over the SCCs,
/// popped first in first out. A visit wakes the functions that read what
/// it grew; the next pop() queues them in module order, so a visit and
/// its memoized replay, which wake one set in different orders, leave the
/// same queue.
class FunctionWorklist {
 public:
  FunctionWorklist(const CallGraph& graph,
                   const std::function<bool(const Function&)>& member);

  /// The next function to visit, or nullptr once nothing is queued.
  const Function* pop();
  /// Queues `fn` at the next pop() unless it is queued or not a member.
  void wake(const Function* fn);
  /// Wakes fn's callers but fn, whose own solve read its grown return.
  void wakeCallers(const Function* fn);
  /// Functions queued so far, seeds included.
  [[nodiscard]] std::size_t pushes() const { return pushes_; }

 private:
  void push(std::size_t at);

  const CallGraph& graph_;
  std::vector<std::uint8_t> member_;  ///< by module position
  std::vector<std::uint8_t> queued_;
  std::deque<const Function*> queue_;
  std::vector<std::size_t> woken_;  ///< positions woken since the last pop
  std::size_t pushes_ = 0;
};

}  // namespace safeflow::ir
