#include "ir/callgraph.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "support/metrics.h"

namespace safeflow::ir {

namespace {
constexpr std::string_view kFnAddrPrefix = "@fnaddr.";
}

CallGraph::CallGraph(const Module& module) : module_(module) {
  const support::ScopedTimer timer("phase.callgraph");
  // Address-taken functions (represented by @fnaddr.<name> globals created
  // during lowering).
  for (const auto& g : module.globals()) {
    const std::string_view name = g->name();
    if (name.starts_with(kFnAddrPrefix)) {
      if (const Function* f =
              module.findFunction(name.substr(kFnAddrPrefix.size()))) {
        address_taken_.push_back(f);
      }
    }
  }

  const auto& functions = module.functions();
  for (std::size_t i = 0; i < functions.size(); ++i) {
    position_.emplace(functions[i], i);
  }
  callees_.resize(functions.size());
  callers_.resize(functions.size());
  // Callers are appended in module order, each once (its calls are
  // consecutive); reading them back per callee lists callees likewise.
  for (const auto& fn : functions) {
    if (!fn->isDefined()) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != Opcode::kCall) continue;
        for (const Function* target : targets(*inst)) {
          auto& callers = callers_[position(target)];
          if (callers.empty() || callers.back() != fn) {
            callers.push_back(fn);
          }
        }
      }
    }
  }
  for (const auto& fn : functions) {
    for (const Function* caller : callers(fn)) {
      callees_[position(caller)].push_back(fn);
    }
  }
  computeSccs();
  std::size_t edges = 0;
  for (const auto& cs : callees_) edges += cs.size();
  SAFEFLOW_COUNT_N("callgraph.edges", edges);
  SAFEFLOW_COUNT_N("callgraph.address_taken", address_taken_.size());
  SAFEFLOW_GAUGE("callgraph.sccs", sccs_.size());
  SAFEFLOW_GAUGE("callgraph.recursive_functions", recursive_.size());
}

std::vector<const Function*> CallGraph::targets(
    const Instruction& call) const {
  assert(call.opcode() == Opcode::kCall);
  if (call.direct_callee != nullptr) return {call.direct_callee};
  return address_taken_;  // conservative indirect resolution
}

const std::vector<const Function*>& CallGraph::callees(
    const Function* fn) const {
  return callees_[position(fn)];
}

const std::vector<const Function*>& CallGraph::callers(
    const Function* fn) const {
  return callers_[position(fn)];
}

void CallGraph::computeSccs() {
  // Tarjan's algorithm, iterative to survive deep graphs.
  std::map<const Function*, int> index;
  std::map<const Function*, int> lowlink;
  std::map<const Function*, bool> on_stack;
  std::vector<const Function*> stack;
  int next_index = 0;

  struct Frame {
    const Function* fn;
    std::size_t next_succ = 0;
  };

  auto strongConnect = [&](const Function* root) {
    std::vector<Frame> frames;
    auto open = [&](const Function* fn) {
      index[fn] = lowlink[fn] = next_index++;
      stack.push_back(fn);
      on_stack[fn] = true;
      frames.push_back(Frame{fn, 0});
    };
    open(root);
    while (!frames.empty()) {
      Frame& top = frames.back();
      const auto& succs = callees(top.fn);
      if (top.next_succ < succs.size()) {
        const Function* succ = succs[top.next_succ++];
        if (!index.contains(succ)) {
          open(succ);
        } else if (on_stack[succ]) {
          lowlink[top.fn] = std::min(lowlink[top.fn], index[succ]);
        }
        continue;
      }
      // Close this frame.
      if (lowlink[top.fn] == index[top.fn]) {
        std::vector<const Function*> scc;
        while (true) {
          const Function* v = stack.back();
          stack.pop_back();
          on_stack[v] = false;
          scc.push_back(v);
          if (v == top.fn) break;
        }
        if (scc.size() > 1) {
          for (const Function* f : scc) recursive_.insert(f);
        } else if (std::ranges::find(succs, scc[0]) != succs.end()) {
          recursive_.insert(scc[0]);  // self-recursion
        }
        sccs_.push_back(std::move(scc));
      }
      const Function* closed = top.fn;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().fn] =
            std::min(lowlink[frames.back().fn], lowlink[closed]);
      }
    }
  };

  // Roots and successors in module order, so the SCC order does not
  // depend on where the functions were allocated.
  for (const auto& fn : module_.functions()) {
    if (!index.contains(fn)) strongConnect(fn);
  }
  // Tarjan emits SCCs in reverse topological order of the condensation,
  // which for a call graph is exactly callee-before-caller (bottom-up).
}

std::vector<std::vector<const Function*>> CallGraph::sccsTopDown() const {
  std::vector<std::vector<const Function*>> out(sccs_.rbegin(),
                                                sccs_.rend());
  return out;
}

bool CallGraph::isRecursive(const Function* fn) const {
  return recursive_.contains(fn);
}

FunctionWorklist::FunctionWorklist(
    const CallGraph& graph,
    const std::function<bool(const Function&)>& member)
    : graph_(graph),
      member_(graph.module().functions().size(), 0),
      queued_(member_.size(), 0) {
  for (const auto& fn : graph.module().functions()) {
    member_[graph.position(fn)] = member(*fn) ? 1 : 0;
  }
  for (const auto& scc : graph.sccsBottomUp()) {
    for (const Function* fn : scc) push(graph.position(fn));
  }
}

const Function* FunctionWorklist::pop() {
  std::sort(woken_.begin(), woken_.end());
  for (const std::size_t at : woken_) push(at);
  woken_.clear();
  if (queue_.empty()) return nullptr;
  const Function* fn = queue_.front();
  queue_.pop_front();
  queued_[graph_.position(fn)] = 0;
  return fn;
}

void FunctionWorklist::push(std::size_t at) {
  if (member_[at] == 0 || queued_[at] != 0) return;
  queued_[at] = 1;
  queue_.push_back(graph_.module().functions()[at]);
  ++pushes_;
}

void FunctionWorklist::wake(const Function* fn) {
  woken_.push_back(graph_.position(fn));
}

void FunctionWorklist::wakeCallers(const Function* fn) {
  for (const Function* caller : graph_.callers(fn)) {
    if (caller != fn) wake(caller);
  }
}

}  // namespace safeflow::ir
