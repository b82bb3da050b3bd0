#include "ir/cfg.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace safeflow::ir {

bool BlockList::contains(const BasicBlock* bb) const {
  return std::any_of(numbers_.begin(), numbers_.end(),
                     [&](std::uint32_t n) { return blocks_[n] == bb; });
}

CfgInfo::Csr CfgInfo::compress(const Edges& edges, std::uint32_t nodes,
                               std::pmr::memory_resource* arena) {
  Csr csr(arena);
  csr.start.assign(nodes + 1, 0);
  for (const auto& edge : edges) ++csr.start[edge.first + 1];
  for (std::uint32_t n = 0; n < nodes; ++n) csr.start[n + 1] += csr.start[n];
  csr.list.resize(edges.size());
  std::vector<std::uint32_t> next(csr.start.begin(), csr.start.end() - 1);
  for (const auto& [from, to] : edges) csr.list[next[from]++] = to;
  return csr;
}

std::vector<std::uint32_t> CfgInfo::reversePostorder(const Csr& succs,
                                                     std::uint32_t root) {
  const auto nodes = static_cast<std::uint32_t>(succs.start.size() - 1);
  std::vector<std::uint32_t> order;
  std::vector<bool> seen(nodes, false);
  // (node, position of its next successor in succs.list)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack{
      {root, succs.start[root]}};
  seen[root] = true;
  while (!stack.empty()) {
    auto& [v, next] = stack.back();
    if (next < succs.start[v + 1]) {
      const std::uint32_t s = succs.list[next++];
      if (!seen[s]) {
        seen[s] = true;
        stack.emplace_back(s, succs.start[s]);
      }
    } else {
      order.push_back(v);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<std::uint32_t> CfgInfo::immediateDominators(
    const Csr& preds, const std::vector<std::uint32_t>& rpo) {
  const auto nodes = static_cast<std::uint32_t>(preds.start.size() - 1);
  std::vector<std::uint32_t> position(nodes, kNone);
  for (std::uint32_t i = 0; i < rpo.size(); ++i) position[rpo[i]] = i;
  std::vector<std::uint32_t> idom(nodes, kNone);
  idom[rpo.front()] = rpo.front();
  const auto intersect = [&](std::uint32_t a, std::uint32_t b) {
    while (a != b) {
      while (position[a] > position[b]) a = idom[a];
      while (position[b] > position[a]) b = idom[b];
    }
    return a;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 1; i < rpo.size(); ++i) {
      const std::uint32_t v = rpo[i];
      std::uint32_t next = kNone;
      for (const std::uint32_t p : preds.of(v)) {
        if (idom[p] == kNone) continue;  // unreached so far, or never
        next = next == kNone ? p : intersect(p, next);
      }
      if (next != kNone && next != idom[v]) {
        idom[v] = next;
        changed = true;
      }
    }
  }
  return idom;
}

CfgInfo::Tree CfgInfo::makeTree(const std::vector<std::uint32_t>& parent,
                                std::uint32_t root, Csr* children,
                                std::pmr::memory_resource* arena) {
  const auto nodes = static_cast<std::uint32_t>(parent.size());
  Edges edges;
  for (std::uint32_t v = 0; v < nodes; ++v) {
    if (parent[v] != kNone) edges.emplace_back(parent[v], v);
  }
  *children =
      compress(edges, nodes, children->start.get_allocator().resource());
  Tree tree(arena);
  tree.parent.assign(parent.begin(), parent.end());
  tree.pre.assign(nodes, kNone);
  tree.post.assign(nodes, kNone);
  std::uint32_t pre = 0;
  std::uint32_t post = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack{
      {root, children->start[root]}};
  tree.pre[root] = pre++;
  while (!stack.empty()) {
    auto& [v, next] = stack.back();
    if (next < children->start[v + 1]) {
      const std::uint32_t c = children->list[next++];
      tree.pre[c] = pre++;
      stack.emplace_back(c, children->start[c]);
    } else {
      tree.post[v] = post++;
      stack.pop_back();
    }
  }
  return tree;
}

CfgInfo::CfgInfo(const Function& fn) : CfgInfo(fn, fn.parent()->arena()) {}

// Scratch lists go to the heap and are freed on return; only the facts
// kept for the run take arena memory.
CfgInfo::CfgInfo(const Function& fn, std::pmr::memory_resource* arena)
    : blocks_(arena),
      number_of_(arena),
      succs_(arena),
      preds_(arena),
      dom_(arena),
      children_(arena),
      frontier_(arena),
      postdom_(arena),
      controllers_(arena) {
  const auto n = static_cast<std::uint32_t>(fn.blocks().size());
  if (n == 0) return;
  std::pmr::memory_resource* const scratch = std::pmr::get_default_resource();

  // Edges by layout index first, to find the reverse postorder.
  Edges edges;
  for (const BasicBlock* bb : fn.blocks()) {
    const Instruction* term = bb->terminator();
    if (term == nullptr) continue;
    for (const BasicBlock* s : term->block_refs) {
      assert(s->parent() == &fn && "branch to another function's block");
      edges.emplace_back(bb->index(), s->index());
    }
  }
  const std::vector<std::uint32_t> rpo =
      reversePostorder(compress(edges, n, scratch), 0);
  reachable_ = static_cast<std::uint32_t>(rpo.size());
  number_of_.assign(n, kNone);
  blocks_.reserve(n);
  for (const std::uint32_t index : rpo) {
    number_of_[index] = static_cast<std::uint32_t>(blocks_.size());
    blocks_.push_back(fn.blocks()[index]);
  }
  for (std::uint32_t index = 0; index < n; ++index) {
    if (number_of_[index] != kNone) continue;
    number_of_[index] = static_cast<std::uint32_t>(blocks_.size());
    blocks_.push_back(fn.blocks()[index]);
  }

  for (auto& [from, to] : edges) {
    from = number_of_[from];
    to = number_of_[to];
  }
  succs_ = compress(edges, n, arena);
  for (auto& [from, to] : edges) std::swap(from, to);
  preds_ = compress(edges, n, arena);

  buildDominators(arena);
  buildPostDominators(arena);
}

void CfgInfo::buildDominators(std::pmr::memory_resource* arena) {
  const std::uint32_t n = size();
  // The numbering is the reverse postorder, so CHK walks it directly.
  std::vector<std::uint32_t> rpo(reachable_);
  std::iota(rpo.begin(), rpo.end(), 0);
  std::vector<std::uint32_t> idom = immediateDominators(preds_, rpo);

  // Dominance frontiers (Cytron et al.): from each predecessor of a block,
  // walk up the tree to the block's idom.
  Edges frontier;
  std::vector<std::uint32_t> last(n, kNone);  // last block added to each DF
  for (std::uint32_t v = 0; v < reachable_; ++v) {
    for (std::uint32_t runner : preds_.of(v)) {
      if (runner >= reachable_) continue;
      while (runner != idom[v] && last[runner] != v) {
        last[runner] = v;
        frontier.emplace_back(runner, v);
        runner = idom[runner];
      }
    }
  }
  frontier_ = compress(frontier, n, arena);

  idom[0] = kNone;
  dom_ = makeTree(idom, 0, &children_, arena);
}

void CfgInfo::buildPostDominators(std::pmr::memory_resource* arena) {
  std::pmr::memory_resource* const scratch = std::pmr::get_default_resource();
  const std::uint32_t n = size();
  const std::uint32_t exit = n;
  // The reverse CFG, rooted at a virtual exit that every `ret` block
  // reaches.
  Edges edges;
  std::vector<bool> reaches_exit(n, false);
  std::vector<std::uint32_t> work;
  for (std::uint32_t v = 0; v < n; ++v) {
    const Instruction* term = blocks_[v]->terminator();
    if (term != nullptr && term->opcode() == Opcode::kRet) {
      edges.emplace_back(exit, v);
      reaches_exit[v] = true;
      work.push_back(v);
    }
  }
  while (!work.empty()) {
    const std::uint32_t v = work.back();
    work.pop_back();
    for (const std::uint32_t p : preds_.of(v)) {
      if (!reaches_exit[p]) {
        reaches_exit[p] = true;
        work.push_back(p);
      }
    }
  }
  // A block with no path to a ret (an infinite loop) would have no
  // post-dominator at all; hang it under the virtual exit, so nothing is
  // control dependent on the exits of a loop that has none.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!reaches_exit[v]) edges.emplace_back(exit, v);
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    for (const std::uint32_t p : preds_.of(v)) edges.emplace_back(v, p);
  }
  const std::vector<std::uint32_t> rpo =
      reversePostorder(compress(edges, n + 1, scratch), exit);
  for (auto& [from, to] : edges) std::swap(from, to);
  std::vector<std::uint32_t> ipdom =
      immediateDominators(compress(edges, n + 1, scratch), rpo);
  ipdom[exit] = kNone;
  Csr children(scratch);
  postdom_ = makeTree(ipdom, exit, &children, arena);

  // Control dependence (Ferrante–Ottenstein–Warren): for each edge a -> s
  // out of a conditional branch where s does not post-dominate a, every
  // block from s up to, not including, ipdom(a) depends on a.
  Edges deps;
  std::vector<std::uint32_t> last(n, kNone);  // last controller recorded
  for (std::uint32_t a = 0; a < n; ++a) {
    const Instruction* term = blocks_[a]->terminator();
    if (term == nullptr || term->opcode() != Opcode::kCondBr) continue;
    const std::uint32_t stop = postdom_.parent[a];
    for (std::uint32_t runner : succs_.of(a)) {
      if (postdom_.ancestor(runner, a)) continue;
      while (runner != exit && runner != stop && last[runner] != a) {
        last[runner] = a;
        deps.emplace_back(runner, a);
        runner = postdom_.parent[runner];
      }
    }
  }
  controllers_ = compress(deps, n, arena);
}

std::uint32_t CfgInfo::number(const BasicBlock* bb) const {
  assert(bb->index() < number_of_.size() &&
         blocks_[number_of_[bb->index()]] == bb &&
         "block of another function");
  return number_of_[bb->index()];
}

BlockList CfgInfo::successors(const BasicBlock* bb) const {
  return list(succs_, bb);
}

BlockList CfgInfo::predecessors(const BasicBlock* bb) const {
  return list(preds_, bb);
}

const BasicBlock* CfgInfo::idom(const BasicBlock* bb) const {
  const std::uint32_t parent = dom_.parent[number(bb)];
  return parent == kNone ? nullptr : blocks_[parent];
}

BlockList CfgInfo::children(const BasicBlock* bb) const {
  return list(children_, bb);
}

bool CfgInfo::dominates(const BasicBlock* a, const BasicBlock* b) const {
  if (a == b) return true;
  const std::uint32_t na = number(a);
  const std::uint32_t nb = number(b);
  return na < reachable_ && nb < reachable_ && dom_.ancestor(na, nb);
}

BlockList CfgInfo::frontier(const BasicBlock* bb) const {
  return list(frontier_, bb);
}

const BasicBlock* CfgInfo::ipdom(const BasicBlock* bb) const {
  const std::uint32_t parent = postdom_.parent[number(bb)];
  return parent == size() ? nullptr : blocks_[parent];
}

bool CfgInfo::postDominates(const BasicBlock* a, const BasicBlock* b) const {
  return postdom_.ancestor(number(a), number(b));
}

BlockList CfgInfo::controllers(const BasicBlock* bb) const {
  return list(controllers_, bb);
}

}  // namespace safeflow::ir
