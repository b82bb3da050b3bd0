// CFG facts of one function, computed together and kept for the run: a
// reverse-postorder numbering, successor and predecessor lists, the
// dominator tree (Cooper–Harvey–Kennedy) with its dominance frontiers, and
// the post-dominator tree with the control dependence it defines
// (Ferrante–Ottenstein–Warren). SSA construction, the range analysis and
// the taint phase all read them through Function::cfg().
//
// Every fact lives in an array indexed by block number, allocated from the
// module's arena like the function itself. Blocks reachable
// from the entry are numbered 0..reachableCount()-1 in reverse postorder
// (the entry is 0); the unreachable ones follow in layout order. Lists are
// stored compressed (CSR): the list of block n is list[start[n] ..
// start[n + 1]).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory_resource>
#include <span>
#include <utility>
#include <vector>

#include "ir/ir.h"

namespace safeflow::ir {

/// A read-only view of one CfgInfo list: block numbers resolved to
/// blocks. Valid as long as the CfgInfo that returned it.
class BlockList {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = BasicBlock*;
    using difference_type = std::ptrdiff_t;
    using pointer = BasicBlock* const*;
    using reference = BasicBlock*;

    Iterator() = default;
    Iterator(const std::uint32_t* at, BasicBlock* const* blocks)
        : at_(at), blocks_(blocks) {}
    BasicBlock* operator*() const { return blocks_[*at_]; }
    Iterator& operator++() {
      ++at_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++at_;
      return old;
    }
    bool operator==(const Iterator& o) const { return at_ == o.at_; }

   private:
    const std::uint32_t* at_ = nullptr;
    BasicBlock* const* blocks_ = nullptr;
  };

  BlockList(std::span<const std::uint32_t> numbers, BasicBlock* const* blocks)
      : numbers_(numbers), blocks_(blocks) {}

  [[nodiscard]] Iterator begin() const {
    return {numbers_.data(), blocks_};
  }
  [[nodiscard]] Iterator end() const {
    return {numbers_.data() + numbers_.size(), blocks_};
  }
  [[nodiscard]] std::size_t size() const { return numbers_.size(); }
  [[nodiscard]] bool empty() const { return numbers_.empty(); }
  [[nodiscard]] BasicBlock* operator[](std::size_t i) const {
    return blocks_[numbers_[i]];
  }
  [[nodiscard]] bool contains(const BasicBlock* bb) const;

 private:
  std::span<const std::uint32_t> numbers_;
  BasicBlock* const* blocks_;
};

class CfgInfo {
 public:
  /// Builds every fact for `fn`, whose CFG must be final (see
  /// Function::cfg()), in the arena of its module.
  explicit CfgInfo(const Function& fn);

  // -- numbering -----------------------------------------------------------
  /// Number of blocks, reachable or not.
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(blocks_.size());
  }
  /// Blocks numbered below this are reachable from the entry.
  [[nodiscard]] std::uint32_t reachableCount() const { return reachable_; }
  [[nodiscard]] std::uint32_t number(const BasicBlock* bb) const;
  [[nodiscard]] BasicBlock* block(std::uint32_t n) const { return blocks_[n]; }
  [[nodiscard]] bool reachable(const BasicBlock* bb) const {
    return number(bb) < reachable_;
  }

  // -- edges ---------------------------------------------------------------
  /// The terminator's targets in operand order; a target named twice is
  /// listed twice.
  [[nodiscard]] BlockList successors(const BasicBlock* bb) const;
  /// One entry per incoming edge, unreachable sources included.
  [[nodiscard]] BlockList predecessors(const BasicBlock* bb) const;

  // -- dominators ----------------------------------------------------------
  /// Immediate dominator; nullptr for the entry and unreachable blocks.
  [[nodiscard]] const BasicBlock* idom(const BasicBlock* bb) const;
  /// Children in the dominator tree, in reverse postorder.
  [[nodiscard]] BlockList children(const BasicBlock* bb) const;
  /// Reflexive dominance in O(1). An unreachable block dominates only
  /// itself and is dominated only by itself.
  [[nodiscard]] bool dominates(const BasicBlock* a, const BasicBlock* b) const;
  /// Dominance frontier; empty for unreachable blocks.
  [[nodiscard]] BlockList frontier(const BasicBlock* bb) const;

  // -- post-dominators and control dependence ------------------------------
  /// Immediate post-dominator; nullptr when it is the virtual exit that
  /// joins every `ret`. A block with no path to a `ret` (an infinite loop)
  /// hangs directly under the virtual exit.
  [[nodiscard]] const BasicBlock* ipdom(const BasicBlock* bb) const;
  /// Reflexive post-dominance in O(1).
  [[nodiscard]] bool postDominates(const BasicBlock* a,
                                   const BasicBlock* b) const;
  /// Blocks whose conditional branch `bb` is control dependent on.
  [[nodiscard]] BlockList controllers(const BasicBlock* bb) const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  using Numbers = std::pmr::vector<std::uint32_t>;

  /// Compressed adjacency over block numbers.
  struct Csr {
    explicit Csr(std::pmr::memory_resource* arena)
        : start(arena), list(arena) {}
    Numbers start;
    Numbers list;

    [[nodiscard]] std::span<const std::uint32_t> of(std::uint32_t n) const {
      return {list.data() + start[n], list.data() + start[n + 1]};
    }
  };
  /// A tree over nodes 0..n-1 (one extra node for the virtual exit of the
  /// post-dominator tree), with DFS numbers for O(1) ancestor queries.
  struct Tree {
    explicit Tree(std::pmr::memory_resource* arena)
        : parent(arena), pre(arena), post(arena) {}
    Numbers parent;  ///< kNone for the root and outsiders
    Numbers pre;
    Numbers post;

    [[nodiscard]] bool ancestor(std::uint32_t a, std::uint32_t b) const {
      return pre[a] <= pre[b] && post[b] <= post[a];
    }
  };

  using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  /// Groups (from, to) edges by `from`, keeping their order within a group.
  static Csr compress(const Edges& edges, std::uint32_t nodes,
                      std::pmr::memory_resource* arena);
  /// Reverse postorder of the nodes reachable from `root`.
  static std::vector<std::uint32_t> reversePostorder(const Csr& succs,
                                                     std::uint32_t root);
  /// Cooper–Harvey–Kennedy: the immediate dominator of each node `rpo`
  /// lists (its first node, the root, is its own), kNone for the others.
  static std::vector<std::uint32_t> immediateDominators(
      const Csr& preds, const std::vector<std::uint32_t>& rpo);
  /// The tree of the parent links `parent` (kNone for the root and for
  /// nodes outside it), in `arena`: its children lists in node order (in
  /// the resource `children` holds), and DFS numbers.
  static Tree makeTree(const std::vector<std::uint32_t>& parent,
                       std::uint32_t root, Csr* children,
                       std::pmr::memory_resource* arena);
  CfgInfo(const Function& fn, std::pmr::memory_resource* arena);
  [[nodiscard]] BlockList list(const Csr& csr, const BasicBlock* bb) const {
    return {csr.of(number(bb)), blocks_.data()};
  }
  void buildDominators(std::pmr::memory_resource* arena);
  void buildPostDominators(std::pmr::memory_resource* arena);

  std::pmr::vector<BasicBlock*> blocks_;  ///< by number
  Numbers number_of_;                     ///< by BasicBlock::index()
  std::uint32_t reachable_ = 0;
  Csr succs_;
  Csr preds_;
  Tree dom_;
  Csr children_;
  Csr frontier_;
  Tree postdom_;  ///< node size() is the virtual exit
  Csr controllers_;
};

}  // namespace safeflow::ir
