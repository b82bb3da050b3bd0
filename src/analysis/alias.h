// Andersen-style inclusion-based points-to analysis — the stand-in for
// the paper's Data Structure Analysis (DSA), consumed by taint, ranges,
// and the summary store. A constraint graph (addr-of / copy / load /
// store / field-offset) is generated from the SSA IR and solved with a
// worklist plus periodic Tarjan SCC condensation: copy cycles (the
// classic worklist killer) collapse onto one representative node, so the
// solve stays near-linear on the deep phi/copy chains embedded control
// code produces.
//
// Points-to sets are ObjSets: sparse bitsets of 64-bit words. Difference
// propagation moves a node's pending delta to each successor with one
// word-wise union, and pointsTo() hands out the representative node's
// set by reference, so every value of a collapsed cycle shares one set.
// The worklist fires the least recently fired node first, so a delta
// that many callers push into one shared copy chain crosses it once
// rather than once per caller; an offset constraint fires with one union
// per delta.
//
// Objects are allocas, globals, declared shm regions, field cells, and
// one "unknown" object for externals. Field sensitivity is byte-offset
// based: every struct/union/region base object can grow sub-object
// "cells" identified by (byte offset, size) within the base. Constant
// pointer arithmetic (`p + k`) resolves to the cell at the right offset
// instead of collapsing to the whole object; arrays still collapse
// element-wise (offsets are normalized modulo the element stride — the
// paper treats an array in shared memory as one unit); a constant offset
// that lands outside a non-array base resolves to the unknown object.
// Union members become distinct overlapping cells (per Miné's
// field-sensitive model) linked so stores through one member's cell are
// visible through the others, rather than punting the whole union to
// unknown.
//
// Degradation contract (AnalysisBudget): if the budget trips mid-solve,
// every tracked pointer-typed value additionally points at the unknown
// object, also one the cut-short solve left empty — results only ever
// widen, never tighten.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/shm_regions.h"
#include "ir/callgraph.h"
#include "ir/ir.h"
#include "support/limits.h"

namespace safeflow::analysis {

using ObjId = int;

/// A set of object ids as a sparse bitset: (word index, 64-bit word)
/// pairs sorted by index, with no all-zero word, so two sets with the
/// same members compare equal. Iterates ids in ascending order. Unions
/// walk both word lists once and OR whole words in place; only a word
/// index the set has never held makes it reallocate.
class ObjSet {
  struct Word {
    std::uint32_t index;  // holds ids [64 * index, 64 * index + 63]
    std::uint64_t bits;
    bool operator==(const Word&) const = default;
  };
  using Words = std::vector<Word>;

 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ObjId;
    using difference_type = std::ptrdiff_t;
    using pointer = const ObjId*;
    using reference = ObjId;

    const_iterator() = default;
    ObjId operator*() const {
      return static_cast<ObjId>(64 * word_->index +
                                static_cast<unsigned>(std::countr_zero(bits_)));
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;  // drop the lowest member
      if (bits_ == 0 && ++word_ != end_) bits_ = word_->bits;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const {
      return word_ == o.word_ && bits_ == o.bits_;
    }

   private:
    friend class ObjSet;
    const_iterator(Words::const_iterator word, Words::const_iterator end)
        : word_(word), end_(end), bits_(word != end ? word->bits : 0) {}
    Words::const_iterator word_{};
    Words::const_iterator end_{};
    std::uint64_t bits_ = 0;  // members of *word_ not yet visited
  };

  /// Adds `id`; false when it was already a member.
  bool insert(ObjId id);
  [[nodiscard]] bool contains(ObjId id) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return words_.empty(); }
  void clear() { words_.clear(); }
  /// this ∪= src; true when the set grew.
  bool unionWith(const ObjSet& src) { return orMasked(src, nullptr); }
  /// this ∪= src, and added ∪= (src \ this) — exactly the members that
  /// were new here. `added` must be a different set from both.
  bool unionWith(const ObjSet& src, ObjSet& added) {
    added.orMasked(src, this);
    return orMasked(src, nullptr);
  }
  /// True when the two sets share a member.
  [[nodiscard]] bool intersects(const ObjSet& other) const;
  /// The members of this set that are also in `other`.
  [[nodiscard]] ObjSet intersection(const ObjSet& other) const;
  bool operator==(const ObjSet&) const = default;
  [[nodiscard]] const_iterator begin() const {
    return {words_.begin(), words_.end()};
  }
  [[nodiscard]] const_iterator end() const {
    return {words_.end(), words_.end()};
  }

 private:
  /// ORs into this set the members of `src` that are not in `except`
  /// (null: none excluded); true when the set grew.
  bool orMasked(const ObjSet& src, const ObjSet* except);
  /// The word at `index` (0 when absent). `cursor` only moves forward:
  /// successive calls must ask for ascending indices.
  std::uint64_t bitsAt(std::uint32_t index, std::size_t& cursor) const;

  Words words_;
};

struct AliasOptions {
  /// Off: field addresses and constant pointer arithmetic stay on the
  /// object they start from (no cells). Part of the summary config
  /// fingerprint.
  bool field_sensitive = true;
};

class AliasAnalysis {
 public:
  /// Structural identity of an object, exposed so the summary layer can
  /// derive names that are stable across runs (ObjId allocation order is
  /// an implementation detail).
  enum class ObjKind { kAlloca, kGlobal, kRegion, kField, kUnknown };

  AliasAnalysis(const ir::Module& module, const ShmRegionTable& regions,
                const ir::CallGraph& callgraph, AliasOptions options = {},
                support::AnalysisBudget* budget = nullptr);

  /// Generates constraints and solves to a fixpoint, or until the budget
  /// trips; on exhaustion every tracked pointer, resolved or not yet,
  /// additionally points at the unknown object, so consumers treat
  /// partially-resolved pointers as unresolved (unsafe). Emits the
  /// pointsto.* and alias.* counters.
  void run();

  // pointsTo() hands out references into the solver's own nodes.
  AliasAnalysis(const AliasAnalysis&) = delete;
  AliasAnalysis& operator=(const AliasAnalysis&) = delete;

  /// Objects the pointer value may point at, overlapping sibling cells
  /// included (empty when not a pointer or nothing is known — treat as
  /// "no memory effect"). Values in one collapsed cycle share one set;
  /// the reference lives as long as the analysis.
  [[nodiscard]] const ObjSet& pointsTo(const ir::Value* v) const;

  /// The shm region an object denotes, or -1.
  [[nodiscard]] int regionOf(ObjId obj) const;
  /// (byte offset within the root object, size). Cells report their
  /// exact resolved extent; base objects report (0, object size).
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> extentOf(
      ObjId obj) const;
  [[nodiscard]] bool isUnknown(ObjId obj) const { return obj == unknown_; }
  /// Root object of a field cell, or -1 for base objects.
  [[nodiscard]] ObjId parentOf(ObjId obj) const;
  /// Display name. Alloca objects are qualified with their owning
  /// function ("fn::name") so names are unambiguous across functions.
  [[nodiscard]] std::string describe(ObjId obj) const;
  [[nodiscard]] ObjKind kindOf(ObjId obj) const {
    return objects_[static_cast<std::size_t>(obj)].kind;
  }
  /// Alloca instruction or global var anchoring the object (null for
  /// regions/fields/unknown).
  [[nodiscard]] const ir::Value* anchorOf(ObjId obj) const {
    return objects_[static_cast<std::size_t>(obj)].anchor;
  }
  /// Declared field index within the root's layout (kField only).
  [[nodiscard]] unsigned fieldIndexOf(ObjId obj) const {
    return objects_[static_cast<std::size_t>(obj)].field;
  }
  /// True when the budget tripped mid-solve (results were widened).
  [[nodiscard]] bool degraded() const { return degraded_; }

 private:
  struct Cell {
    std::int64_t offset;
    std::int64_t size;
    ObjId id;
  };

  struct Object {
    ObjKind kind = ObjKind::kUnknown;
    const ir::Value* anchor = nullptr;  // alloca inst or global var
    int region_id = -1;
    ObjId parent = -1;       // root base object (cells only)
    unsigned field = 0;      // declared field index (cells only)
    std::int64_t offset = 0;  // byte offset within the root (cells only)
    std::int64_t size = 0;
    // Root objects: element stride for array collapse (== size when the
    // object is not array-like) and the element layout for field naming.
    std::int64_t stride = 0;
    const cfront::StructType* layout = nullptr;
    std::string name;
    int node = -1;  // lazily-created content node
    // Cells of the same root whose byte ranges intersect this one
    // (union punning, misaligned views). Kept sorted/deduped.
    std::vector<ObjId> overlaps;
    // Root objects: their cells, sorted by (offset, size).
    std::vector<Cell> cells;
  };

  // A complex constraint attached to the pointer node whose points-to
  // set drives it.
  struct Constraint {
    enum class Kind {
      kLoad,   // dst ⊇ *this: content(o) → other for each o in pts
      kStore,  // *this ⊇ src: other → content(o) for each o in pts
      kOffset  // dst ⊇ this ⊕ delta: resolve cell at +delta, size bytes
    };
    Kind kind;
    int other;  // node index (dst for kLoad/kOffset, src for kStore)
    std::int64_t delta = 0;
    std::int64_t size = 0;
  };

  struct Node {
    // Copy edges (inclusion: succ ⊇ this), sorted. Entries are node ids
    // as added; a merged one is read through find().
    std::vector<int> succs;
    ObjSet pts;
    // Difference propagation: objects added to pts but not yet pushed
    // through this node's constraints and copy edges. Each (constraint,
    // object) pair fires once; a full refire happens only on SCC merge.
    ObjSet pending;
    std::vector<Constraint> constraints;
  };

  int newNode();
  int valueNode(const ir::Value* v);
  int objNode(ObjId obj);
  int find(int n);
  /// Union-find merge of two representatives; returns the survivor.
  int unite(int a, int b);
  bool addEdge(int from, int to);
  bool addPts(int node, ObjId obj);
  /// Queues a representative for propagation unless it is queued.
  void enqueue(int node);

  ObjId internObject(Object obj);
  ObjId objectForAlloca(const ir::Instruction* alloca);
  ObjId objectForGlobal(const ir::GlobalVar* g);
  /// Resolves `obj ⊕ delta` addressing `size` bytes to a cell of obj's
  /// root (or the root itself, or unknown for out-of-bounds constants).
  ObjId resolveOffset(ObjId obj, std::int64_t delta, std::int64_t size);
  /// The cell of `root` at (offset, size), created on first use and
  /// linked then with the root's cells it overlaps.
  ObjId cellFor(ObjId root, std::int64_t offset, std::int64_t size);

  void buildRegionObjects();
  void genConstraints();
  void genInstruction(const ir::Instruction* inst);
  /// Tarjan SCC pass over the copy-edge graph; collapses cycles.
  void condense();
  /// Worklist propagation; returns true when a complex constraint added
  /// a new copy edge (the graph needs re-condensing).
  bool propagate();
  /// After a budget trip: adds unknown to every pointer-typed value's set,
  /// empty or not, and to every other non-empty set.
  void degrade();
  /// Expands each representative's set with overlap siblings, maps every
  /// value to its representative's set, and emits the counters.
  void finalize();

  const ir::Module& module_;
  const ShmRegionTable& regions_;
  const ir::CallGraph& callgraph_;
  AliasOptions options_;
  support::AnalysisBudget* budget_ = nullptr;

  std::vector<Object> objects_;
  std::vector<Node> nodes_;
  std::vector<int> rep_;  // union-find forest over nodes_
  std::unordered_map<const ir::Value*, int> value_nodes_;
  std::unordered_map<const ir::Value*, ObjId> value_objects_;
  ObjId unknown_ = -1;

  // Least recently fired first: an entry is (last_pop_[n] << 32 | n), so
  // the heap pops the smallest (stamp, node id). last_pop_[n] is the
  // iteration at which n was last popped (0: never), so the first sweep
  // runs in id order. queued_[n] keeps n from being queued twice.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      worklist_;
  std::vector<std::uint32_t> last_pop_;
  std::vector<char> queued_;
  bool live_ = true;
  bool degraded_ = false;
  bool edges_dirty_ = false;

  // Final per-value view: the representative node's set, expanded with
  // overlap siblings. Only values with a non-empty set are present.
  std::unordered_map<const ir::Value*, const ObjSet*> exposed_;
  ObjSet empty_;

  // Counter feeds for --stats-json (pointsto.* namespace).
  std::size_t n_constraints_ = 0;
  std::size_t n_collapsed_ = 0;
  std::size_t n_iterations_ = 0;
  std::size_t n_cells_ = 0;
};

}  // namespace safeflow::analysis
