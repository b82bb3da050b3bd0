// Andersen-style inclusion-based points-to analysis — the stand-in for
// the paper's Data Structure Analysis (DSA), consumed by taint, ranges,
// and the summary store. A constraint graph (addr-of / copy / load /
// store / field-offset) is generated from the SSA IR and solved with a
// worklist plus periodic Tarjan SCC condensation: copy cycles (the
// classic worklist killer) collapse onto one representative node, so the
// solve stays near-linear on the deep phi/copy chains embedded control
// code produces.
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
// every tracked pointer additionally points at the unknown object —
// results only ever widen, never tighten.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/shm_regions.h"
#include "ir/callgraph.h"
#include "ir/ir.h"
#include "support/limits.h"

namespace safeflow::analysis {

using ObjId = int;

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
  /// trips; on exhaustion every tracked pointer additionally points at
  /// the unknown object, so consumers treat partially-resolved pointers
  /// as unresolved (unsafe). Emits the pointsto.* and alias.* counters.
  void run();

  /// Objects the pointer value may point at, overlapping sibling cells
  /// included (empty when not a pointer or nothing is known — treat as
  /// "no memory effect").
  [[nodiscard]] const std::set<ObjId>& pointsTo(const ir::Value* v) const;

  /// The shm region an object denotes, or -1.
  [[nodiscard]] int regionOf(ObjId obj) const;
  /// Region sub-objects of one region (all field cells plus the base).
  [[nodiscard]] std::vector<ObjId> objectsOfRegion(int region_id) const;
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
  /// Every value with a non-empty points-to set, as pointsTo() reports it.
  [[nodiscard]] const std::map<const ir::Value*, std::set<ObjId>>&
  allPointsTo() const {
    return exposed_;
  }

 private:
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
    std::set<int> succs;  // copy edges (inclusion: succ ⊇ this)
    std::set<ObjId> pts;
    // Difference propagation: objects added to pts but not yet pushed
    // through this node's constraints and copy edges. Each (constraint,
    // object) pair fires once; a full refire happens only on SCC merge.
    std::set<ObjId> pending;
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

  ObjId internObject(Object obj);
  ObjId objectForAlloca(const ir::Instruction* alloca);
  ObjId objectForGlobal(const ir::GlobalVar* g);
  /// Resolves `obj ⊕ delta` addressing `size` bytes to a cell of obj's
  /// root (or the root itself, or unknown for out-of-bounds constants).
  ObjId resolveOffset(ObjId obj, std::int64_t delta, std::int64_t size);
  ObjId cellFor(ObjId root, std::int64_t offset, std::int64_t size);

  void buildRegionObjects();
  void genConstraints();
  void genInstruction(const ir::Instruction* inst);
  /// Tarjan SCC pass over the copy-edge graph; collapses cycles.
  void condense();
  /// Worklist propagation; returns true when a complex constraint added
  /// a new copy edge (the graph needs re-condensing).
  bool propagate();
  void degrade();
  /// Builds the exposed per-value sets and emits the counters.
  void finalize();

  const ir::Module& module_;
  const ShmRegionTable& regions_;
  const ir::CallGraph& callgraph_;
  AliasOptions options_;
  support::AnalysisBudget* budget_ = nullptr;

  std::vector<Object> objects_;
  std::vector<Node> nodes_;
  std::vector<int> rep_;  // union-find forest over nodes_
  std::map<const ir::Value*, int> value_nodes_;
  std::map<const ir::Value*, ObjId> value_objects_;
  std::map<std::tuple<ObjId, std::int64_t, std::int64_t>, ObjId> cells_;
  std::map<int, ObjId> region_objects_;
  ObjId unknown_ = -1;

  std::set<int> worklist_;
  bool live_ = true;
  bool degraded_ = false;
  bool edges_dirty_ = false;

  // Final per-value view (points-to sets expanded with overlap siblings).
  std::map<const ir::Value*, std::set<ObjId>> exposed_;
  std::set<ObjId> empty_;

  // Counter feeds for --stats-json (pointsto.* namespace).
  std::size_t n_constraints_ = 0;
  std::size_t n_collapsed_ = 0;
  std::size_t n_iterations_ = 0;
  std::size_t n_cells_ = 0;
};

}  // namespace safeflow::analysis
