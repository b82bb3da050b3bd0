#include "analysis/alias.h"

#include <algorithm>
#include <limits>

#include "cfront/types.h"
#include "support/metrics.h"

namespace safeflow::analysis {

namespace {

// Byte size of the element a pointer value addresses, or 0 when unknown.
std::int64_t pointeeSize(const ir::Value* v) {
  if (v == nullptr || v->type() == nullptr || !v->type()->isPointer()) {
    return 0;
  }
  const auto* pt = static_cast<const cfront::PointerType*>(v->type());
  return pt->pointee() != nullptr
             ? static_cast<std::int64_t>(pt->pointee()->size())
             : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ObjSet
// ---------------------------------------------------------------------------

namespace {

// The word index and the bit within that word of an object id.
std::pair<std::uint32_t, std::uint64_t> slotOf(ObjId id) {
  const auto u = static_cast<std::uint32_t>(id);
  return {u / 64, std::uint64_t{1} << (u % 64)};
}

// Orders an ObjSet word before a word index (for lower_bound).
constexpr auto kIndexBelow = [](const auto& word, std::uint32_t index) {
  return word.index < index;
};

}  // namespace

bool ObjSet::insert(ObjId id) {
  const auto [index, bit] = slotOf(id);
  auto it = std::lower_bound(words_.begin(), words_.end(), index, kIndexBelow);
  if (it == words_.end() || it->index != index) {
    words_.insert(it, Word{index, bit});
    return true;
  }
  const bool fresh = (it->bits & bit) == 0;
  it->bits |= bit;
  return fresh;
}

bool ObjSet::contains(ObjId id) const {
  const auto [index, bit] = slotOf(id);
  auto it = std::lower_bound(words_.begin(), words_.end(), index, kIndexBelow);
  return it != words_.end() && it->index == index && (it->bits & bit) != 0;
}

std::size_t ObjSet::size() const {
  std::size_t n = 0;
  for (const Word& w : words_) {
    n += static_cast<std::size_t>(std::popcount(w.bits));
  }
  return n;
}

std::uint64_t ObjSet::bitsAt(std::uint32_t index, std::size_t& cursor) const {
  while (cursor < words_.size() && words_[cursor].index < index) ++cursor;
  return cursor < words_.size() && words_[cursor].index == index
             ? words_[cursor].bits
             : 0;
}

bool ObjSet::intersects(const ObjSet& other) const {
  std::size_t cursor = 0;
  for (const Word& w : words_) {
    if ((w.bits & other.bitsAt(w.index, cursor)) != 0) return true;
  }
  return false;
}

ObjSet ObjSet::intersection(const ObjSet& other) const {
  ObjSet out;
  std::size_t cursor = 0;
  for (const Word& w : words_) {
    const std::uint64_t bits = w.bits & other.bitsAt(w.index, cursor);
    if (bits != 0) out.words_.push_back(Word{w.index, bits});
  }
  return out;
}

bool ObjSet::orMasked(const ObjSet& src, const ObjSet* except) {
  // The bits of `s` outside `except`; `cursor` walks except's words
  // forward, as `s` ascends.
  auto fresh = [except](const Word& s, std::size_t& cursor) {
    return except == nullptr ? s.bits
                             : s.bits & ~except->bitsAt(s.index, cursor);
  };
  // Pass 1: OR in place where this set already has the word; count the
  // words it lacks.
  bool grew = false;
  std::size_t missing = 0;
  std::size_t cursor = 0;
  auto it = words_.begin();
  for (const Word& s : src.words_) {
    const std::uint64_t bits = fresh(s, cursor);
    if (bits == 0) continue;
    while (it != words_.end() && it->index < s.index) ++it;
    if (it != words_.end() && it->index == s.index) {
      grew |= (bits & ~it->bits) != 0;
      it->bits |= bits;
    } else {
      ++missing;
    }
  }
  if (missing == 0) return grew;
  // Pass 2: merge the lacking words in.
  Words merged;
  merged.reserve(words_.size() + missing);
  cursor = 0;
  it = words_.begin();
  for (const Word& s : src.words_) {
    const std::uint64_t bits = fresh(s, cursor);
    if (bits == 0) continue;
    while (it != words_.end() && it->index < s.index) merged.push_back(*it++);
    if (it != words_.end() && it->index == s.index) continue;  // ORed above
    merged.push_back(Word{s.index, bits});
  }
  merged.insert(merged.end(), it, words_.end());
  words_ = std::move(merged);
  return true;
}

AliasAnalysis::AliasAnalysis(const ir::Module& module,
                             const ShmRegionTable& regions,
                             const ir::CallGraph& callgraph,
                             AliasOptions options,
                             support::AnalysisBudget* budget)
    : module_(module),
      regions_(regions),
      callgraph_(callgraph),
      options_(options),
      budget_(budget) {
  Object unknown;
  unknown.kind = ObjKind::kUnknown;
  unknown.name = "<unknown>";
  unknown_ = internObject(std::move(unknown));
  // Externals can return pointers into graphs of unknown memory: the
  // unknown object's contents include a pointer to itself.
  addPts(objNode(unknown_), unknown_);
}

// ---------------------------------------------------------------------------
// Nodes and union-find
// ---------------------------------------------------------------------------

int AliasAnalysis::newNode() {
  nodes_.emplace_back();
  rep_.push_back(static_cast<int>(nodes_.size()) - 1);
  last_pop_.push_back(0);
  queued_.push_back(0);
  return static_cast<int>(nodes_.size()) - 1;
}

int AliasAnalysis::valueNode(const ir::Value* v) {
  auto it = value_nodes_.find(v);
  if (it != value_nodes_.end()) return it->second;
  const int n = newNode();
  value_nodes_.emplace(v, n);
  return n;
}

int AliasAnalysis::objNode(ObjId obj) {
  if (objects_[static_cast<std::size_t>(obj)].node >= 0) {
    return objects_[static_cast<std::size_t>(obj)].node;
  }
  const int n = newNode();
  objects_[static_cast<std::size_t>(obj)].node = n;
  return n;
}

int AliasAnalysis::find(int n) {
  while (rep_[static_cast<std::size_t>(n)] != n) {
    rep_[static_cast<std::size_t>(n)] =
        rep_[static_cast<std::size_t>(rep_[static_cast<std::size_t>(n)])];
    n = rep_[static_cast<std::size_t>(n)];
  }
  return n;
}

int AliasAnalysis::unite(int a, int b) {
  a = find(a);
  b = find(b);
  if (a == b) return a;
  // The smaller index survives so collapse order is deterministic.
  if (b < a) std::swap(a, b);
  Node& na = nodes_[static_cast<std::size_t>(a)];
  Node& nb = nodes_[static_cast<std::size_t>(b)];
  std::vector<int> succs;
  succs.reserve(na.succs.size() + nb.succs.size());
  std::set_union(na.succs.begin(), na.succs.end(), nb.succs.begin(),
                 nb.succs.end(), std::back_inserter(succs));
  na.succs = std::move(succs);
  na.pts.unionWith(nb.pts);
  na.constraints.insert(na.constraints.end(), nb.constraints.begin(),
                        nb.constraints.end());
  // The adopted constraints have never seen the survivor's objects (and
  // vice versa): refire everything once over the merged set.
  na.pending = na.pts;
  nb = Node{};
  rep_[static_cast<std::size_t>(b)] = a;
  enqueue(a);
  ++n_collapsed_;
  return a;
}

bool AliasAnalysis::addEdge(int from, int to) {
  from = find(from);
  to = find(to);
  if (from == to) return false;
  std::vector<int>& succs = nodes_[static_cast<std::size_t>(from)].succs;
  const auto pos = std::lower_bound(succs.begin(), succs.end(), to);
  if (pos != succs.end() && *pos == to) return false;
  succs.insert(pos, to);
  edges_dirty_ = true;
  // A brand-new edge must carry everything already known at the source;
  // afterwards only deltas flow across it.
  Node& dst = nodes_[static_cast<std::size_t>(to)];
  if (dst.pts.unionWith(nodes_[static_cast<std::size_t>(from)].pts,
                        dst.pending)) {
    enqueue(to);
  }
  return true;
}

bool AliasAnalysis::addPts(int node, ObjId obj) {
  node = find(node);
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!n.pts.insert(obj)) return false;
  n.pending.insert(obj);
  enqueue(node);
  return true;
}

void AliasAnalysis::enqueue(int node) {
  char& queued = queued_[static_cast<std::size_t>(node)];
  if (queued != 0) return;
  queued = 1;
  const std::uint64_t stamp = last_pop_[static_cast<std::size_t>(node)];
  worklist_.push(stamp << 32 | static_cast<std::uint32_t>(node));
}

// ---------------------------------------------------------------------------
// Abstract objects and field cells
// ---------------------------------------------------------------------------

ObjId AliasAnalysis::internObject(Object obj) {
  objects_.push_back(std::move(obj));
  return static_cast<ObjId>(objects_.size() - 1);
}

namespace {

// Fills size / element stride / element layout for a root object.
// Arrays collapse element-wise: the stride is the element size and the
// layout describes one element, so constant offsets normalize modulo the
// stride. Non-array objects have stride == size.
void setRootLayout(std::int64_t& size, std::int64_t& stride,
                   const cfront::StructType*& layout, const cfront::Type* t) {
  if (t == nullptr) {
    size = 0;
    stride = 0;
    layout = nullptr;
    return;
  }
  size = static_cast<std::int64_t>(t->size());
  if (t->isArray()) {
    const auto* at = static_cast<const cfront::ArrayType*>(t);
    stride = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(at->element()->size()));
    layout = at->element()->isStruct()
                 ? static_cast<const cfront::StructType*>(at->element())
                 : nullptr;
  } else {
    stride = size;
    layout = t->isStruct() ? static_cast<const cfront::StructType*>(t)
                           : nullptr;
  }
}

}  // namespace

ObjId AliasAnalysis::objectForAlloca(const ir::Instruction* alloca) {
  auto it = value_objects_.find(alloca);
  if (it != value_objects_.end()) return it->second;
  Object o;
  o.kind = ObjKind::kAlloca;
  o.anchor = alloca;
  // Qualify with the owning function: bare alloca names are not unique
  // across functions and diagnostics must be unambiguous.
  const ir::Function* fn =
      alloca->parent() != nullptr ? alloca->parent()->parent() : nullptr;
  const std::string_view base =
      alloca->name().empty() ? "<tmp>" : alloca->name();
  o.name = (fn != nullptr ? std::string(fn->name()) + "::" : std::string()) +
           std::string(base);
  setRootLayout(o.size, o.stride, o.layout, alloca->allocated_type);
  const ObjId id = internObject(std::move(o));
  value_objects_.emplace(alloca, id);
  return id;
}

ObjId AliasAnalysis::objectForGlobal(const ir::GlobalVar* g) {
  auto it = value_objects_.find(g);
  if (it != value_objects_.end()) return it->second;
  Object o;
  o.kind = ObjKind::kGlobal;
  o.anchor = g;
  o.name = g->name();
  setRootLayout(o.size, o.stride, o.layout, g->valueType());
  const ObjId id = internObject(std::move(o));
  value_objects_.emplace(g, id);
  return id;
}

ObjId AliasAnalysis::cellFor(ObjId root, std::int64_t offset,
                              std::int64_t size) {
  const std::vector<Cell>& known =
      objects_[static_cast<std::size_t>(root)].cells;
  const auto it = std::lower_bound(
      known.begin(), known.end(), std::make_pair(offset, size),
      [](const Cell& cell, const std::pair<std::int64_t, std::int64_t>& key) {
        return std::make_pair(cell.offset, cell.size) < key;
      });
  if (it != known.end() && it->offset == offset && it->size == size) {
    return it->id;
  }
  const auto slot = it - known.begin();
  Object c;
  c.kind = ObjKind::kField;
  c.parent = root;
  c.region_id = objects_[static_cast<std::size_t>(root)].region_id;
  c.offset = offset;
  c.size = size;
  // Recover the declared field identity when the cell lines up with the
  // element layout; byte-offset views keep a positional name.
  std::string suffix =
      "+" + std::to_string(offset) + ":" + std::to_string(size);
  if (const cfront::StructType* st =
          objects_[static_cast<std::size_t>(root)].layout) {
    const auto& fs = st->fields();
    for (unsigned i = 0; i < fs.size(); ++i) {
      const auto fo = static_cast<std::int64_t>(fs[i].offset);
      const auto fsz = static_cast<std::int64_t>(fs[i].type->size());
      if (fo == offset && fsz == size) {
        c.field = i;
        suffix = "." + fs[i].name;
        break;
      }
      if (fo <= offset && offset + size <= fo + fsz) c.field = i;
    }
  }
  c.name = objects_[static_cast<std::size_t>(root)].name + suffix;
  const ObjId id = internObject(std::move(c));
  // internObject may have moved every Object: take the list again.
  std::vector<Cell>& cells = objects_[static_cast<std::size_t>(root)].cells;
  cells.insert(cells.begin() + slot, Cell{offset, size, id});
  ++n_cells_;
  // Link overlapping sibling cells (union punning, byte views): their
  // stored pointers are mutually visible, and consumers see siblings in
  // the expanded points-to sets so taint crosses the pun. Only this
  // root's cells can overlap. The links add nodes, never objects, so
  // `cells` stays put.
  for (const Cell& sib : cells) {
    if (sib.id == id) continue;
    if (offset < sib.offset + sib.size && sib.offset < offset + size) {
      objects_[static_cast<std::size_t>(id)].overlaps.push_back(sib.id);
      objects_[static_cast<std::size_t>(sib.id)].overlaps.push_back(id);
      addEdge(objNode(id), objNode(sib.id));
      addEdge(objNode(sib.id), objNode(id));
    }
  }
  return id;
}

ObjId AliasAnalysis::resolveOffset(ObjId obj, std::int64_t delta,
                                    std::int64_t size) {
  if (isUnknown(obj)) return unknown_;
  if (!options_.field_sensitive) return obj;
  const Object& o = objects_[static_cast<std::size_t>(obj)];
  const ObjId root = o.parent >= 0 ? o.parent : obj;
  std::int64_t raw = 0;
  if (__builtin_add_overflow(o.parent >= 0 ? o.offset : 0, delta, &raw)) {
    return unknown_;  // past int64: outside any object
  }
  const std::int64_t total =
      objects_[static_cast<std::size_t>(root)].size;
  const std::int64_t stride =
      objects_[static_cast<std::size_t>(root)].stride;
  if (total <= 0) return obj;  // unsized object: stay put
  const std::int64_t want = std::max<std::int64_t>(1, size);
  const bool array_like = stride > 0 && stride < total;
  std::int64_t off = raw;
  if (array_like) {
    // Array collapse: all elements share one set of cells.
    off = ((raw % stride) + stride) % stride;
    if (off + want > stride) return root;  // spans elements
  } else if (raw < 0 || raw > total - want) {
    // A constant offset provably outside the object: unknown memory.
    return unknown_;
  }
  const std::int64_t bound = array_like ? stride : total;
  const Object& r = objects_[static_cast<std::size_t>(root)];
  // A (0, whole-size) view is the root itself — except for unions, where
  // every member view must stay a cell so that overlap linking connects
  // it to the sibling members it shares bytes with.
  const bool union_root = r.layout != nullptr && r.layout->isUnion();
  if (off == 0 && want >= bound && !union_root) return root;
  return cellFor(root, off, want);
}

// ---------------------------------------------------------------------------
// Constraint generation
// ---------------------------------------------------------------------------

void AliasAnalysis::buildRegionObjects() {
  for (const ShmRegion& rg : regions_.regions()) {
    Object o;
    o.kind = ObjKind::kRegion;
    o.region_id = rg.id;
    o.name = "shm:" + rg.name;
    o.size = rg.size;
    std::int64_t stride =
        rg.pointee_type != nullptr
            ? static_cast<std::int64_t>(rg.pointee_type->size())
            : 0;
    if (stride <= 0 || stride > o.size) stride = o.size;
    o.stride = stride;
    if (rg.pointee_type != nullptr && rg.pointee_type->isStruct()) {
      o.layout = static_cast<const cfront::StructType*>(rg.pointee_type);
    }
    const ObjId id = internObject(std::move(o));
    // The declared global pointer variable holds a pointer to the region.
    if (rg.pointer_global != nullptr) {
      addPts(objNode(objectForGlobal(rg.pointer_global)), id);
      ++n_constraints_;
    }
  }
}

void AliasAnalysis::genInstruction(const ir::Instruction* inst) {
  switch (inst->opcode()) {
    case ir::Opcode::kAlloca:
      addPts(valueNode(inst), objectForAlloca(inst));
      ++n_constraints_;
      break;
    case ir::Opcode::kLoad:
      if (inst->type()->isPointer()) {
        const int pn = valueNode(inst->operand(0));
        const int dn = valueNode(inst);
        nodes_[static_cast<std::size_t>(pn)].constraints.push_back(
            Constraint{Constraint::Kind::kLoad, dn, 0, 0});
        enqueue(find(pn));
        ++n_constraints_;
      }
      break;
    case ir::Opcode::kStore:
      if (inst->operand(0)->type()->isPointer()) {
        const int pn = valueNode(inst->operand(1));
        const int vn = valueNode(inst->operand(0));
        nodes_[static_cast<std::size_t>(pn)].constraints.push_back(
            Constraint{Constraint::Kind::kStore, vn, 0, 0});
        enqueue(find(pn));
        ++n_constraints_;
      }
      break;
    case ir::Opcode::kCast:
      addEdge(valueNode(inst->operand(0)), valueNode(inst));
      ++n_constraints_;
      break;
    case ir::Opcode::kIndexAddr: {
      const std::int64_t elem = pointeeSize(inst);
      const ir::Value* idx = inst->operand(1);
      std::int64_t delta = 0;
      if (options_.field_sensitive && elem > 0 &&
          idx->kind() == ir::Value::Kind::kConstantInt &&
          !__builtin_mul_overflow(
              static_cast<const ir::ConstantInt*>(idx)->value(), elem,
              &delta)) {
        const int pn = valueNode(inst->operand(0));
        const int dn = valueNode(inst);
        nodes_[static_cast<std::size_t>(pn)].constraints.push_back(
            Constraint{Constraint::Kind::kOffset, dn, delta, elem});
        enqueue(find(pn));
      } else {
        // Variable index, or a constant one whose byte offset overflows
        // int64: the element pointer aliases the base cells.
        addEdge(valueNode(inst->operand(0)), valueNode(inst));
      }
      ++n_constraints_;
      break;
    }
    case ir::Opcode::kFieldAddr: {
      std::int64_t delta = 0;
      std::int64_t fsize = pointeeSize(inst);
      const ir::Value* base = inst->operand(0);
      if (base->type()->isPointer()) {
        const auto* pt =
            static_cast<const cfront::PointerType*>(base->type())
                ->pointee();
        if (pt != nullptr && pt->isStruct()) {
          const auto* st = static_cast<const cfront::StructType*>(pt);
          if (inst->field_index < st->fields().size()) {
            const auto& f = st->fields()[inst->field_index];
            delta = static_cast<std::int64_t>(f.offset);
            fsize = static_cast<std::int64_t>(f.type->size());
          }
        }
      }
      if (options_.field_sensitive) {
        const int pn = valueNode(base);
        const int dn = valueNode(inst);
        nodes_[static_cast<std::size_t>(pn)].constraints.push_back(
            Constraint{Constraint::Kind::kOffset, dn, delta, fsize});
        enqueue(find(pn));
      } else {
        addEdge(valueNode(base), valueNode(inst));
      }
      ++n_constraints_;
      break;
    }
    case ir::Opcode::kPhi:
      for (std::size_t i = 0; i < inst->numOperands(); ++i) {
        addEdge(valueNode(inst->operand(i)), valueNode(inst));
        ++n_constraints_;
      }
      break;
    case ir::Opcode::kCall: {
      const std::size_t first_arg = inst->direct_callee == nullptr ? 1 : 0;
      bool handled = false;
      for (const ir::Function* target : callgraph_.targets(*inst)) {
        if (target->isIntrinsic()) {
          handled = true;
          continue;
        }
        if (!target->isDefined()) continue;
        handled = true;
        for (std::size_t i = first_arg; i < inst->numOperands(); ++i) {
          const std::size_t p = i - first_arg;
          if (p >= target->args().size()) break;
          addEdge(valueNode(inst->operand(i)),
                  valueNode(target->args()[p]));
          ++n_constraints_;
        }
        if (inst->type()->isPointer()) {
          for (const auto& tbb : target->blocks()) {
            const ir::Instruction* term = tbb->terminator();
            if (term != nullptr && term->opcode() == ir::Opcode::kRet &&
                term->numOperands() == 1) {
              addEdge(valueNode(term->operand(0)), valueNode(inst));
              ++n_constraints_;
            }
          }
        }
      }
      if (!handled && inst->type()->isPointer()) {
        // External returning a pointer: unknown memory.
        addPts(valueNode(inst), unknown_);
        ++n_constraints_;
      }
      break;
    }
    default:
      break;
  }
  // Globals referenced as operands point at their own storage.
  for (const ir::Value* op : inst->operands()) {
    if (op->kind() == ir::Value::Kind::kGlobalVar) {
      addPts(valueNode(op),
             objectForGlobal(static_cast<const ir::GlobalVar*>(op)));
    }
  }
}

void AliasAnalysis::genConstraints() {
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined()) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (!support::budgetStep(budget_)) {
          live_ = false;
          return;
        }
        genInstruction(inst);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Solving: periodic SCC condensation + worklist propagation
// ---------------------------------------------------------------------------

void AliasAnalysis::condense() {
  const int n = static_cast<int>(nodes_.size());
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<char> onstack(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int next = 0;

  // The DFS reads each node's succs in place (through find(), which
  // cannot change before the merges below); `i` is the next one to visit.
  struct Frame {
    int node;
    std::size_t i;
  };
  std::vector<Frame> frames;

  for (int start = 0; start < n; ++start) {
    if (find(start) != start || index[static_cast<std::size_t>(start)] >= 0) {
      continue;
    }
    frames.push_back(Frame{start, 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto un = static_cast<std::size_t>(f.node);
      if (index[un] < 0) {
        index[un] = low[un] = next++;
        stack.push_back(f.node);
        onstack[un] = 1;
      }
      const std::vector<int>& succs = nodes_[un].succs;
      bool descended = false;
      while (f.i < succs.size()) {
        const int s = find(succs[f.i]);
        ++f.i;
        if (s == f.node) continue;
        const auto us = static_cast<std::size_t>(s);
        if (index[us] < 0) {
          frames.push_back(Frame{s, 0});
          descended = true;
          break;
        }
        if (onstack[us] != 0) low[un] = std::min(low[un], index[us]);
      }
      if (descended) continue;
      if (low[un] == index[un]) {
        std::vector<int> scc;
        while (true) {
          const int v = stack.back();
          stack.pop_back();
          onstack[static_cast<std::size_t>(v)] = 0;
          scc.push_back(v);
          if (v == f.node) break;
        }
        if (scc.size() > 1) sccs.push_back(std::move(scc));
      }
      const int child = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        Frame& p = frames.back();
        const auto up = static_cast<std::size_t>(p.node);
        low[up] =
            std::min(low[up], low[static_cast<std::size_t>(child)]);
      }
    }
  }

  // Merge after the pass so the DFS never sees a mutating forest.
  for (const auto& scc : sccs) {
    int survivor = scc.front();
    for (std::size_t i = 1; i < scc.size(); ++i) {
      survivor = unite(survivor, scc[i]);
    }
  }
}

bool AliasAnalysis::propagate() {
  constexpr std::size_t kMaxStamp = std::numeric_limits<std::uint32_t>::max();
  edges_dirty_ = false;
  while (!worklist_.empty() && live_) {
    if (!support::budgetStep(budget_)) {
      live_ = false;
      break;
    }
    ++n_iterations_;
    // The low half of an entry is the node id.
    const auto raw =
        static_cast<int>(static_cast<std::uint32_t>(worklist_.top()));
    worklist_.pop();
    queued_[static_cast<std::size_t>(raw)] = 0;
    const int node = find(raw);
    // Difference propagation: only the objects that arrived since the
    // last visit flow through the constraints and copy edges. (A stale
    // entry for a merged node drains the representative's delta, which
    // is a superset of what the stale node owed.)
    const ObjSet delta =
        std::move(nodes_[static_cast<std::size_t>(node)].pending);
    nodes_[static_cast<std::size_t>(node)].pending.clear();
    // Next time, the node waits behind every node popped less recently
    // (the stamp saturates; ties go to the smaller id).
    last_pop_[static_cast<std::size_t>(node)] = static_cast<std::uint32_t>(
        std::min<std::size_t>(n_iterations_, kMaxStamp));
    if (delta.empty()) continue;
    // Firing may create cells/content nodes and add copy edges.
    const std::size_t ncons =
        nodes_[static_cast<std::size_t>(node)].constraints.size();
    for (std::size_t ci = 0; ci < ncons; ++ci) {
      const Constraint c =
          nodes_[static_cast<std::size_t>(node)].constraints[ci];
      switch (c.kind) {
        case Constraint::Kind::kLoad:
          for (ObjId o : delta) addEdge(objNode(o), c.other);
          break;
        case Constraint::Kind::kStore:
          for (ObjId o : delta) addEdge(c.other, objNode(o));
          break;
        case Constraint::Kind::kOffset: {
          ObjSet resolved;
          for (ObjId o : delta) {
            resolved.insert(resolveOffset(o, c.delta, c.size));
          }
          // Resolving may add nodes: take the destination only now.
          const int d = find(c.other);
          Node& dst = nodes_[static_cast<std::size_t>(d)];
          if (dst.pts.unionWith(resolved, dst.pending)) enqueue(d);
          break;
        }
      }
    }
    // Push the delta along copy edges, one union per successor. Unions
    // add no node and no edge, so succs is walked in place.
    for (int s0 : nodes_[static_cast<std::size_t>(node)].succs) {
      const int s = find(s0);
      if (s == node) continue;
      Node& dst = nodes_[static_cast<std::size_t>(s)];
      if (dst.pts.unionWith(delta, dst.pending)) enqueue(s);
    }
  }
  return edges_dirty_;
}

void AliasAnalysis::degrade() {
  // The solve was cut short: sets may under-approximate. Widen every
  // tracked pointer and every object's contents with unknown so
  // consumers treat partially-resolved pointers as unresolved (unsafe).
  // A pointer the solve never reached is still empty, which consumers
  // would read as "no memory effect": it gets unknown too.
  for (const auto& [v, n] : value_nodes_) {
    Node& node = nodes_[static_cast<std::size_t>(find(n))];
    const bool pointer = v->type() != nullptr && v->type()->isPointer();
    if (pointer || !node.pts.empty()) node.pts.insert(unknown_);
  }
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (objects_[i].node < 0) continue;
    Node& node = nodes_[static_cast<std::size_t>(find(objects_[i].node))];
    if (!node.pts.empty()) node.pts.insert(unknown_);
  }
}

void AliasAnalysis::finalize() {
  // Precision feed for the CI alias baseline: how many values resolved
  // to concrete objects only (no unknown), how many reach a shm region,
  // and how many carry exact field/offset cells. Each representative's
  // set is expanded and classified once, however many values share it,
  // by word-wise tests against one mask per property.
  ObjSet overlapping;
  ObjSet regions;
  ObjSet fields;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    const Object& obj = objects_[i];
    const auto id = static_cast<ObjId>(i);
    if (!obj.overlaps.empty()) overlapping.insert(id);
    if (obj.region_id >= 0) regions.insert(id);
    if (obj.kind == ObjKind::kField) fields.insert(id);
  }
  struct RepView {
    bool seen = false;
    bool any_unknown = false;
    bool any_region = false;
    bool any_field = false;
    std::size_t size = 0;
  };
  std::vector<RepView> views(nodes_.size());
  std::size_t edges = 0;
  std::size_t resolved = 0;
  std::size_t shm_resolved = 0;
  std::size_t field_precise = 0;
  exposed_.reserve(value_nodes_.size());
  for (const auto& [v, n] : value_nodes_) {
    const int r = find(n);
    ObjSet& pts = nodes_[static_cast<std::size_t>(r)].pts;
    if (pts.empty()) continue;
    RepView& view = views[static_cast<std::size_t>(r)];
    if (!view.seen) {
      view.seen = true;
      // The solve is over: the set becomes the exposed one in place.
      ObjSet siblings;
      for (ObjId o : pts.intersection(overlapping)) {
        for (ObjId sib : objects_[static_cast<std::size_t>(o)].overlaps) {
          siblings.insert(sib);
        }
      }
      pts.unionWith(siblings);
      view.any_unknown = pts.contains(unknown_);
      view.any_region = pts.intersects(regions);
      view.any_field = pts.intersects(fields);
      view.size = pts.size();
    }
    edges += view.size;
    if (!view.any_unknown) ++resolved;
    // Region association is counted independently of unknown: the shmat
    // return is external (unknown), so every region pointer global also
    // holds unknown — what matters is whether the region survives at all.
    if (view.any_region) ++shm_resolved;
    if (view.any_field) ++field_precise;
    exposed_.emplace(v, &pts);
  }
  SAFEFLOW_COUNT_N("pointsto.constraints", n_constraints_);
  SAFEFLOW_COUNT_N("pointsto.scc_collapsed", n_collapsed_);
  SAFEFLOW_COUNT_N("pointsto.worklist_iterations", n_iterations_);
  SAFEFLOW_COUNT_N("pointsto.field_cells", n_cells_);
  SAFEFLOW_COUNT_N("alias.points_to_edges", edges);
  SAFEFLOW_COUNT_N("alias.resolved_pointers", resolved);
  SAFEFLOW_COUNT_N("alias.shm_pointers_resolved", shm_resolved);
  SAFEFLOW_COUNT_N("alias.field_precise_pointers", field_precise);
  SAFEFLOW_GAUGE("alias.objects", objects_.size());
}

void AliasAnalysis::run() {
  const support::ScopedTimer timer("phase.alias");
  support::budgetBeginPhase(budget_, "alias");
  buildRegionObjects();
  genConstraints();
  while (live_) {
    condense();
    if (!propagate()) break;
  }
  if (!live_) {
    degraded_ = true;
    degrade();
  }
  finalize();
}

// ---------------------------------------------------------------------------
// Read API
// ---------------------------------------------------------------------------

const ObjSet& AliasAnalysis::pointsTo(const ir::Value* v) const {
  auto it = exposed_.find(v);
  return it == exposed_.end() ? empty_ : *it->second;
}

ObjId AliasAnalysis::parentOf(ObjId obj) const {
  if (obj < 0 || static_cast<std::size_t>(obj) >= objects_.size()) {
    return -1;
  }
  return objects_[static_cast<std::size_t>(obj)].parent;
}

int AliasAnalysis::regionOf(ObjId obj) const {
  if (obj < 0 || static_cast<std::size_t>(obj) >= objects_.size()) {
    return -1;
  }
  return objects_[static_cast<std::size_t>(obj)].region_id;
}

std::pair<std::int64_t, std::int64_t> AliasAnalysis::extentOf(
    ObjId obj) const {
  if (obj < 0 || static_cast<std::size_t>(obj) >= objects_.size()) {
    return {0, 0};
  }
  const Object& o = objects_[static_cast<std::size_t>(obj)];
  return {o.offset, o.size};
}

std::string AliasAnalysis::describe(ObjId obj) const {
  if (obj < 0 || static_cast<std::size_t>(obj) >= objects_.size()) {
    return "<bad-object>";
  }
  return objects_[static_cast<std::size_t>(obj)].name;
}

}  // namespace safeflow::analysis
