// Phase 2 (paper §3.2/§3.3): enforcement of the shared-memory language
// restrictions.
//
//   P1  shared memory is not deallocated (shmdt/shmctl/free on a shm
//       pointer) before the end of main;
//   P2  a pointer to shared memory is never aliased through memory
//       (no address-of, no store into anything but the declared shm
//       pointer globals);
//   P3  no casts between incompatible pointer types on shm pointers and
//       no casts of shm pointers to integers (shminit functions exempt);
//   A1  constant indices into shm arrays lie in bounds;
//   A2  loop-variant indices must be provably affine and in bounds —
//       checked by bounding each index symbol (induction variables, value
//       ranges) and testing the access's byte interval against the region
//       (ShmAccess, ranges.h). The paper asks Omega whether a violating
//       assignment exists; over a box of symbol bounds the interval answers
//       exactly that.
#pragma once

#include <string>
#include <vector>

#include "analysis/shm_propagation.h"
#include "analysis/shm_regions.h"
#include "ir/ir.h"
#include "support/diagnostics.h"
#include "support/limits.h"

namespace safeflow::analysis {

class RangeAnalysis;

struct RestrictionViolation {
  std::string rule;  // "P1", "P2", "P3", "A1", "A2"
  support::SourceLocation location;
  std::string message;
  const ir::Function* function = nullptr;
};

struct RestrictionOptions {
  /// Function names treated as deallocating shared memory.
  std::vector<std::string> dealloc_functions{"shmdt", "shmctl", "free",
                                             "munmap"};
};

class RestrictionChecker {
 public:
  /// `ranges` (optional) strengthens the A2 check: proven value ranges
  /// bound index symbols, so indices guarded by non-affine conditions
  /// (`if (i < n)` with n's range known) discharge instead of warning.
  RestrictionChecker(const ir::Module& module, const ShmRegionTable& regions,
                     const ShmPointerAnalysis& shm,
                     RestrictionOptions options = {},
                     support::AnalysisBudget* budget = nullptr,
                     const RangeAnalysis* ranges = nullptr);

  /// Runs all checks; violations are returned and also reported as
  /// "restriction.<rule>" diagnostics.
  std::vector<RestrictionViolation> run(support::DiagnosticEngine& diags);

 private:
  void checkFunction(const ir::Function& fn,
                     std::vector<RestrictionViolation>& out);
  void checkIndexAddr(const ir::Function& fn, const ir::Instruction& gep,
                      std::vector<RestrictionViolation>& out);

  /// Affine decomposition of an index value: constant + sum(coeff * sym).
  struct AffineIndex {
    bool valid = false;
    std::int64_t constant = 0;
    /// Distinct symbols with nonzero coefficients, in order of first use.
    std::vector<std::pair<const ir::Value*, std::int64_t>> terms;

    /// Adds k * other, merging repeated symbols; false on int64 overflow.
    bool addScaled(const AffineIndex& other, std::int64_t k);
  };
  /// Invalid when `v` is not affine in its symbols or its arithmetic
  /// overflows int64.
  AffineIndex decompose(const ir::Value* v, int depth = 0) const;

  /// Bounds for an induction-variable phi: i in [lo, hi] derived from its
  /// init value, step, and the loop-header comparison.
  struct SymbolBounds {
    bool valid = false;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
  };
  /// `use_block` is where the index is consumed (branch refinements that
  /// dominate it apply); `used_ranges` is set when the bounds came from
  /// the value-range analysis rather than the syntactic induction pattern.
  SymbolBounds boundsFor(const ir::Value* sym,
                         const ir::BasicBlock* use_block,
                         bool* used_ranges) const;

  const ir::Module& module_;
  const ShmRegionTable& regions_;
  const ShmPointerAnalysis& shm_;
  RestrictionOptions options_;
  support::AnalysisBudget* budget_ = nullptr;
  const RangeAnalysis* ranges_ = nullptr;
};

}  // namespace safeflow::analysis
