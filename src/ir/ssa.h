// mem2reg: promotes scalar, non-address-taken allocas to SSA values with
// Phi nodes placed on dominance frontiers (Cytron et al.), matching the
// paper's use of LLVM SSA form as the analysis substrate.
#pragma once

#include "ir/ir.h"

namespace safeflow::ir {

struct SsaStats {
  std::size_t promoted_allocas = 0;
  std::size_t phis_inserted = 0;
  std::size_t loads_removed = 0;
  std::size_t stores_removed = 0;
};

/// Runs mem2reg on one function. Allocas remain for aggregates and for
/// locals whose address escapes (operand of anything but load/store-ptr).
SsaStats promoteToSsa(Function& fn, Module& module);

/// Convenience: promotes every defined function in the module.
SsaStats promoteModuleToSsa(Module& module);

/// Verifies SSA well-formedness: every instruction operand is defined in
/// this function, and in code reachable from the entry, in a block that
/// dominates the use (phi uses checked at the incoming edge; an incoming
/// edge from unreachable code is not checked). Returns an empty string
/// when valid, else a description of the first violation.
[[nodiscard]] std::string verifySsa(const Function& fn);

}  // namespace safeflow::ir
