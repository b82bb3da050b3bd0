// Shared-memory region model (paper §3.2.1). Regions are declared by
// shmvar/noncore annotations inside shminit-marked initializing functions;
// each region is bound to the global pointer variable that holds its base
// address. The InitCheck the paper inserts at run time (non-overlap of
// regions) is recorded as a required runtime check in the report.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "support/diagnostics.h"

namespace safeflow::analysis {

struct ShmRegion {
  int id = -1;
  /// Name of the global shm pointer variable (e.g. "feedback"), or the
  /// socket descriptor variable for message channels.
  std::string name;
  /// The global holding the region's base pointer (or the descriptor).
  const ir::GlobalVar* pointer_global = nullptr;
  /// Element type the pointer points at (null for message channels).
  const ir::Type* pointee_type = nullptr;
  /// Total bytes reachable through the pointer (shmvar's size argument).
  std::int64_t size = 0;
  /// True when a noncore(ptr) annotation marks the region writable by
  /// non-core components.
  bool noncore = false;
  /// True for a message channel (paper §3.4.3): a pseudo-region standing
  /// for data received over a noncore(socket)-annotated descriptor.
  bool is_message_channel = false;
  support::SourceLocation location;

  /// Number of elements (size / sizeof(pointee)).
  [[nodiscard]] std::int64_t elementCount() const;
};

/// The global a value was loaded or cast from, through any chain of
/// loads and casts, or nullptr: the global pointer an shmvar/noncore
/// annotation names, or the descriptor a receive call reads.
[[nodiscard]] const ir::GlobalVar* traceToGlobal(const ir::Value* v);

class ShmRegionTable {
 public:
  /// Scans shminit functions for shmvar/noncore intrinsics. Reports
  /// diagnostics for malformed declarations (shmvar naming a non-global,
  /// noncore without a matching shmvar, duplicate shmvar).
  static ShmRegionTable build(const ir::Module& module,
                              support::DiagnosticEngine& diags);

  [[nodiscard]] const std::vector<ShmRegion>& regions() const {
    return regions_;
  }
  [[nodiscard]] const ShmRegion* byId(int id) const;
  [[nodiscard]] const ShmRegion* byGlobal(const ir::GlobalVar* g) const;
  [[nodiscard]] const ShmRegion* byName(std::string_view name) const;
  [[nodiscard]] bool empty() const { return regions_.empty(); }
  [[nodiscard]] std::size_t noncoreCount() const;

  /// Functions carrying the shminit annotation.
  [[nodiscard]] const std::vector<const ir::Function*>& initFunctions()
      const {
    return init_functions_;
  }
  [[nodiscard]] bool isInitFunction(const ir::Function* fn) const;

  /// Message-channel pseudo-region for a noncore(socket) descriptor
  /// global, or nullptr.
  [[nodiscard]] const ShmRegion* channelByGlobal(
      const ir::GlobalVar* g) const;

  /// True when every region's base offset within its segment was derived
  /// statically and the extents were proven non-overlapping — the paper's
  /// run-time InitCheck discharged at analysis time. Overlaps found
  /// statically are reported as "annotation.initcheck" errors.
  [[nodiscard]] bool initCheckVerifiedStatically() const {
    return init_check_static_;
  }

 private:
  /// Abstract interpretation of the init functions: derives each region's
  /// constant byte offset within its segment where possible and checks
  /// extents for overlap.
  void verifyInitCheck(const ir::Module& module,
                       support::DiagnosticEngine& diags);

  std::vector<ShmRegion> regions_;
  std::map<const ir::GlobalVar*, int> by_global_;
  std::vector<const ir::Function*> init_functions_;
  bool init_check_static_ = false;
};

}  // namespace safeflow::analysis
