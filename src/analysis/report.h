// Result model for a SafeFlow run: warnings (unmonitored non-core
// accesses), errors (critical-data dependencies, split into data and
// control dependence — the latter being the paper's manual-review /
// false-positive class), and restriction violations.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/restrictions.h"
#include "support/diagnostics.h"
#include "support/source_location.h"

namespace safeflow::analysis {

/// Paper §3.3: "a warning is reported for each unsafe access to shared
/// memory".
struct UnsafeAccessWarning {
  support::SourceLocation location;
  std::string function;
  int region = -1;
  std::string region_name;
  /// Byte range of the access within the region, when statically known.
  std::int64_t offset_lo = 0;
  std::int64_t offset_hi = 0;
  bool offset_known = false;
};

/// Paper §3.3: "an error is reported when the analysis detects dependency
/// of critical data ... on unmonitored non-core values".
struct CriticalDependencyError {
  enum class Kind {
    kData,     // genuine value dependency
    kControl,  // control dependence only — the paper's false-positive class
  };
  Kind kind = Kind::kData;
  support::SourceLocation assert_location;
  std::string function;
  std::string critical_value;
  std::set<int> regions;
  std::vector<std::string> region_names;
  /// Unmonitored loads the critical value (transitively) depends on.
  std::vector<support::SourceLocation> source_loads;
};

struct SafeFlowReport {
  std::vector<UnsafeAccessWarning> warnings;
  std::vector<CriticalDependencyError> errors;
  std::vector<RestrictionViolation> restriction_violations;
  /// Number of assert(safe(x)) checks evaluated.
  std::size_t asserts_checked = 0;
  /// Runtime checks the tool requires at bootstrap (paper's InitCheck).
  std::vector<std::string> required_runtime_checks;
  /// Phases whose analysis budget tripped (--time-budget/--step-budget).
  /// Non-empty means the run degraded: findings above are still valid but
  /// the absence of a finding proves nothing. Empty on a full run, and
  /// then absent from every rendering.
  std::vector<std::string> degraded_phases;
  /// Input files the front end could not fully parse (per-file isolation:
  /// analysis continued on the declarations that survived recovery).
  std::vector<std::string> failed_files;

  [[nodiscard]] std::size_t dataErrorCount() const;
  [[nodiscard]] std::size_t controlErrorCount() const;

  /// Drops entries that are duplicates of an earlier entry, keyed by
  /// file:line:category:message content. Headers included by several
  /// translation units can make each including TU emit the identical
  /// warning/violation; one finding per distinct location+message is
  /// enough for consumers. First occurrence wins, relative order of the
  /// survivors is unchanged. The driver calls this once before
  /// rendering; the supervisor applies the same key when merging
  /// per-worker reports.
  void deduplicate(const support::SourceManager& sm);

  /// Human-readable rendering (locations resolved by the caller's source
  /// manager via pre-rendered strings inside the entries).
  [[nodiscard]] std::string render(
      const support::SourceManager& sm) const;

  /// Graphviz DOT rendering of the value-flow graph behind the reported
  /// dependencies: non-core regions -> unmonitored loads -> critical
  /// values, with control-only flows dashed. This is the artefact the
  /// paper's §4 uses for manual review of potential false positives.
  [[nodiscard]] std::string renderValueFlowDot(
      const support::SourceManager& sm) const;

  /// Machine-readable JSON rendering of the whole report (snake_case
  /// keys, schema_version field). When `stats_json` is non-empty it must
  /// be a pre-rendered JSON object (SafeFlowStats::renderJson()); it is
  /// embedded verbatim as the report's "stats" member so `--json` output
  /// carries the same stats object `--stats-json` writes.
  [[nodiscard]] std::string renderJson(
      const support::SourceManager& sm,
      const std::string& stats_json = {}) const;
};

}  // namespace safeflow::analysis
