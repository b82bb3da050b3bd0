// Resident memo table for per-function analysis summaries (DESIGN.md
// §16).
//
// One entry per function Merkle key (summaries.h: body hash + callee
// keys + config fingerprint), holding the recorded memo blobs of all
// three interprocedural phases (shm-pointer propagation, ranges, taint).
// An edit to a function changes its key — and, Merkle-style, the key of
// everything that calls it — so the edited cone misses the table and
// re-solves while the rest of the module replays recorded post-states.
//
// The table lives in memory only and survives beginRun(), so a caller
// that hands one store to several SafeFlowDriver instances (see
// setSummaryStore) keeps its summaries between runs; invalidation is
// entirely by content key. No entry point of the product uses it: the
// callers are verdictbench's warm-edit probe, bench/summary_micro and
// tests/summaries_test.cpp. Not thread-safe; one run at a time.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/summaries.h"

namespace safeflow {

enum class SummaryPhase : int { kShm = 0, kRanges = 1, kTaint = 2 };
inline constexpr int kSummaryPhaseCount = 3;

[[nodiscard]] std::string_view summaryPhaseName(SummaryPhase phase);

/// Per-run counters, reset by beginRun(). `hits` / `misses` count
/// per-(function, digest) memo probes across all phases: a cold run
/// still shows intra-run hits (the fixpoint revisits a function whose
/// inputs did not change since its last solve), which is why tests
/// assert on resolvedFunctions() name sets rather than raw counters.
struct SummaryStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Bound keys with no entry — the invalidated cone of an edit (plus
  /// genuinely-new functions).
  std::uint64_t invalidated = 0;
  /// (phase, function) pairs fully replayed from recorded blobs (zero
  /// live solves in that phase this run).
  std::uint64_t spliced = 0;
};

/// The store. Not copyable; one instance may serve many runs — bind each
/// run's keys with beginRun() first.
class SummaryStore {
 public:
  /// Kept in this shape because verdictbench constructs the store as
  /// `SummaryStore("", kAnalyzerVersion)` and verdictbench/ only changes
  /// with the benchmark. `dir` must be empty; `analyzer_version` goes
  /// unread (the version is already part of every key's fingerprint).
  SummaryStore(const std::string& dir, const std::string& analyzer_version);

  SummaryStore(const SummaryStore&) = delete;
  SummaryStore& operator=(const SummaryStore&) = delete;

  /// Binds this run's function keys and resets per-run stats. Keys come
  /// from analysis::computeFunctionKeys over the *current* module, so a
  /// stale entry is simply never addressed again.
  void beginRun(const analysis::FunctionKeyMap& keys);

  /// The memo seam handed to one phase (see PhaseMemoHooks). Valid for
  /// the store's lifetime.
  [[nodiscard]] analysis::SummaryBank* bank(SummaryPhase phase);

  /// Folds the per-run derived stat (spliced pairs). Call once per run,
  /// after the phases.
  void finishRun();

  /// Functions that needed >=1 live solve in `phase` this run (by
  /// name). On a fully-warm run this is empty; after an edit it is
  /// exactly the invalidated cone.
  [[nodiscard]] std::set<std::string> resolvedFunctions(
      SummaryPhase phase) const;
  /// Functions fully replayed in `phase` this run (>=1 hit, 0 live
  /// solves).
  [[nodiscard]] std::set<std::string> memoizedFunctions(
      SummaryPhase phase) const;

  [[nodiscard]] SummaryStoreStats stats() const { return stats_; }
  [[nodiscard]] std::uint64_t residentEntries() const {
    return entries_.size();
  }

 private:
  /// Per phase: (input digest, recorded blob), FIFO-capped.
  using Entry = std::array<std::vector<std::pair<std::uint64_t, std::string>>,
                           kSummaryPhaseCount>;

  class PhaseBank final : public analysis::SummaryBank {
   public:
    PhaseBank() = default;
    void bind(SummaryStore* store, SummaryPhase phase) {
      store_ = store;
      phase_ = phase;
    }
    const std::string* find(const ir::Function& fn,
                            std::uint64_t digest) override;
    void record(const ir::Function& fn, std::uint64_t digest,
                std::string blob) override;

   private:
    SummaryStore* store_ = nullptr;
    SummaryPhase phase_ = SummaryPhase::kShm;
  };

  const std::string* find(SummaryPhase phase, const ir::Function& fn,
                          std::uint64_t digest);
  void record(SummaryPhase phase, const ir::Function& fn,
              std::uint64_t digest, std::string blob);

  std::map<std::string, Entry> entries_;
  std::map<const ir::Function*, std::string> run_keys_;
  std::array<PhaseBank, kSummaryPhaseCount> banks_;

  SummaryStoreStats stats_;
  std::array<std::set<std::string>, kSummaryPhaseCount> resolved_;
  std::array<std::set<std::string>, kSummaryPhaseCount> hit_;
  std::set<std::string> counted_missing_;
};

}  // namespace safeflow
