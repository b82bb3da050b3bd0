#include "safeflow/summary_store.h"

#include <cassert>
#include <utility>

namespace safeflow {

namespace {

/// FIFO cap on recorded (digest, blob) pairs per phase per function: a
/// function's transformer sees a handful of distinct input states over
/// a fixpoint (typically 1-3), so 32 keeps every useful record while
/// bounding a pathological module's entry size.
constexpr std::size_t kMaxRecordsPerPhase = 32;

}  // namespace

std::string_view summaryPhaseName(SummaryPhase phase) {
  switch (phase) {
    case SummaryPhase::kShm:
      return "shm";
    case SummaryPhase::kRanges:
      return "ranges";
    case SummaryPhase::kTaint:
      return "taint";
  }
  return "?";
}

SummaryStore::SummaryStore(const std::string& dir,
                           const std::string& /*analyzer_version*/) {
  assert(dir.empty() && "the summary store has no on-disk tier");
  (void)dir;
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    banks_[static_cast<std::size_t>(p)].bind(this,
                                             static_cast<SummaryPhase>(p));
  }
}

void SummaryStore::beginRun(const analysis::FunctionKeyMap& keys) {
  run_keys_.clear();
  for (const auto& [fn, key] : keys) run_keys_.emplace(fn, key);
  stats_ = SummaryStoreStats{};
  for (auto& s : resolved_) s.clear();
  for (auto& s : hit_) s.clear();
  counted_missing_.clear();
}

analysis::SummaryBank* SummaryStore::bank(SummaryPhase phase) {
  return &banks_[static_cast<std::size_t>(phase)];
}

const std::string* SummaryStore::PhaseBank::find(const ir::Function& fn,
                                                 std::uint64_t digest) {
  return store_->find(phase_, fn, digest);
}

void SummaryStore::PhaseBank::record(const ir::Function& fn,
                                     std::uint64_t digest,
                                     std::string blob) {
  store_->record(phase_, fn, digest, std::move(blob));
}

const std::string* SummaryStore::find(SummaryPhase phase,
                                      const ir::Function& fn,
                                      std::uint64_t digest) {
  const auto kit = run_keys_.find(&fn);
  if (kit == run_keys_.end()) return nullptr;
  const auto it = entries_.find(kit->second);
  if (it == entries_.end()) {
    if (counted_missing_.insert(kit->second).second) ++stats_.invalidated;
    return nullptr;
  }
  for (const auto& [d, blob] : it->second[static_cast<std::size_t>(phase)]) {
    if (d == digest) {
      ++stats_.hits;
      hit_[static_cast<std::size_t>(phase)].insert(std::string(fn.name()));
      return &blob;
    }
  }
  return nullptr;
}

void SummaryStore::record(SummaryPhase phase, const ir::Function& fn,
                          std::uint64_t digest, std::string blob) {
  const auto kit = run_keys_.find(&fn);
  if (kit == run_keys_.end()) return;
  ++stats_.misses;
  resolved_[static_cast<std::size_t>(phase)].insert(std::string(fn.name()));
  auto& records = entries_[kit->second][static_cast<std::size_t>(phase)];
  for (auto& [d, b] : records) {
    if (d == digest) {
      b = std::move(blob);
      return;
    }
  }
  if (records.size() >= kMaxRecordsPerPhase) {
    records.erase(records.begin());
  }
  records.emplace_back(digest, std::move(blob));
}

void SummaryStore::finishRun() {
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    const auto idx = static_cast<std::size_t>(p);
    for (const std::string& name : hit_[idx]) {
      if (!resolved_[idx].contains(name)) ++stats_.spliced;
    }
  }
}

std::set<std::string> SummaryStore::resolvedFunctions(
    SummaryPhase phase) const {
  return resolved_[static_cast<std::size_t>(phase)];
}

std::set<std::string> SummaryStore::memoizedFunctions(
    SummaryPhase phase) const {
  const auto idx = static_cast<std::size_t>(phase);
  std::set<std::string> out;
  for (const std::string& name : hit_[idx]) {
    if (!resolved_[idx].contains(name)) out.insert(name);
  }
  return out;
}

}  // namespace safeflow
