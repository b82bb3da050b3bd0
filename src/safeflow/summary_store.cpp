#include "safeflow/summary_store.h"

#include <utility>

#include "support/log.h"
#include "support/metrics.h"

namespace safeflow {

namespace {

/// Payload header line; the rest of the payload is BlobWriter framing.
/// Bumping the format is a v2 here — old entries then purge as corrupt,
/// which is the safe direction.
constexpr std::string_view kFormatTag = "safeflow-summary v1\n";

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

SummaryStore::SummaryStore(std::string dir, std::string analyzer_version,
                           std::uint64_t max_bytes)
    : cache_(support::DiskCacheOptions{std::move(dir), max_bytes}),
      analyzer_version_(std::move(analyzer_version)),
      disk_enabled_(!cache_.dir().empty()) {
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    banks_[static_cast<std::size_t>(p)].bind(this,
                                             static_cast<SummaryPhase>(p));
  }
}

std::uint64_t SummaryStore::recoverDir() {
  if (!disk_enabled_) return 0;
  std::string error;
  if (!cache_.ensureDir(&error)) {
    SAFEFLOW_LOG(support::LogLevel::kWarn, "summaries",
                 "summary dir unavailable; store is memory-only this run",
                 {{"dir", cache_.dir()}, {"error", error}});
    return 0;
  }
  std::vector<std::string> purged;
  std::uint64_t removed = cache_.verifyEntries(&purged);
  removed += cache_.sweepStrayTemps();
  if (!purged.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.corrupt += purged.size();
    SAFEFLOW_LOG(support::LogLevel::kWarn, "summaries",
                 "purged torn summary entries; affected functions fall "
                 "back to cold analysis",
                 {{"purged", std::to_string(purged.size())}});
  }
  return removed;
}

void SummaryStore::beginRun(const analysis::FunctionKeyMap& keys) {
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
  const auto kit = run_keys_.find(&fn);
  if (kit == run_keys_.end()) return nullptr;
  Entry* entry = loadEntry(kit->second);
  if (entry == nullptr) {
    if (counted_missing_.insert(kit->second).second) ++stats_.invalidated;
    return nullptr;
  }
  const auto& records = entry->records[static_cast<std::size_t>(phase)];
  for (const auto& [d, blob] : records) {
    if (d == digest) {
      ++stats_.hits;
      hit_[static_cast<std::size_t>(phase)].insert(fn.name());
      return &blob;
    }
  }
  return nullptr;
}

void SummaryStore::record(SummaryPhase phase, const ir::Function& fn,
                          std::uint64_t digest, std::string blob) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto kit = run_keys_.find(&fn);
  if (kit == run_keys_.end()) return;
  ++stats_.misses;
  resolved_[static_cast<std::size_t>(phase)].insert(fn.name());
  Entry& entry = entries_[kit->second];
  auto& records = entry.records[static_cast<std::size_t>(phase)];
  for (auto& [d, b] : records) {
    if (d == digest) {
      if (b != blob) {
        b = std::move(blob);
        entry.dirty = true;
      }
      return;
    }
  }
  if (records.size() >= kMaxRecordsPerPhase) {
    records.erase(records.begin());
  }
  records.emplace_back(digest, std::move(blob));
  entry.dirty = true;
}

SummaryStore::Entry* SummaryStore::loadEntry(const std::string& key) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) return &it->second;
  if (!disk_enabled_ || load_failed_.contains(key)) return nullptr;
  const auto result = cache_.lookupChecked(key);
  if (result.status == support::DiskCache::LookupStatus::kMiss) {
    load_failed_.insert(key);
    return nullptr;
  }
  if (result.status == support::DiskCache::LookupStatus::kTorn) {
    noteCorrupt(key, "torn envelope");
    return nullptr;
  }
  Entry entry;
  if (!deserialize(key, result.payload, &entry)) {
    noteCorrupt(key, "invalid payload");
    return nullptr;
  }
  return &entries_.emplace(key, std::move(entry)).first->second;
}

void SummaryStore::noteCorrupt(const std::string& key, const char* why) {
  cache_.remove(key);
  load_failed_.insert(key);
  ++stats_.corrupt;
  SAFEFLOW_LOG(support::LogLevel::kWarn, "summaries",
               "purged corrupt summary entry; falling back to cold analysis",
               {{"key", key}, {"reason", std::string(why)}});
}

std::string SummaryStore::serialize(const std::string& key,
                                    const Entry& entry) const {
  analysis::BlobWriter w;
  w.str(analyzer_version_);
  w.str(key);
  for (const auto& records : entry.records) {
    w.u64(records.size());
    for (const auto& [digest, blob] : records) {
      w.u64(digest);
      w.str(blob);
    }
  }
  std::string payload(kFormatTag);
  payload += w.take();
  return payload;
}

bool SummaryStore::deserialize(const std::string& key,
                               const std::string& payload,
                               Entry* out) const {
  if (payload.size() < kFormatTag.size() ||
      std::string_view(payload).substr(0, kFormatTag.size()) != kFormatTag) {
    return false;
  }
  analysis::BlobReader r(
      std::string_view(payload).substr(kFormatTag.size()));
  if (r.str() != analyzer_version_) return false;
  if (r.str() != key) return false;
  for (auto& records : out->records) {
    const std::uint64_t n = r.u64();
    if (!r.ok() || n > kMaxRecordsPerPhase) return false;
    records.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t digest = r.u64();
      std::string blob = r.str();
      if (!r.ok()) return false;
      records.emplace_back(digest, std::move(blob));
    }
  }
  return r.ok() && r.atEnd();
}

void SummaryStore::finishRun() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    const auto idx = static_cast<std::size_t>(p);
    for (const std::string& name : hit_[idx]) {
      if (!resolved_[idx].contains(name)) ++stats_.spliced;
    }
  }
  SAFEFLOW_COUNT_N("summaries.hits", stats_.hits);
  SAFEFLOW_COUNT_N("summaries.misses", stats_.misses);
  SAFEFLOW_COUNT_N("summaries.invalidated", stats_.invalidated);
  SAFEFLOW_COUNT_N("summaries.spliced", stats_.spliced);
  SAFEFLOW_COUNT_N("summaries.corrupt", stats_.corrupt);
  SAFEFLOW_GAUGE("summaries.store_entries", entries_.size());
  if (disk_enabled_) {
    SAFEFLOW_GAUGE("summaries.store_bytes", cache_.totalBytes());
  }
}

bool SummaryStore::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!disk_enabled_) return true;
  std::string error;
  if (!cache_.ensureDir(&error)) {
    SAFEFLOW_LOG(support::LogLevel::kWarn, "summaries",
                 "summary flush skipped: dir unavailable",
                 {{"dir", cache_.dir()}, {"error", error}});
    return false;
  }
  bool ok = true;
  for (auto& [key, entry] : entries_) {
    if (!entry.dirty) continue;
    const auto result = cache_.store(key, serialize(key, entry));
    if (!result.ok) {
      SAFEFLOW_LOG(support::LogLevel::kWarn, "summaries",
                   "summary entry store failed",
                   {{"key", key}, {"error", result.error}});
      ok = false;
      continue;
    }
    entry.dirty = false;
    ++stats_.writes;
    // A flush may race another worker's store of the same key; both
    // writes are whole-entry atomic renames, so last-writer-wins is
    // safe (entries under one key are interchangeable re-recordings).
  }
  SAFEFLOW_COUNT_N("summaries.writes", stats_.writes);
  return ok;
}

std::set<std::string> SummaryStore::resolvedFunctions(
    SummaryPhase phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  return resolved_[static_cast<std::size_t>(phase)];
}

std::set<std::string> SummaryStore::memoizedFunctions(
    SummaryPhase phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto idx = static_cast<std::size_t>(phase);
  std::set<std::string> out;
  for (const std::string& name : hit_[idx]) {
    if (!resolved_[idx].contains(name)) out.insert(name);
  }
  return out;
}

SummaryStoreStats SummaryStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string SummaryStore::statsLine() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line = "summaries: hits=" + std::to_string(stats_.hits);
  line += " misses=" + std::to_string(stats_.misses);
  line += " invalidated=" + std::to_string(stats_.invalidated);
  line += " spliced=" + std::to_string(stats_.spliced);
  line += " writes=" + std::to_string(stats_.writes);
  line += " corrupt=" + std::to_string(stats_.corrupt);
  line += " entries=" + std::to_string(entries_.size());
  if (disk_enabled_) {
    line += " bytes=" + std::to_string(cache_.totalBytes());
  }
  return line;
}

std::uint64_t SummaryStore::residentEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t SummaryStore::diskBytes() const {
  return disk_enabled_ ? cache_.totalBytes() : 0;
}

}  // namespace safeflow
