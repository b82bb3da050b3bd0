#include "safeflow/cache_manager.h"

#include <cstdlib>

#include "safeflow/driver.h"
#include "support/flight_recorder.h"
#include "support/log.h"
#include "support/source_manager.h"

namespace safeflow {

namespace {

/// Envelope schema; bumped independently of kAnalyzerVersion when the
/// entry layout itself changes.
constexpr std::uint64_t kCacheSchema = 3;

/// `path` as it reads on disk now, read the way the frontend reads it.
FileRead readNow(const std::string& path) {
  support::SourceManager sm;
  return fileReadOf(path, sm, sm.addFile(path).value_or(support::FileId{}));
}

/// The first file `run` read other bytes of than this lookup sees: the
/// key's input files, then the headers as they are on disk now. ""
/// when there is none.
std::string firstStaleRead(const CacheKey& key, const RunOutput& run) {
  for (std::size_t i = 0; i < run.reads.size(); ++i) {
    const FileRead& read = run.reads[i];
    if (read != (i < key.roots.size() ? key.roots[i] : readNow(read.path))) {
      return read.path;
    }
  }
  return run.reads.size() < key.roots.size() ? key.roots[run.reads.size()].path
                                             : "";
}

}  // namespace

CacheManager::CacheManager(CacheOptions options,
                           support::MetricsRegistry* metrics)
    : options_(std::move(options)),
      disk_({options_.dir, options_.max_bytes}),
      metrics_(metrics) {
  // Injected faults make runs non-deterministic: never serve or record
  // results while the fault hook is armed.
  if (std::getenv("SAFEFLOW_INJECT_FAULT") != nullptr) {
    disable("fault-injection");
  }
}

void CacheManager::recover() {
  if (!options_.enabled) return;
  // A writer killed between open() and rename() leaves a *.tmp file
  // behind. Old ones are garbage; the age discipline in sweepStrayTemps
  // leaves a live concurrent writer's temp alone.
  const std::uint64_t swept = disk_.sweepStrayTemps();
  if (swept > 0) {
    count("cache.temps_swept", swept);
    SAFEFLOW_LOG(support::LogLevel::kNote, "cache",
                 "note: swept stale cache temp files",
                 {{"count", std::to_string(swept)}, {"dir", options_.dir}});
  }
  // Verify-and-purge: a write torn by a killed process or a power cut
  // fails its envelope checksum and is removed before it can be served.
  // Each purge gets the same diagnostic a lookup-time corruption would,
  // and is counted so the chaos soak can assert detection happened.
  std::vector<std::string> purged_paths;
  const std::uint64_t purged = disk_.verifyEntries(&purged_paths);
  if (purged == 0) return;
  count("cache.torn_entries_purged", purged);
  count("cache.corrupt", purged);
  support::flightRecord("cache", "purged " + std::to_string(purged) +
                                     " torn entr(ies) at open");
  for (const std::string& path : purged_paths) {
    SAFEFLOW_LOG(support::LogLevel::kWarn, "cache",
                 "cache entry " + path +
                     " is corrupt (torn or truncated on disk); "
                     "falling back to cold analysis",
                 {{"dir", options_.dir}});
  }
}

void CacheManager::disable(std::string reason) {
  if (!options_.enabled) return;
  options_.enabled = false;
  disabled_reason_ = std::move(reason);
  support::flightRecord("cache", "disabled: " + disabled_reason_);
  SAFEFLOW_LOG(support::LogLevel::kNote, "cache",
               "note: incremental cache disabled",
               {{"reason", disabled_reason_}, {"dir", options_.dir}});
}

void CacheManager::count(const char* name, std::uint64_t delta) {
  if (metrics_ != nullptr) metrics_->counter(name).add(delta);
}

CacheKey CacheManager::keyFor(const std::vector<std::string>& files) const {
  CacheKey key;
  support::Fnv1a hasher;
  hasher.update("safeflow-cache-schema:");
  hasher.update(std::to_string(kCacheSchema));
  hasher.update("\n");
  hasher.update("analyzer:");
  hasher.update(kAnalyzerVersion);
  hasher.update("\n");
  for (const std::string& flag : options_.analysis_flags) {
    hasher.update("flag:");
    hasher.update(flag);
    hasher.update("\n");
  }
  for (const std::string& file : files) {
    const FileRead& root = key.roots.emplace_back(readNow(file));
    hasher.update("tu:");
    hasher.update(root.path);
    hasher.update("\n");
    hasher.update(root.digest);  // "" when the file cannot be opened
    hasher.update("\n");
  }
  key.hex = hasher.hex();
  return key;
}

std::optional<RunOutput> CacheManager::lookup(const CacheKey& cache_key) {
  const std::string& key = cache_key.hex;
  support::DiskCache::LookupResult checked = disk_.lookupChecked(key);
  if (checked.status == support::DiskCache::LookupStatus::kMiss) {
    count("cache.misses");
    support::flightRecord("cache", "miss " + key);
    SAFEFLOW_LOG(support::LogLevel::kDebug, "cache", "cache miss",
                 {{"key", key}});
    return std::nullopt;
  }

  // Anything short of a fully valid entry is "corrupt": diagnose, purge,
  // and fall back to a cold run. Never a crash, never a wrong report. A
  // storage-layer checksum failure (torn/truncated write) is
  // additionally counted under cache.torn_entries_purged.
  std::string why;
  support::json::Value doc;
  RunOutput result;
  std::string parse_error;
  if (checked.status == support::DiskCache::LookupStatus::kTorn) {
    why = "torn or truncated on disk";
    count("cache.torn_entries_purged");
  } else if (!support::json::parse(checked.payload, &doc, &parse_error) ||
             !doc.isObject()) {
    why = "unparseable payload (" + parse_error + ")";
  } else if (doc.memberUint("cache_schema") != kCacheSchema) {
    why = "unknown cache_schema";
  } else if (doc.memberString("analyzer_version") != kAnalyzerVersion) {
    why = "analyzer version mismatch";
  } else if (doc.memberString("key") != key) {
    why = "key echo mismatch";
  } else if (const support::json::Value* run = doc.find("run");
             run == nullptr || !readEnvelope(*run, &result)) {
    why = "missing or invalid run";
  }

  if (!why.empty()) {
    // CI greps for the "falling back to cold analysis" substring; keep
    // it inside the message whichever log format is active.
    SAFEFLOW_LOG(support::LogLevel::kWarn, "cache",
                 "cache entry " + disk_.entryPath(key) + " is corrupt (" +
                     why + "); falling back to cold analysis",
                 {{"key", key}});
    support::flightRecord("cache", "corrupt " + key);
    disk_.remove(key);
    count("cache.corrupt");
    count("cache.misses");
    return std::nullopt;
  }
  // A valid entry whose run read other bytes than this lookup sees is
  // stale, an ordinary miss: the cold run that follows stores over it.
  if (const std::string stale = firstStaleRead(cache_key, result);
      !stale.empty()) {
    count("cache.misses");
    support::flightRecord("cache", "stale " + key);
    SAFEFLOW_LOG(support::LogLevel::kDebug, "cache",
                 "cache miss: file changed since the entry was stored",
                 {{"key", key}, {"path", stale}});
    return std::nullopt;
  }
  count("cache.hits");
  support::flightRecord("cache", "hit " + key);
  SAFEFLOW_LOG(support::LogLevel::kDebug, "cache", "cache hit",
               {{"key", key}});
  return result;
}

void CacheManager::store(const std::string& key, const RunOutput& run) {
  if (run.exit_code == 2) return;
  const std::string entry =
      "{\"cache_schema\": " + std::to_string(kCacheSchema) +
      ", \"analyzer_version\": \"" +
      support::json::escape(kAnalyzerVersion) + "\", \"key\": \"" +
      support::json::escape(key) + "\",\n\"run\": " + renderEnvelope(run) +
      "}\n";
  const support::DiskCache::StoreResult stored = disk_.store(key, entry);
  if (!stored.ok) {
    SAFEFLOW_LOG(support::LogLevel::kWarn, "cache",
                 "cannot write cache entry for key " + key + ": " +
                     stored.error);
    return;
  }
  count("cache.writes");
  support::flightRecord("cache", "store " + key);
  SAFEFLOW_LOG(support::LogLevel::kDebug, "cache", "cache store",
               {{"key", key}});
  if (stored.evicted > 0) count("cache.evictions", stored.evicted);
  if (metrics_ != nullptr) {
    metrics_->gauge("cache.size_bytes")
        .set(static_cast<double>(disk_.totalBytes()));
  }
}

}  // namespace safeflow
