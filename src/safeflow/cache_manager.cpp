#include "safeflow/cache_manager.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

#include "safeflow/driver.h"
#include "support/flight_recorder.h"
#include "support/log.h"

namespace safeflow {

namespace {

/// Envelope schema; bumped independently of kAnalyzerVersion when the
/// entry layout itself changes.
constexpr std::uint64_t kCacheSchema = 2;

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool fileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::string directoryOf(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  return path.substr(0, slash);
}

/// Extracts every `#include "name"` target from `text`, conditional
/// compilation ignored (see the soundness note in cache_manager.h:
/// hashing a superset of the real closure is safe, a subset is not).
std::vector<std::string> scanIncludes(std::string_view text) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;

    std::size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] != '#') continue;
    ++i;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    constexpr std::string_view kInclude = "include";
    if (line.substr(i, kInclude.size()) != kInclude) continue;
    i += kInclude.size();
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] != '"') continue;  // <...> ignored
    const std::size_t close = line.find('"', i + 1);
    if (close == std::string::npos) continue;
    names.emplace_back(line.substr(i + 1, close - i - 1));
  }
  return names;
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

const CacheManager::FileInfo& CacheManager::fileInfo(
    const std::string& path) const {
  const auto it = file_info_.find(path);
  if (it != file_info_.end()) return it->second;

  FileInfo info;
  const std::optional<std::string> contents = readFile(path);
  if (contents.has_value()) {
    info.exists = true;
    info.contents = *contents;
    const std::string dir = directoryOf(path);
    for (const std::string& name : scanIncludes(info.contents)) {
      // Resolution order mirrors Preprocessor::handleInclude: the
      // including file's directory first, then -I dirs in order.
      std::string resolved;
      if (const std::string local = dir + "/" + name; fileExists(local)) {
        resolved = local;
      } else {
        for (const std::string& inc : options_.include_dirs) {
          if (std::string candidate = inc + "/" + name;
              fileExists(candidate)) {
            resolved = std::move(candidate);
            break;
          }
        }
      }
      if (resolved.empty()) {
        // Unresolvable today; if the header appears tomorrow the marker
        // disappears and the key changes.
        info.includes.emplace_back(false, name);
      } else {
        info.includes.emplace_back(true, std::move(resolved));
      }
    }
  }
  // std::map references are stable, so the recursion in
  // hashFileClosure can keep this reference across further inserts.
  return file_info_.emplace(path, std::move(info)).first->second;
}

void CacheManager::hashFileClosure(const std::string& path,
                                   const std::string& display_name,
                                   support::Fnv1a& hasher,
                                   std::vector<std::string>& visited) const {
  for (const std::string& seen : visited) {
    if (seen == path) return;
  }
  visited.push_back(path);

  const FileInfo& info = fileInfo(path);
  if (!info.exists) {
    hasher.update("missing:");
    hasher.update(display_name);
    hasher.update("\n");
    return;
  }
  hasher.update("file:");
  hasher.update(display_name);
  hasher.update(":");
  hasher.update(std::to_string(info.contents.size()));
  hasher.update("\n");
  hasher.update(info.contents);

  for (const auto& [resolved, value] : info.includes) {
    if (!resolved) {
      hasher.update("unresolved-include:");
      hasher.update(value);
      hasher.update("\n");
      continue;
    }
    hashFileClosure(value, value, hasher, visited);
  }
}

std::string CacheManager::keyFor(
    const std::vector<std::string>& files) const {
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
    hasher.update("tu:");
    hasher.update(file);
    hasher.update("\n");
    std::vector<std::string> visited;
    hashFileClosure(file, file, hasher, visited);
  }
  return hasher.hex();
}

std::optional<RunOutput> CacheManager::lookup(const std::string& key) {
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
