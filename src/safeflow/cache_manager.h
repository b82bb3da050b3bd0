// Content-addressed incremental analysis cache (DESIGN.md §11).
//
// SafeFlow's pipeline is deterministic per input set: the same sources
// (including every header they include), the same analyzer version, and
// the same configuration always produce the same report. The
// CacheManager exploits that by storing the run's RunOutput (exit code,
// stdout, stderr, stats, reads) in an on-disk entry (a support::DiskCache
// under --cache-dir). A warm run replays the entry, so cached and live
// runs print the same bytes. One entry covers one whole file set: the
// analysis is whole-program.
//
// Key composition (any difference => different key => miss):
//   - cache envelope schema version;
//   - kAnalyzerVersion (driver.h; bumped on analysis-semantics changes);
//   - the analysis flags the CLI forwards to a worker (-I/-D/--mode/
//     --no-control-deps/--kill-critical/--time-budget/--step-budget/
//     --no-ranges), then the rendering flags
//     (--json/--quiet), since the entry stores printed
//     bytes. Scheduling and export flags (--isolate/--worker-timeout/
//     --retries/--stats*/--metrics-out) are excluded: they change
//     neither findings nor the report;
//   - per input file, in input order: its path (reports embed path
//     strings, so equal content at a different path must not hit) and
//     the FNV-1a digest of its bytes.
//
// Headers are not in the key. The entry stores what the run read
// (RunOutput::reads): each input file's digest, which must equal the
// key's, and every path an #include tried with the digest of the bytes
// there or "could not open", which a lookup re-reads. A changed,
// vanished or newly appearing header is a plain miss; the cold run that
// follows stores over the entry. Only the preprocessor resolves
// includes, so the cache cannot disagree with a cold run about them.
//
// Robustness: entries are written crash-consistently by DiskCache
// (checksummed envelope, fsync, temp + rename); lookup() first checks
// the storage envelope (a torn/truncated entry is counted as
// cache.torn_entries_purged) and then validates the JSON entry (parse,
// schema, key echo, analyzer version, exit code range). Any mismatch is
// "corrupt": one diagnostic on stderr, a cache.corrupt count, the entry
// purged, and the caller falls back to a cold run. Corruption is never
// a crash and never a wrong report. The process that owns the
// directory (the CLI before its run, safeflowd at start-up) calls
// recover() once to purge what a killed writer left behind. The whole
// cache is disabled when SAFEFLOW_INJECT_FAULT is armed: injected
// faults make runs non-deterministic, which violates the cache's core
// assumption. SAFEFLOW_INJECT_IO, by contrast, keeps the cache ON —
// surviving injected storage faults is precisely what it exists to
// prove.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "safeflow/run_output.h"
#include "support/cache.h"
#include "support/metrics.h"

namespace safeflow {

struct CacheOptions {
  bool enabled = false;
  /// Created on demand, parents included (--cache-dir).
  std::string dir = ".safeflow-cache";
  /// LRU size cap (--cache-max-mb, default 256 MiB).
  std::uint64_t max_bytes = 256ull << 20;
  /// Analysis flags then rendering flags, in command-line order (what
  /// the supervisor forwards to its worker).
  std::vector<std::string> analysis_flags;
};

/// What keyFor() derived from one file set: the entry's key (16 hex
/// chars) and each input file as it read then.
struct CacheKey {
  std::string hex;
  std::vector<FileRead> roots;
};

class CacheManager {
 public:
  /// `metrics` receives cache.hits/misses/writes/evictions/corrupt and
  /// the cache.size_bytes gauge; may be null (counting disabled). Must
  /// outlive the manager.
  CacheManager(CacheOptions options, support::MetricsRegistry* metrics);

  [[nodiscard]] bool enabled() const { return options_.enabled; }
  [[nodiscard]] const std::string& dir() const { return options_.dir; }

  /// Non-empty when a cache the user asked for (--cache-dir) was
  /// disabled anyway; names why ("fault-injection", "trace", "dot").
  /// Surfaced as a note diagnostic and the cache.disabled_reason stat
  /// so warm-run expectations are never silently wrong.
  [[nodiscard]] const std::string& disabledReason() const {
    return disabled_reason_;
  }

  /// Crash recovery for the directory: sweeps stray temp files a
  /// killed writer left and purges entries whose envelope no longer
  /// verifies. Call once per directory owner (the CLI run, the daemon
  /// at start-up), not per lookup.
  void recover();

  /// Disables the cache, recording `reason` (first reason wins). No-op
  /// when the cache was never enabled.
  void disable(std::string reason);

  /// Reads each of `files` once and derives the key for analyzing them
  /// as one program.
  [[nodiscard]] CacheKey keyFor(const std::vector<std::string>& files) const;

  /// Hit: decoded entry, LRU-refreshed. Miss (absent, unreadable,
  /// corrupt, or stale: its run read a file other than it reads now):
  /// nullopt; corrupt entries are additionally purged and reported once
  /// on stderr.
  [[nodiscard]] std::optional<RunOutput> lookup(const CacheKey& key);

  /// Persists a finished run under `key`. Runs that exit 2 (front-end
  /// errors) are not stored. Failures to write are diagnosed on stderr
  /// but never fail the run.
  void store(const std::string& key, const RunOutput& run);

 private:
  void count(const char* name, std::uint64_t delta = 1);

  CacheOptions options_;
  support::DiskCache disk_;
  support::MetricsRegistry* metrics_;
  std::string disabled_reason_;
};

}  // namespace safeflow
