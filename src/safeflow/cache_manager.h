// Content-addressed incremental analysis cache (DESIGN.md §11).
//
// SafeFlow's pipeline is deterministic per input set: the same sources
// (including every resolved header), the same analyzer version, and the
// same configuration always produce the same report. The CacheManager
// exploits that by keying an on-disk entry (a support::DiskCache under
// --cache-dir) with a 64-bit FNV-1a digest over exactly those inputs and
// storing the run's RunOutput (exit code, stdout, stderr, stats). A warm
// run replays the entry, so cached and live runs print the same bytes.
// One entry covers one whole file set: the analysis is whole-program.
//
// Key composition (any difference => different key => miss):
//   - cache envelope schema version;
//   - kAnalyzerVersion (driver.h; bumped on analysis-semantics changes);
//   - the analysis flags the CLI forwards to a worker (-I/-D/--mode/
//     --no-control-deps/--kill-critical/--time-budget/--step-budget/
//     --max-depth/--ranges), then the rendering flags
//     (--json/--quiet), since the entry stores printed
//     bytes. Scheduling and export flags (--isolate/--worker-timeout/
//     --retries/--stats*/--metrics-out) are excluded: they change
//     neither findings nor the report;
//   - per input file, in input order: its path (reports embed path
//     strings, so equal content at a different path must not hit) and
//     the bytes of the file plus its transitive `#include "..."`
//     closure, resolved exactly like the preprocessor (including-file
//     directory first, then -I dirs in order). The closure scan ignores
//     conditional compilation, i.e. hashes a superset of what the
//     preprocessor may include — that can only cause spurious misses,
//     never a wrong hit. Unresolvable includes hash as a marker so a
//     header appearing later changes the key.
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
#include <map>
#include <optional>
#include <string>
#include <utility>
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
  /// Include search path, needed to resolve the header closure the way
  /// the preprocessor will.
  std::vector<std::string> include_dirs;
  /// Analysis flags then rendering flags, in command-line order (what
  /// the supervisor forwards to its worker).
  std::vector<std::string> analysis_flags;
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

  /// Stable content key (16 hex chars) for analyzing `files` as one
  /// program.
  [[nodiscard]] std::string keyFor(
      const std::vector<std::string>& files) const;

  /// Hit: decoded entry, LRU-refreshed. Miss (absent, unreadable, or
  /// corrupt): nullopt; corrupt entries are additionally purged and
  /// reported once on stderr.
  [[nodiscard]] std::optional<RunOutput> lookup(const std::string& key);

  /// Persists a finished run under `key`. Runs that exit 2 (front-end
  /// errors) are not stored. Failures to write are diagnosed on stderr
  /// but never fail the run.
  void store(const std::string& key, const RunOutput& run);

  /// One-line human summary for --cache-stats.
  [[nodiscard]] std::string statsLine() const;

 private:
  void count(const char* name, std::uint64_t delta = 1);
  /// Hashes `path` and its transitive include closure into `hasher`.
  void hashFileClosure(const std::string& path,
                       const std::string& display_name,
                       support::Fnv1a& hasher,
                       std::vector<std::string>& visited) const;

  /// One file's bytes and resolved include edges, read from disk once
  /// per run. A shared header is part of every TU's closure, so without
  /// this memo an N-TU program re-reads it N times per key.
  struct FileInfo {
    bool exists = false;
    std::string contents;
    /// (resolved, value): value is the resolved path to recurse into,
    /// or the raw include name when resolution failed.
    std::vector<std::pair<bool, std::string>> includes;
  };
  const FileInfo& fileInfo(const std::string& path) const;

  CacheOptions options_;
  support::DiskCache disk_;
  support::MetricsRegistry* metrics_;
  std::string disabled_reason_;
  mutable std::map<std::string, FileInfo> file_info_;
};

}  // namespace safeflow
