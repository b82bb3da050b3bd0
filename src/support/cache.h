// On-disk content-addressed cache primitives for the incremental
// analysis layer: a hand-rolled 64-bit FNV-1a hasher (no external
// dependency, stable across platforms and builds) and a DiskCache that
// maps hex keys to payload files under one directory.
//
// Durability contract the cache manager relies on:
//   - store() frames the payload in a checksummed envelope
//     ("SFC1 <fnv1a-hex> <len-hex>\n" + payload), fsyncs the temp file,
//     and only then rename()s it into place, so a killed process — or a
//     power cut racing an unsynced rename — never leaves an undetected
//     torn entry under a valid key: the bytes either verify or the
//     entry reads as torn;
//   - lookup() verifies the envelope; a torn entry is purged and
//     reported distinctly from a plain miss (lookupChecked) so callers
//     can count and diagnose it;
//   - verifyEntries() sweeps the whole directory at startup, purging
//     anything that fails verification (crash recovery);
//   - lookup() refreshes the entry's mtime, so recency == mtime and
//     eviction can be plain oldest-mtime-first LRU;
//   - store() enforces the byte cap by evicting least-recently-used
//     entries after each write (never the entry just written); byte
//     accounting is payload bytes (envelope overhead excluded).
//
// The payload is opaque bytes here; validation (JSON parse, key echo,
// analyzer version) is the caller's job, because only the caller knows
// what a well-formed entry looks like.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace safeflow::support {

/// Incremental 64-bit FNV-1a. Stable, dependency-free, and good enough
/// for content addressing: collisions require adversarial inputs, and a
/// wrong hit is additionally guarded by the key echoed inside the entry.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  void update(std::string_view bytes) {
    for (const char c : bytes) {
      state_ ^= static_cast<unsigned char>(c);
      state_ *= kPrime;
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return state_; }
  /// 16 lowercase hex characters (zero-padded).
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// One-shot convenience.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

struct DiskCacheOptions {
  std::string dir;
  /// Total payload byte cap; exceeding it evicts oldest-mtime entries.
  /// 0 disables eviction.
  std::uint64_t max_bytes = 256ull << 20;
};

class DiskCache {
 public:
  explicit DiskCache(DiskCacheOptions options);

  /// Creates the cache directory and any missing parents (mkdir -p).
  /// Idempotent; returns false with a description on failure.
  bool ensureDir(std::string* error = nullptr);

  /// Fixed envelope prefix every entry carries on disk:
  /// "SFC1 <16-hex fnv1a(payload)> <16-hex payload-length>\n".
  static constexpr std::size_t kEnvelopeBytes = 5 + 16 + 1 + 16 + 1;

  enum class LookupStatus {
    kMiss,  // no entry under the key
    kHit,   // envelope verified; payload returned
    kTorn,  // entry present but fails verification (torn/truncated/legacy)
  };
  struct LookupResult {
    LookupStatus status = LookupStatus::kMiss;
    std::string payload;  // set on kHit
  };
  /// Reads and verifies the entry for `key_hex`; a hit is marked
  /// most-recently-used. Torn entries are reported (not purged — the
  /// caller owns the diagnostic and the purge).
  [[nodiscard]] LookupResult lookupChecked(std::string_view key_hex);

  /// Convenience wrapper: a verified payload or nullopt. Torn entries
  /// are purged on the spot and read as a miss.
  [[nodiscard]] std::optional<std::string> lookup(std::string_view key_hex);

  /// Startup verify-and-purge sweep: reads every entry, unlinks any that
  /// fails envelope verification (a torn write replayed from a killed
  /// process, a half-synced rename, a legacy unframed entry). Returns
  /// the number purged; their paths are appended to `purged_paths` when
  /// non-null so the caller can diagnose each one.
  std::uint64_t verifyEntries(std::vector<std::string>* purged_paths =
                                  nullptr);

  struct StoreResult {
    bool ok = false;
    /// Entries removed by the post-write LRU sweep.
    std::uint64_t evicted = 0;
    std::string error;  // set when !ok
  };
  /// Atomically creates or replaces the entry (checksummed envelope to a
  /// temp file, fsync, rename), then evicts least-recently-used entries
  /// until the directory is back under max_bytes.
  StoreResult store(std::string_view key_hex, std::string_view payload);

  /// Deletes the entry if present (used to purge corrupt payloads so
  /// they are not re-parsed on every run).
  void remove(std::string_view key_hex);

  /// Unlinks stray `*.tmp.*` files at least `min_age_seconds` old —
  /// leftovers of writers killed between open() and rename(). Younger
  /// temps are left alone: they may belong to a live concurrent store()
  /// whose rename would fail if its temp vanished. Returns the number
  /// swept. Run at daemon startup (crash recovery); eviction applies
  /// the same age discipline.
  std::uint64_t sweepStrayTemps(double min_age_seconds = 60.0);

  /// Absolute-or-relative path of the entry file for `key_hex`.
  [[nodiscard]] std::string entryPath(std::string_view key_hex) const;

  /// Sum of entry payload sizes currently on disk (scans the directory;
  /// envelope overhead excluded).
  [[nodiscard]] std::uint64_t totalBytes() const;

  [[nodiscard]] const std::string& dir() const { return options_.dir; }
  [[nodiscard]] std::uint64_t maxBytes() const { return options_.max_bytes; }

 private:
  /// Evicts least-recently-used entries (and aged-out stray temps) until
  /// the directory holds at most `target_bytes` of payload, never
  /// `keep_key_hex`. Returns the number of files removed.
  std::uint64_t evictToBytes(std::uint64_t target_bytes,
                             std::string_view keep_key_hex);

  DiskCacheOptions options_;
};

}  // namespace safeflow::support
