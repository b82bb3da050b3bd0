// Structured, leveled logging for the SafeFlow fleet (DESIGN.md §13).
//
// Every long-lived piece of the analyzer (driver, supervisor, cache
// manager, workers) logs through one process-global Logger instead of
// ad-hoc std::cerr prints, so a fleet operator can (a) raise or lower
// verbosity uniformly (--log-level) and (b) switch stderr to NDJSON
// (--log-json): one JSON object per line carrying a wall-clock
// timestamp, pid, process label (the "shard" key), level, component,
// message, and free-form key/value pairs — the shape a log shipper
// ingests without regexes.
//
// Text mode keeps the historical `safeflow: <message>` prefix so
// existing greps (CI checks, scripts) keep working; key/value pairs are
// appended as ` (k=v, k2=v2)`.
//
// Levels, most to least severe: error > warn > note > info > debug.
// The default threshold is `note`: errors, warnings, and explicit
// operator-facing notes (e.g. "cache disabled under --trace") are
// printed; info/debug chatter (worker lifecycle, cache store
// details) needs --log-level info / debug.
//
// The SAFEFLOW_LOG macro evaluates its message/kv arguments only when
// the level is enabled, so debug logging in warm paths costs one
// relaxed atomic load when disabled.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

namespace safeflow::support {

enum class LogLevel : int {
  kError = 0,
  kWarn = 1,
  kNote = 2,
  kInfo = 3,
  kDebug = 4,
};

[[nodiscard]] std::string_view logLevelName(LogLevel level);

/// Parses "error"/"warn"/"note"/"info"/"debug" (case-sensitive).
/// Returns false on anything else.
bool parseLogLevel(std::string_view text, LogLevel* out);

/// One key/value pair attached to a log event. Values are pre-rendered
/// strings; numeric callers format with std::to_string.
using LogKv = std::pair<std::string_view, std::string>;

class Logger {
 public:
  /// The process-wide logger (stderr sink). Thread-safe: events are
  /// rendered into a local buffer and written with one ostream call.
  static Logger& instance();

  /// Installs the CLI configuration. `shard` labels every event from
  /// this process ("supervisor", "worker", "client", "safeflowd", ""
  /// for the plain in-process path).
  void configure(LogLevel level, bool json, std::string shard);

  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] bool json() const { return json_; }
  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) <= static_cast<int>(level_);
  }

  /// Emits one event (no-op when `level` is below the threshold).
  void log(LogLevel level, std::string_view component,
           std::string_view message,
           std::initializer_list<LogKv> kv = {});

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kNote;
  bool json_ = false;
  std::string shard_;
};

}  // namespace safeflow::support

/// Fire-and-forget logging; message/kv expressions are not evaluated
/// when the level is disabled.
#define SAFEFLOW_LOG(level, component, ...)                              \
  do {                                                                   \
    ::safeflow::support::Logger& sf_log_ =                               \
        ::safeflow::support::Logger::instance();                         \
    if (sf_log_.enabled(level)) {                                        \
      sf_log_.log(level, component, __VA_ARGS__);                        \
    }                                                                    \
  } while (0)
