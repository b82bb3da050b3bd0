#include "support/log.h"

#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>

#include <sys/time.h>
#include <unistd.h>

#include "support/json.h"

namespace safeflow::support {

namespace {

std::mutex g_log_mu;

}  // namespace

std::string_view logLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kNote: return "note";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

bool parseLogLevel(std::string_view text, LogLevel* out) {
  if (text == "error") *out = LogLevel::kError;
  else if (text == "warn") *out = LogLevel::kWarn;
  else if (text == "note") *out = LogLevel::kNote;
  else if (text == "info") *out = LogLevel::kInfo;
  else if (text == "debug") *out = LogLevel::kDebug;
  else return false;
  return true;
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::configure(LogLevel level, bool json, std::string shard) {
  level_ = level;
  json_ = json;
  shard_ = std::move(shard);
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message,
                 std::initializer_list<LogKv> kv) {
  if (!enabled(level)) return;
  std::ostringstream out;
  if (json_) {
    struct timeval tv{};
    ::gettimeofday(&tv, nullptr);
    char ts[48];
    std::snprintf(ts, sizeof ts, "%lld.%06ld",
                  static_cast<long long>(tv.tv_sec),
                  static_cast<long>(tv.tv_usec));
    out << "{\"ts\": " << ts << ", \"pid\": " << ::getpid()
        << ", \"level\": \"" << logLevelName(level) << "\"";
    if (!shard_.empty()) {
      out << ", \"shard\": \"" << json::escape(shard_) << "\"";
    }
    out << ", \"component\": \"" << json::escape(component)
        << "\", \"msg\": \"" << json::escape(message) << "\"";
    for (const LogKv& pair : kv) {
      out << ", \"" << json::escape(pair.first) << "\": \""
          << json::escape(pair.second) << "\"";
    }
    out << "}\n";
  } else {
    // Historical stderr shape: `safeflow: <message>`; greps rely on it.
    out << "safeflow: " << message;
    if (kv.size() != 0) {
      out << " (";
      bool first = true;
      for (const LogKv& pair : kv) {
        out << (first ? "" : ", ") << pair.first << "=" << pair.second;
        first = false;
      }
      out << ")";
    }
    out << "\n";
  }
  const std::lock_guard<std::mutex> lock(g_log_mu);
  std::cerr << out.str();
}

}  // namespace safeflow::support
