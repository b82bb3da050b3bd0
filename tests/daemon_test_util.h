// Shared helpers for the safeflowd tests: spawn the real daemon binary
// (path injected by CMake as SAFEFLOWD_EXE) on a scratch socket, wait
// for it to accept, send raw NDJSON requests, and reap it. Faults are
// aimed via per-spawn extra env so the global test environment is never
// mutated.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/unix_socket.h"

namespace daemon_test {

/// Forks and execs safeflowd with `args` appended after the binary path.
/// Returns the child pid (-1 on fork failure). The daemon's stdout and
/// stderr are inherited so failures show up in the test log. A nonzero
/// `max_open_files` lowers the daemon's RLIMIT_NOFILE to that many
/// descriptors.
inline pid_t spawnDaemon(
    const std::vector<std::string>& args,
    const std::vector<std::pair<std::string, std::string>>& extra_env = {},
    rlim_t max_open_files = 0) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (const auto& [name, value] : extra_env) {
    ::setenv(name.c_str(), value.c_str(), 1);
  }
  if (max_open_files > 0) {
    const struct rlimit limit = {max_open_files, max_open_files};
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(126);
  }
  std::vector<std::string> store;
  store.emplace_back(SAFEFLOWD_EXE);
  for (const std::string& a : args) store.push_back(a);
  std::vector<char*> argv;
  argv.reserve(store.size() + 1);
  for (std::string& a : store) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  ::_exit(127);
}

/// Polls with connect() until the daemon accepts or the deadline lapses.
inline bool waitForSocket(const std::string& path,
                          double timeout_seconds = 15.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    const int fd = safeflow::support::connectUnixSocket(path);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// One protocol round trip: connect, send `request` verbatim, read one
/// response line. Returns the line ("" on transport failure; `*io`
/// reports the precise outcome when non-null).
inline std::string rawRequest(const std::string& socket_path,
                              const std::string& request,
                              double timeout_seconds = 120.0,
                              safeflow::support::LineIo* io = nullptr) {
  namespace support = safeflow::support;
  std::string line;
  const int fd = support::connectUnixSocket(socket_path);
  if (fd < 0) {
    if (io != nullptr) *io = support::LineIo::kError;
    return line;
  }
  if (!support::writeAll(fd, request)) {
    ::close(fd);
    if (io != nullptr) *io = support::LineIo::kError;
    return line;
  }
  const support::LineIo rc =
      support::readLine(fd, &line, 64u << 20, timeout_seconds);
  ::close(fd);
  if (io != nullptr) *io = rc;
  return line;
}

/// Builds an analyze request. Paths in the tests contain no characters
/// needing JSON escapes beyond these two.
inline std::string analyzeRequest(const std::vector<std::string>& files,
                                  const std::vector<std::string>& flags,
                                  bool json = false, bool quiet = false,
                                  std::uint64_t deadline_ms = 0) {
  const auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::string request = "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [";
  for (std::size_t i = 0; i < files.size(); ++i) {
    request += (i == 0 ? "\"" : ", \"") + escape(files[i]) + "\"";
  }
  request += "], \"flags\": [";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    request += (i == 0 ? "\"" : ", \"") + escape(flags[i]) + "\"";
  }
  request += "], \"json\": ";
  request += json ? "true" : "false";
  request += ", \"quiet\": ";
  request += quiet ? "true" : "false";
  if (deadline_ms > 0) {
    request += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  }
  request += "}\n";
  return request;
}

/// Waits for the child to exit. Returns the raw waitpid status, or -1
/// when the deadline lapses (the caller should SIGKILL and fail).
inline int waitForExit(pid_t pid, double timeout_seconds = 30.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

/// Best-effort teardown for tests that already asserted what they
/// needed: SIGKILL + reap, ignoring errors.
inline void killDaemon(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  (void)waitForExit(pid, 10.0);
}

}  // namespace daemon_test
