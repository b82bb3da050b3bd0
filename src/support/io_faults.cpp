#include "support/io_faults.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/flight_recorder.h"

namespace safeflow::support::io {

namespace {

enum class IoFaultKind {
  kNone,
  kEnospc,
  kEio,
  kShortWrite,
  kTornRename,
  kFsyncFail,
};

struct IoFaultSpec {
  IoFaultKind kind = IoFaultKind::kNone;
  std::string site;
  unsigned nth = 1;
};

std::atomic<bool> g_armed{false};
std::mutex g_mu;          // guards g_spec and g_hits across pool threads
IoFaultSpec g_spec;
unsigned g_hits = 0;

const char* kindName(IoFaultKind kind) {
  switch (kind) {
    case IoFaultKind::kEnospc: return "enospc";
    case IoFaultKind::kEio: return "eio";
    case IoFaultKind::kShortWrite: return "short_write";
    case IoFaultKind::kTornRename: return "torn_rename";
    case IoFaultKind::kFsyncFail: return "fsync_fail";
    case IoFaultKind::kNone: break;
  }
  return "none";
}

bool parseSpec(const std::string& text, IoFaultSpec* spec) {
  const std::size_t at = text.find('@');
  if (at == std::string::npos) return false;
  const std::string kind = text.substr(0, at);
  std::string rest = text.substr(at + 1);
  if (kind == "enospc") spec->kind = IoFaultKind::kEnospc;
  else if (kind == "eio") spec->kind = IoFaultKind::kEio;
  else if (kind == "short_write") spec->kind = IoFaultKind::kShortWrite;
  else if (kind == "torn_rename") spec->kind = IoFaultKind::kTornRename;
  else if (kind == "fsync_fail") spec->kind = IoFaultKind::kFsyncFail;
  else return false;
  if (const std::size_t colon = rest.find(':');
      colon != std::string::npos) {
    const std::string nth = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
    char* end = nullptr;
    const unsigned long n = std::strtoul(nth.c_str(), &end, 10);
    if (end == nth.c_str() || *end != '\0' || n == 0) return false;
    spec->nth = static_cast<unsigned>(n);
  }
  if (rest.empty()) return false;
  spec->site = rest;
  return true;
}

/// True (and consumes the armed fault) when `site` hits the configured
/// nth occurrence of a checkpoint the given kinds apply to.
bool shouldTrigger(const char* site, std::initializer_list<IoFaultKind> kinds,
                   IoFaultKind* kind) {
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  const std::lock_guard<std::mutex> lock(g_mu);
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  bool applies = false;
  for (const IoFaultKind k : kinds) applies = applies || k == g_spec.kind;
  if (!applies || g_spec.site != site) return false;
  if (++g_hits < g_spec.nth) return false;
  // One-shot: the retry/fallback path must see a healthy filesystem.
  g_armed.store(false, std::memory_order_relaxed);
  *kind = g_spec.kind;
  flightRecord("io_fault",
               std::string(kindName(g_spec.kind)) + "@" + g_spec.site);
  return true;
}

IoStatus failure(const std::string& what, int error_errno) {
  IoStatus status;
  status.ok = false;
  status.error_errno = error_errno;
  status.message = what;
  if (error_errno != 0) {
    status.message += ": ";
    status.message += std::strerror(error_errno);
  }
  return status;
}

}  // namespace

void armIoFaultInjectionFromEnv() {
  const char* spec_text = std::getenv("SAFEFLOW_INJECT_IO");
  if (spec_text == nullptr || *spec_text == '\0') return;
  (void)armIoFaultInjection(spec_text);
}

bool armIoFaultInjection(const std::string& spec_text) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_hits = 0;
  if (spec_text.empty()) {
    g_armed.store(false, std::memory_order_relaxed);
    g_spec = IoFaultSpec{};
    return true;
  }
  IoFaultSpec spec;
  if (!parseSpec(spec_text, &spec)) {
    g_armed.store(false, std::memory_order_relaxed);
    return false;  // malformed: stay inert, like SAFEFLOW_INJECT_FAULT
  }
  g_spec = std::move(spec);
  g_armed.store(true, std::memory_order_relaxed);
  return true;
}

bool ioFaultInjectionArmed() {
  return g_armed.load(std::memory_order_relaxed);
}

bool writeAllFd(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

/// MSG_NOSIGNAL counterpart of writeAllFd for sockets.
bool sendAllFd(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Shared body of writeAll/sendAll, parameterized on the raw loop.
IoStatus writeThroughFaults(int fd, std::string_view data, const char* site,
                            bool (*loop)(int, const char*, std::size_t)) {
  IoFaultKind kind = IoFaultKind::kNone;
  std::size_t limit = data.size();
  bool fail_after_prefix = false;
  int fail_errno = 0;
  if (shouldTrigger(site,
                    {IoFaultKind::kEnospc, IoFaultKind::kEio,
                     IoFaultKind::kShortWrite},
                    &kind)) {
    // All three kinds first emit a partial prefix: enospc/eio then fail
    // (the torn artifact the caller must clean up), short_write then
    // continues (the loop below must finish the job on its own).
    limit = data.size() / 2;
    if (kind == IoFaultKind::kEnospc || kind == IoFaultKind::kEio) {
      fail_after_prefix = true;
      fail_errno = kind == IoFaultKind::kEnospc ? ENOSPC : EIO;
    }
  }
  if (!loop(fd, data.data(), limit)) {
    return failure("write failed at site '" + std::string(site) + "'",
                   errno);
  }
  if (fail_after_prefix) {
    return failure("write failed at site '" + std::string(site) +
                       "' (injected)",
                   fail_errno);
  }
  if (limit < data.size() &&
      !loop(fd, data.data() + limit, data.size() - limit)) {
    return failure("write failed at site '" + std::string(site) + "'",
                   errno);
  }
  return IoStatus{};
}

}  // namespace

IoStatus writeAll(int fd, std::string_view data, const char* site) {
  return writeThroughFaults(fd, data, site, &writeAllFd);
}

IoStatus sendAll(int fd, std::string_view data, const char* site) {
  return writeThroughFaults(fd, data, site, &sendAllFd);
}

IoStatus fsyncFd(int fd, const char* site) {
  IoFaultKind kind = IoFaultKind::kNone;
  if (shouldTrigger(site, {IoFaultKind::kFsyncFail}, &kind)) {
    return failure("fsync failed at site '" + std::string(site) +
                       "' (injected)",
                   EIO);
  }
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    // EINVAL: the fd cannot be synced (a pipe/socket in tests); that is
    // not a durability failure of a regular file.
    if (errno == EINVAL) break;
    return failure("fsync failed at site '" + std::string(site) + "'",
                   errno);
  }
  return IoStatus{};
}

IoStatus renameFile(const std::string& from, const std::string& to,
                    const char* site) {
  IoFaultKind kind = IoFaultKind::kNone;
  if (shouldTrigger(site, {IoFaultKind::kTornRename}, &kind)) {
    // Emulate the crash window a missing fsync leaves open: the rename
    // "happens" but the destination's bytes are torn. The caller sees a
    // failure; the next reader must detect the torn entry by checksum.
    struct stat st{};
    if (::stat(from.c_str(), &st) == 0 && st.st_size > 0) {
      (void)::truncate(from.c_str(), st.st_size / 2);
    }
    (void)::rename(from.c_str(), to.c_str());
    return failure("rename '" + from + "' to '" + to + "' at site '" +
                       std::string(site) + "' left a torn file (injected)",
                   0);
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return failure("cannot rename '" + from + "' to '" + to + "'", errno);
  }
  return IoStatus{};
}

IoStatus writeFile(const std::string& path, std::string_view data,
                   const char* site) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return failure("cannot create '" + path + "'", errno);
  }
  IoStatus status = writeAll(fd, data, site);
  if (status.ok) status = fsyncFd(fd, site);
  struct stat st{};
  const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  ::close(fd);
  if (!status.ok) {
    // Never leave a truncated-but-silent artifact: a consumer must see
    // either the complete document or no file at all. Only a regular
    // file is removed: a failed write to a device such as /dev/full
    // must not unlink the device node.
    if (regular) ::unlink(path.c_str());
    status.message = "cannot write '" + path + "': " + status.message;
  }
  return status;
}

}  // namespace safeflow::support::io
