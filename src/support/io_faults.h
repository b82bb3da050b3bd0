// Deterministic syscall-layer I/O fault injection plus the hardened
// write helpers every SafeFlow writer routes through. PR 3's
// SAFEFLOW_INJECT_FAULT proved the value of reproducible process-level
// failures; this extends the same discipline one layer down, to the
// write()/fsync()/rename() calls that real fleets see fail first
// (ENOSPC, EIO, torn renames on power loss).
//
//   SAFEFLOW_INJECT_IO=<kind>@<site>[:<nth>]
//     kind  enospc      the nth write at <site> writes a partial prefix
//                       and then fails with ENOSPC
//           eio         same, failing with EIO
//           short_write the nth write at <site> is split into short
//                       write() returns (no error: exercises the
//                       partial-write loops, which must still succeed)
//           torn_rename the nth rename at <site> truncates the source
//                       to half before renaming it into place and then
//                       reports failure — the torn final file emulates
//                       a non-fsync'd rename surviving a power cut,
//                       which the checksummed cache envelope must catch
//           fsync_fail  the nth fsync at <site> fails with EIO
//     site  a writer identity: "cache.store", "metrics.out",
//           "trace.out", "stats.out", "dot.out", "daemon.socket"
//     nth   trigger on the nth matching operation (default 1)
//
// Injection is one-shot: after triggering once the hook disarms, so
// retry/fallback paths observe a healthy filesystem — exactly the
// transient-fault shape the cold-path recovery code must handle.
//
// Arming never happens implicitly: only the safeflow/safeflowd entry
// points call armIoFaultInjectionFromEnv(), so library users pay one
// relaxed atomic load per fault checkpoint and nothing else.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace safeflow::support::io {

/// Parses SAFEFLOW_INJECT_IO and arms the hook for this process.
/// Malformed specs stay inert. Called by the CLI/daemon entry points.
void armIoFaultInjectionFromEnv();

/// Arms (or, with an empty spec, disarms) directly; returns false on a
/// malformed spec. Test helper — production code arms from the env.
bool armIoFaultInjection(const std::string& spec);

/// True when an I/O fault is armed and not yet consumed.
[[nodiscard]] bool ioFaultInjectionArmed();

/// Outcome of a hardened I/O helper. `message` names the operation and
/// the target; `error_errno` is the failing errno (0 for injected
/// non-errno failures like torn_rename).
struct IoStatus {
  bool ok = true;
  int error_errno = 0;
  std::string message;  // set when !ok
};

/// EINTR- and partial-write-safe raw write loop. No fault hooks, no
/// allocation: async-signal-safe, usable from crash handlers and the
/// post-fork child (the shared fix for the audited bare-write() sites).
bool writeAllFd(int fd, const char* data, std::size_t len);

/// EINTR- and partial-write-safe write with a fault checkpoint for
/// `site` (enospc/eio/short_write kinds).
IoStatus writeAll(int fd, std::string_view data, const char* site);

/// Socket flavor of writeAll: same loop and fault checkpoint, but sends
/// with MSG_NOSIGNAL so a peer that disconnects mid-response surfaces
/// as a failure status, never as a fatal SIGPIPE.
IoStatus sendAll(int fd, std::string_view data, const char* site);

/// fsync with a fault checkpoint (fsync_fail kind).
IoStatus fsyncFd(int fd, const char* site);

/// rename with a fault checkpoint (torn_rename kind). On injected
/// failure the source is truncated to half and renamed anyway — the
/// torn destination is the hazard checksum verification exists for.
IoStatus renameFile(const std::string& from, const std::string& to,
                    const char* site);

/// Creates/overwrites `path` with `data` through writeAll/fsync. On any
/// failure a partial regular file is unlinked before returning, so a
/// failed export can never leave a truncated-but-silent artifact behind;
/// a device or FIFO at `path` is left in place.
IoStatus writeFile(const std::string& path, std::string_view data,
                   const char* site);

}  // namespace safeflow::support::io
