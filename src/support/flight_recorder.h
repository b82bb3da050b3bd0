// Crash flight recorder (DESIGN.md §13): a process-global, lock-free,
// fixed-size ring of small structured events that every interesting
// subsystem appends to as it runs — phase entries, budget trips, cache
// decisions, emitted diagnostics, worker lifecycle. The ring costs one
// relaxed atomic increment plus two bounded string copies per event and
// allocates nothing, so it is always on.
//
// Its purpose is the postmortem: when a process dies by SIGSEGV /
// SIGABRT / SIGBUS (installCrashDumpHandlers) or takes a deliberate
// fatal path (fault injection, see support/fault_inject.cpp), the last
// N events are dumped to stderr as one line each:
//
//   SAFEFLOW-FR <seq> <kind> <detail>
//
// The dump uses only async-signal-safe primitives (write(2) and local
// formatting — no malloc, no stdio, no locks), so it is sound from a
// signal handler running on a corrupted heap. The supervisor recognizes
// the `SAFEFLOW-FR ` prefix in a dead worker's captured stderr and
// attaches the events to the run's `worker_failures` entry, so a
// crash names the phase and the events leading up to it instead of just
// "signal 11".
//
// Honesty note on the lock-free ring: a writer preempted mid-copy can
// leave one slot torn between two events. The dump detects sequence
// mismatches and marks such slots; for a single-threaded worker (the
// common postmortem subject) tearing cannot happen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace safeflow::support {

/// One decoded flight-recorder event (dump parsing / introspection).
struct FlightEvent {
  std::uint64_t seq = 0;
  std::string kind;
  std::string detail;
};

/// Capacity of the ring; the dump emits at most this many events.
inline constexpr std::size_t kFlightRecorderCapacity = 64;

/// Appends an event. `kind` is a short stable tag ("phase", "budget",
/// "cache", "diag", "worker", "supervisor"); `detail` is free text.
/// Both are truncated to the slot's fixed field widths. Lock-free,
/// allocation-free, safe from any thread.
void flightRecord(const char* kind, const char* detail);
void flightRecord(const char* kind, const std::string& detail);

/// Writes the ring's events to `fd`, oldest first, one
/// `SAFEFLOW-FR <seq> <kind> <detail>` line each. Async-signal-safe.
void flightRecorderDump(int fd);

/// Number of events recorded so far (monotonic; may exceed capacity).
[[nodiscard]] std::uint64_t flightRecorderCount();

/// Empties the ring (tests only; not signal-safe).
void flightRecorderReset();

/// Installs SIGSEGV/SIGABRT/SIGBUS handlers that dump the ring to
/// stderr and then re-raise with the default disposition, preserving
/// the fatal signal for the parent's waitpid classification. Idempotent.
void installCrashDumpHandlers();

/// Extracts `SAFEFLOW-FR` lines from a captured stderr stream (the
/// supervisor runs this over a dead worker's stderr). Malformed lines
/// are skipped: bad sequence numbers, fields wider than the dump can
/// produce (interleaved foreign bytes), and a final prefix-matching
/// line with no newline (cut mid-write). With `assume_truncated` (the
/// capture hit --worker-stderr-cap) the last parsed event is dropped
/// unless the dump's `SAFEFLOW-FR-END` terminator survived — a capture
/// cut exactly at a line boundary leaves the final event looking
/// complete while its tail bytes are gone.
[[nodiscard]] std::vector<FlightEvent> parseFlightRecorderLines(
    const std::string& stderr_text, bool assume_truncated = false);

}  // namespace safeflow::support
