// Deterministic fault injection for the out-of-process worker path. The
// supervisor's soak tests need to make a worker die in controlled,
// reproducible ways at a chosen pipeline phase; this hook is compiled
// into every build but is inert (one relaxed bool load per phase entry)
// unless the worker entry point explicitly arms it from the environment:
//
//   SAFEFLOW_INJECT_FAULT=<kind>@<phase>[:<nth>]
//     kind  crash  die by SIGSEGV (default signal disposition restored
//                  first so sanitizer handlers cannot soften it)
//           hang   block forever (exercises the supervisor watchdog)
//           oom    die by SIGKILL, emulating the Linux OOM killer's
//                  verdict without actually thrashing memory
//           exit2  _exit(2), emulating a frontend-error exit
//     phase one of the pipeline phase names ("frontend", "lowering",
//           "ssa", "shm_regions", "callgraph", "shm_propagation",
//           "ranges", "restrictions", "alias", "taint", "report")
//     nth   trigger on the nth entry to that phase (default 1)
//
//   SAFEFLOW_INJECT_FAULT_ATTEMPTS=<n>
//     arm only while the supervisor-provided SAFEFLOW_WORKER_ATTEMPT is
//     <= n (exercises retry-then-succeed: fault on attempt 1, clean on
//     the retry)
//
// Arming never happens implicitly: library users and the default CLI
// path never call armWorkerFaultInjection, so release behavior is
// unchanged byte-for-byte.
#pragma once

namespace safeflow::support {

/// Parses the SAFEFLOW_INJECT_FAULT* environment and arms the hook for
/// this process. Called only by the `safeflow --worker` entry point.
void armWorkerFaultInjection();

/// True when a fault is armed (test/introspection helper).
[[nodiscard]] bool faultInjectionArmed();

/// Phase-entry hook: no-op unless armed for `phase` and the entry count
/// reaches the configured nth; then the process dies by the configured
/// kind (this call does not return in that case).
void faultInjectionPoint(const char* phase);

}  // namespace safeflow::support
