// One analysis run exactly as the CLI prints it (DESIGN.md §10).
//
// Every entry point produces or replays this one value, so none of them
// can disagree with another: the default in-process path prints it, a
// supervised `safeflow --worker` child sends it to its parent as a JSON
// envelope, the supervisor and safeflowd relay it unchanged, and the
// result cache stores it. The envelope's exit_code/stdout/stderr members
// are the body safeflowd answers an analyze request with; the embedded
// stats document feeds the parent's --stats-json, --stats and
// --metrics-out.
#pragma once

#include <string>
#include <vector>

#include "safeflow/driver.h"
#include "support/json.h"

namespace safeflow {

/// The flags that shape what a run prints (as opposed to what it finds).
struct RenderOptions {
  bool json = false;
  bool quiet = false;
  /// Write the value-flow graph (Graphviz) here when non-empty.
  std::string dot_path;

  /// The same options as `safeflow` flags: forwarded to a worker and
  /// hashed into the result-cache key next to the analysis flags.
  [[nodiscard]] std::vector<std::string> args() const;
};

struct RunOutput {
  /// The exit-code ladder (exitCodeFor in driver.h).
  int exit_code = 2;
  std::string stdout_text;
  std::string stderr_text;
  SafeFlowStats stats;
};

/// Adds `files` to `driver`, analyzes them as one program and renders
/// the report the way `safeflow` prints it. A file that fails to parse
/// yields diagnostics on stderr; when none parses there is no report.
/// The caller configures the driver first and may read its trace
/// afterwards.
[[nodiscard]] RunOutput analyzeAndRender(SafeFlowDriver& driver,
                                         const std::vector<std::string>& files,
                                         const RenderOptions& render);

/// The `--worker` envelope: one JSON object with exit_code, stdout,
/// stderr and stats members, plus `telemetry_json` (a pre-rendered
/// object) as "telemetry" when non-empty.
[[nodiscard]] std::string renderEnvelope(
    const RunOutput& run, const std::string& telemetry_json = {});

/// Reads an envelope object back. False when a member is missing or
/// mistyped, or the exit code is off the ladder.
bool readEnvelope(const support::json::Value& doc, RunOutput* out);

}  // namespace safeflow
