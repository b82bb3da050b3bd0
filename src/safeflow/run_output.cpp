#include "safeflow/run_output.h"

#include <sstream>

#include "support/io_faults.h"

namespace safeflow {

std::vector<std::string> RenderOptions::args() const {
  std::vector<std::string> out;
  if (json) out.emplace_back("--json");
  if (quiet) out.emplace_back("--quiet");
  if (!dot_path.empty()) {
    out.emplace_back("--dot");
    out.push_back(dot_path);
  }
  return out;
}

RunOutput analyzeAndRender(SafeFlowDriver& driver,
                           const std::vector<std::string>& files,
                           const RenderOptions& render) {
  RunOutput run;
  std::size_t files_ok = 0;
  for (const std::string& f : files) {
    // Per-file isolation: a file that fails to parse yields diagnostics
    // and is skipped; the rest of the program is still analyzed.
    if (driver.addFile(f)) ++files_ok;
  }
  if (files_ok == 0) {
    run.stderr_text = driver.diagnostics().render(driver.sources());
    run.stats = driver.stats();
    return run;
  }
  const analysis::SafeFlowReport& report = driver.analyze();
  run.stats = driver.stats();
  run.reads = driver.reads();
  std::ostringstream out, err;
  if (driver.hasFrontendErrors()) {
    // Partial results are still reported; the exit code keeps
    // signalling the parse failure.
    err << driver.diagnostics().render(driver.sources());
  }
  run.exit_code = exitCodeFor(report.dataErrorCount(),
                              driver.hasFrontendErrors(), driver.degraded());

  if (render.json) {
    out << report.renderJson(driver.sources(), run.stats.renderJson());
  } else {
    if (!render.quiet) out << report.render(driver.sources());
    out << "safeflow: " << report.warnings.size() << " warning(s), "
        << report.dataErrorCount() << " error dependency(ies), "
        << report.controlErrorCount() << " control-only (review manually), "
        << report.restriction_violations.size()
        << " restriction violation(s)\n";
  }
  if (!render.dot_path.empty()) {
    const support::io::IoStatus status = support::io::writeFile(
        render.dot_path, report.renderValueFlowDot(driver.sources()),
        "dot.out");
    if (!status.ok) {
      err << "safeflow: " << status.message << "\n";
      run.exit_code = 2;
    } else if (!render.json) {
      out << "value-flow graph written to " << render.dot_path << "\n";
    }
  }
  run.stdout_text = out.str();
  run.stderr_text = err.str();
  return run;
}

namespace {

/// `reads` as an array of [path, digest] pairs.
std::string renderReads(const std::vector<FileRead>& reads) {
  using support::json::escape;
  std::string out = "[";
  for (const FileRead& read : reads) {
    if (out.size() > 1) out += ", ";
    out += "[\"" + escape(read.path) + "\", \"" + escape(read.digest) + "\"]";
  }
  return out + "]";
}

bool readReads(const support::json::Value* doc, std::vector<FileRead>* out) {
  if (doc == nullptr || !doc->isArray()) return false;
  out->clear();
  for (const support::json::Value& read : doc->array) {
    if (!read.isArray() || read.array.size() != 2 ||
        !read.array[0].isString() || !read.array[1].isString()) {
      return false;
    }
    out->push_back({read.array[0].string_value, read.array[1].string_value});
  }
  return true;
}

}  // namespace

std::string renderEnvelope(const RunOutput& run,
                           const std::string& telemetry_json) {
  using support::json::escape;
  std::string out = "{\"exit_code\": " + std::to_string(run.exit_code) +
                    ", \"stdout\": \"" + escape(run.stdout_text) +
                    "\", \"stderr\": \"" + escape(run.stderr_text) +
                    "\",\n\"stats\": " + run.stats.renderJson() +
                    ",\n\"reads\": " + renderReads(run.reads);
  if (!telemetry_json.empty()) out += ",\n\"telemetry\": " + telemetry_json;
  return out + "}\n";
}

bool readEnvelope(const support::json::Value& doc, RunOutput* out) {
  const support::json::Value* code = doc.find("exit_code");
  const support::json::Value* out_text = doc.find("stdout");
  const support::json::Value* err_text = doc.find("stderr");
  const support::json::Value* stats = doc.find("stats");
  if (code == nullptr || !code->isNumber() || code->number_value < 0 ||
      code->number_value > 3 || out_text == nullptr ||
      !out_text->isString() || err_text == nullptr || !err_text->isString() ||
      stats == nullptr || !SafeFlowStats::fromJson(*stats, &out->stats) ||
      !readReads(doc.find("reads"), &out->reads)) {
    return false;
  }
  out->exit_code = static_cast<int>(code->number_value);
  out->stdout_text = out_text->string_value;
  out->stderr_text = err_text->string_value;
  return true;
}

}  // namespace safeflow
