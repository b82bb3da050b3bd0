#include "analysis/report.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "support/json.h"
#include "support/source_manager.h"

namespace safeflow::analysis {

using support::json::escape;

std::size_t SafeFlowReport::dataErrorCount() const {
  return static_cast<std::size_t>(std::count_if(
      errors.begin(), errors.end(), [](const CriticalDependencyError& e) {
        return e.kind == CriticalDependencyError::Kind::kData;
      }));
}

std::size_t SafeFlowReport::controlErrorCount() const {
  return errors.size() - dataErrorCount();
}

namespace {
std::string dotEscape(std::string s) {
  for (char& c : s) {
    if (c == '"') c = '\'';
  }
  return s;
}

}  // namespace

void SafeFlowReport::deduplicate(const support::SourceManager& sm) {
  std::set<std::string> seen;
  auto fresh = [&seen](std::string key) {
    return seen.insert(std::move(key)).second;
  };

  std::vector<UnsafeAccessWarning> kept_warnings;
  kept_warnings.reserve(warnings.size());
  for (UnsafeAccessWarning& w : warnings) {
    std::string key = sm.describe(w.location) + ":warning:" + w.function +
                      ":" + w.region_name;
    if (w.offset_known) {
      key += ":" + std::to_string(w.offset_lo) + ":" +
             std::to_string(w.offset_hi);
    }
    if (fresh(std::move(key))) kept_warnings.push_back(std::move(w));
  }
  warnings = std::move(kept_warnings);

  std::vector<CriticalDependencyError> kept_errors;
  kept_errors.reserve(errors.size());
  for (CriticalDependencyError& e : errors) {
    std::string key =
        sm.describe(e.assert_location) +
        (e.kind == CriticalDependencyError::Kind::kData ? ":error:"
                                                        : ":control:") +
        e.function + ":" + e.critical_value;
    for (const std::string& r : e.region_names) key += ":" + r;
    for (const auto& loc : e.source_loads) key += ":" + sm.describe(loc);
    if (fresh(std::move(key))) kept_errors.push_back(std::move(e));
  }
  errors = std::move(kept_errors);

  std::vector<RestrictionViolation> kept_violations;
  kept_violations.reserve(restriction_violations.size());
  for (RestrictionViolation& v : restriction_violations) {
    std::string key =
        sm.describe(v.location) + ":" + v.rule + ":" + v.message;
    if (fresh(std::move(key))) kept_violations.push_back(std::move(v));
  }
  restriction_violations = std::move(kept_violations);
}

std::string SafeFlowReport::renderJson(
    const support::SourceManager& sm, const std::string& stats_json) const {
  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"warnings\": [";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    const UnsafeAccessWarning& w = warnings[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"location\": \""
        << escape(sm.describe(w.location)) << "\", \"function\": \""
        << escape(w.function) << "\", \"region\": \""
        << escape(w.region_name) << "\"";
    if (w.offset_known) {
      out << ", \"bytes\": [" << w.offset_lo << ", " << w.offset_hi << "]";
    }
    out << "}";
  }
  out << (warnings.empty() ? "]" : "\n  ]");
  out << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    const CriticalDependencyError& e = errors[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"kind\": \""
        << (e.kind == CriticalDependencyError::Kind::kData ? "data"
                                                           : "control")
        << "\", \"location\": \""
        << escape(sm.describe(e.assert_location))
        << "\", \"function\": \"" << escape(e.function)
        << "\", \"critical\": \"" << escape(e.critical_value)
        << "\", \"regions\": [";
    for (std::size_t r = 0; r < e.region_names.size(); ++r) {
      out << (r == 0 ? "" : ", ") << "\"" << escape(e.region_names[r])
          << "\"";
    }
    out << "], \"sources\": [";
    for (std::size_t s = 0; s < e.source_loads.size(); ++s) {
      out << (s == 0 ? "" : ", ") << "\""
          << escape(sm.describe(e.source_loads[s])) << "\"";
    }
    out << "]}";
  }
  out << (errors.empty() ? "]" : "\n  ]");
  out << ",\n  \"restriction_violations\": [";
  for (std::size_t i = 0; i < restriction_violations.size(); ++i) {
    const RestrictionViolation& v = restriction_violations[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"rule\": \""
        << escape(v.rule) << "\", \"location\": \""
        << escape(sm.describe(v.location)) << "\", \"message\": \""
        << escape(v.message) << "\"}";
  }
  out << (restriction_violations.empty() ? "]" : "\n  ]");
  out << ",\n  \"asserts_checked\": " << asserts_checked
      << ",\n  \"data_errors\": " << dataErrorCount()
      << ",\n  \"control_only\": " << controlErrorCount();
  // Degradation markers are emitted only when present so a full run's
  // report stays byte-identical to builds without the budget layer.
  if (!degraded_phases.empty()) {
    out << ",\n  \"degraded\": true,\n  \"degraded_phases\": [";
    for (std::size_t i = 0; i < degraded_phases.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << escape(degraded_phases[i])
          << "\"";
    }
    out << "]";
  }
  if (!failed_files.empty()) {
    out << ",\n  \"failed_files\": [";
    for (std::size_t i = 0; i < failed_files.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << escape(failed_files[i])
          << "\"";
    }
    out << "]";
  }
  if (!stats_json.empty()) {
    // Indent the embedded object to match the surrounding document.
    std::string indented;
    indented.reserve(stats_json.size());
    for (char c : stats_json) {
      indented += c;
      if (c == '\n') indented += "  ";
    }
    out << ",\n  \"stats\": " << indented;
  }
  out << "\n}\n";
  return out.str();
}

std::string SafeFlowReport::renderValueFlowDot(
    const support::SourceManager& sm) const {
  std::ostringstream out;
  out << "digraph safeflow_value_flow {\n"
      << "  rankdir=LR;\n"
      << "  node [fontname=\"monospace\"];\n";

  std::set<std::string> emitted;
  auto node = [&](const std::string& id, const std::string& label,
                  const std::string& attrs) {
    if (!emitted.insert(id).second) return;
    out << "  \"" << id << "\" [label=\"" << dotEscape(label) << "\" "
        << attrs << "];\n";
  };

  for (std::size_t i = 0; i < errors.size(); ++i) {
    const CriticalDependencyError& e = errors[i];
    const bool control = e.kind == CriticalDependencyError::Kind::kControl;
    const std::string critical_id =
        "crit:" + e.function + ":" + e.critical_value;
    node(critical_id, e.critical_value + "\\n(" + e.function + ")",
         "shape=doubleoctagon color=red");
    for (const std::string& r : e.region_names) {
      node("region:" + r, "non-core region\\n" + r,
           "shape=box3d color=orange");
    }
    for (const auto& loc : e.source_loads) {
      const std::string load_id = "load:" + sm.describe(loc);
      node(load_id, "unmonitored load\\n" + sm.describe(loc),
           "shape=ellipse");
      for (const std::string& r : e.region_names) {
        out << "  \"region:" << r << "\" -> \"" << load_id << "\";\n";
      }
      out << "  \"" << load_id << "\" -> \"" << critical_id << "\""
          << (control ? " [style=dashed label=\"control\"]"
                      : " [label=\"data\"]")
          << ";\n";
    }
  }
  // Warnings with no path to critical data appear as isolated loads.
  for (const UnsafeAccessWarning& w : warnings) {
    const std::string load_id = "load:" + sm.describe(w.location);
    node(load_id, "unmonitored load\\n" + sm.describe(w.location),
         "shape=ellipse");
    node("region:" + w.region_name, "non-core region\\n" + w.region_name,
         "shape=box3d color=orange");
    out << "  \"region:" << w.region_name << "\" -> \"" << load_id
        << "\";\n";
  }
  out << "}\n";
  return out.str();
}

std::string SafeFlowReport::render(const support::SourceManager& sm) const {
  std::ostringstream out;
  out << "== SafeFlow report ==\n";
  out << "warnings (unmonitored non-core accesses): " << warnings.size()
      << "\n";
  for (const UnsafeAccessWarning& w : warnings) {
    out << "  [warning] " << sm.describe(w.location) << " in " << w.function
        << ": unmonitored read of non-core region '" << w.region_name
        << "'";
    if (w.offset_known) {
      out << " bytes [" << w.offset_lo << ", " << w.offset_hi << ")";
    }
    out << "\n";
  }
  out << "error dependencies: " << errors.size() << " (" << dataErrorCount()
      << " data, " << controlErrorCount()
      << " control-only; control-only entries require manual review)\n";
  for (const CriticalDependencyError& e : errors) {
    out << "  [error/"
        << (e.kind == CriticalDependencyError::Kind::kData ? "data"
                                                           : "control")
        << "] " << sm.describe(e.assert_location) << " in " << e.function
        << ": critical value '" << e.critical_value
        << "' depends on non-core region(s):";
    for (const std::string& r : e.region_names) out << " " << r;
    out << "\n";
    for (const auto& loc : e.source_loads) {
      out << "      via unmonitored load at " << sm.describe(loc) << "\n";
    }
  }
  out << "restriction violations: " << restriction_violations.size() << "\n";
  for (const RestrictionViolation& v : restriction_violations) {
    out << "  [" << v.rule << "] " << sm.describe(v.location) << ": "
        << v.message << "\n";
  }
  for (const std::string& check : required_runtime_checks) {
    out << "  [runtime-check] " << check << "\n";
  }
  for (const std::string& f : failed_files) {
    out << "  [partial] '" << f
        << "' had parse errors; results cover the declarations that "
           "survived recovery\n";
  }
  if (!degraded_phases.empty()) {
    out << "DEGRADED: analysis budget exhausted in";
    for (const std::string& p : degraded_phases) out << " " << p;
    out << "; results are conservative (findings valid, absences "
           "unproven)\n";
  }
  return out.str();
}

}  // namespace safeflow::analysis
