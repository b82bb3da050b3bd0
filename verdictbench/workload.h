// Workloads of the time-to-verdict benchmark: seeded inputs, the edits
// applied between operations, and the verdict each input must produce.
//
// Expected verdicts never come from SafeFlow. The corpus systems use the
// paper's Table 1 (§4); the synthetic programs use the counts their
// construction implies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace verdictbench {

/// The counts a report is checked on.
struct Verdict {
  std::size_t warnings = 0;
  std::size_t data_errors = 0;
  std::size_t control_only = 0;
  std::size_t restriction_violations = 0;

  bool operator==(const Verdict&) const = default;
  [[nodiscard]] std::string describe() const;
};

/// One whole program. `files` is the multi-file layout the in-process and
/// one-shot paths analyze; `whole_file` is the same text concatenated into
/// one file, which the daemon analyzes (it shards per file, and a shard
/// must hold the whole program for the verdict to be Table 1's).
struct Program {
  std::string name;
  std::vector<std::string> files;  // paths relative to the work directory
  std::vector<std::string> texts;  // unedited text of each file
  std::string whole_file;          // == files[0] for single-file programs
  std::vector<std::string> include_dirs;
  /// Files copied as they are (headers), as (path, text).
  std::vector<std::pair<std::string, std::string>> headers;
  Verdict expected;
};

/// A float literal inside a function body that an edit may rewrite.
struct EditSite {
  std::size_t program = 0;
  std::size_t file = 0;
  std::size_t offset = 0;  // byte offset of the literal in texts[file]
  std::string literal;
};

struct Workload {
  std::string name;
  std::vector<Program> programs;
  /// Flags every entry point gets besides each program's -I dirs.
  bool kill_critical = false;
  std::vector<EditSite> sites;
};

/// Builds `name` ("table1", "scaling", "taint_cycle", "pointer_churn") for
/// `seed`. The seed varies function (or file) order, numeric literals and
/// nothing that changes a program's shape or expected verdict. Corpus
/// files are read from `corpus_dir`. Throws std::runtime_error for an
/// unknown name or an unreadable corpus.
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed,
                                    const std::string& corpus_dir);

/// One edit: a site and the unique value written there.
struct Edit {
  std::size_t site = 0;
  std::uint64_t serial = 0;  // distinct per edit within a run
};

/// The seeded sequence of a run's edits: each picks a site and takes the
/// next serial (1, 2, ...), so no value repeats within a run.
class EditSequence {
 public:
  EditSequence(std::uint64_t seed, std::size_t sites);
  Edit next();

 private:
  std::uint64_t state_;
  std::size_t sites_;
  std::uint64_t serial_ = 0;
};

/// The literal an edit writes: the site's literal with digits appended so
/// the value is new to the run but numerically almost unchanged.
[[nodiscard]] std::string editedLiteral(const std::string& literal,
                                        std::uint64_t serial);

/// Writes every program's files and whole file under the current
/// directory with `edit` applied (or unedited when `edit` is null).
void writeInputs(const Workload& w, const Edit* edit);

/// Writes only what changes between `from` and `to` (either may be null
/// for the unedited text): the files and whole files both edits touch.
void rewriteInputs(const Workload& w, const Edit* from, const Edit* to);

}  // namespace verdictbench
