// Owns the text of every source file seen by the front end and maps
// FileIds back to names and contents. Files live in a deque, which never
// moves an element once added, so a string_view into a file's contents
// (every Token's spelling is one) stays valid for the lifetime of the
// manager, even while an #include adds further files.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/source_location.h"

namespace safeflow::support {

class SourceManager {
 public:
  /// Registers a buffer under the given name and returns its id.
  FileId addBuffer(std::string name, std::string contents);

  /// Reads a file from disk; returns nullopt if it cannot be opened.
  std::optional<FileId> addFile(const std::string& path);

  [[nodiscard]] std::string_view name(FileId id) const;
  [[nodiscard]] std::string_view contents(FileId id) const;
  [[nodiscard]] std::size_t fileCount() const { return files_.size(); }

  /// Returns the text of one line (1-based), without the trailing newline.
  [[nodiscard]] std::string_view lineText(FileId id, std::uint32_t line) const;

  /// "name:line:col" rendering for diagnostics.
  [[nodiscard]] std::string describe(const SourceLocation& loc) const;

 private:
  struct File {
    std::string name;
    std::string contents;
    std::vector<std::size_t> line_offsets;  // offset of each line start
  };

  [[nodiscard]] const File& file(FileId id) const;

  std::deque<File> files_;
};

}  // namespace safeflow::support
