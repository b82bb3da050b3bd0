#include "support/source_manager.h"

#include <cassert>
#include <fstream>
#include <sstream>

namespace safeflow::support {

namespace {
std::vector<std::size_t> computeLineOffsets(std::string_view text) {
  std::vector<std::size_t> offsets{0};
  for (std::size_t nl = text.find('\n'); nl != std::string_view::npos;
       nl = text.find('\n', nl + 1)) {
    offsets.push_back(nl + 1);
  }
  return offsets;
}
}  // namespace

FileId SourceManager::addBuffer(std::string name, std::string contents) {
  File f;
  f.name = std::move(name);
  f.contents = std::move(contents);
  f.line_offsets = computeLineOffsets(f.contents);
  files_.push_back(std::move(f));
  return FileId{static_cast<std::uint32_t>(files_.size() - 1)};
}

std::optional<FileId> SourceManager::addFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return addBuffer(path, std::move(ss).str());
}

const SourceManager::File& SourceManager::file(FileId id) const {
  assert(id.valid() && id.index < files_.size());
  return files_[id.index];
}

std::string_view SourceManager::name(FileId id) const { return file(id).name; }

std::string_view SourceManager::contents(FileId id) const {
  return file(id).contents;
}

std::string_view SourceManager::lineText(FileId id, std::uint32_t line) const {
  const File& f = file(id);
  if (line == 0 || line > f.line_offsets.size()) return {};
  const std::size_t begin = f.line_offsets[line - 1];
  std::size_t end = (line < f.line_offsets.size()) ? f.line_offsets[line] - 1
                                                   : f.contents.size();
  if (end > begin && f.contents[end - 1] == '\r') --end;
  return std::string_view(f.contents).substr(begin, end - begin);
}

std::string SourceManager::describe(const SourceLocation& loc) const {
  if (!loc.valid()) return "<unknown>";
  std::ostringstream ss;
  ss << name(loc.file) << ':' << loc.line << ':' << loc.column;
  return ss.str();
}

}  // namespace safeflow::support
