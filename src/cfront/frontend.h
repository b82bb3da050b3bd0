// Convenience driver: preprocess + parse a set of C files into one
// TranslationUnit. Owns the SourceManager, TypeContext, and diagnostics so
// callers get a single object with stable lifetimes. The unit's nodes live
// in its arena and may be freed early (releaseUnit()); the sources and the
// types, which the IR and the report read, live as long as the Frontend.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cfront/ast.h"
#include "cfront/parser.h"
#include "cfront/preprocessor.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

namespace safeflow::cfront {

class Frontend {
 public:
  explicit Frontend(std::vector<std::string> include_dirs = {});

  /// Defines an object-like macro for all subsequently parsed files.
  void predefine(std::string name, std::string value = "1");

  /// Parses a file from disk into the shared translation unit. Returns
  /// false on I/O, preprocess, or parse errors (diagnostics describe them).
  /// When `file` is given and the file could be read, it receives the
  /// file's id in sources().
  bool parseFile(const std::string& path, support::FileId* file = nullptr);

  /// Parses an in-memory buffer (used heavily by tests).
  bool parseBuffer(std::string name, std::string text);

  /// Frees the cached header tokens once every file is parsed, so they do
  /// not stay resident through the analyses. A later parse reads its
  /// headers again.
  void releaseHeaders() { headers_.clear(); }

  /// The headers read since the last releaseHeaders().
  [[nodiscard]] const HeaderCache& headers() const { return headers_; }

  /// Frees the translation unit, every node at once, and starts an empty
  /// one: call it once the unit is lowered (the IR keeps no pointer into
  /// it). A later parse starts afresh and sees none of the old
  /// declarations.
  void releaseUnit() { tu_ = std::make_unique<TranslationUnit>(types_); }

  [[nodiscard]] const TranslationUnit& unit() const { return *tu_; }
  [[nodiscard]] TypeContext& types() { return types_; }
  [[nodiscard]] const support::SourceManager& sources() const { return sm_; }
  [[nodiscard]] support::SourceManager& sources() { return sm_; }
  [[nodiscard]] const support::DiagnosticEngine& diagnostics() const {
    return diags_;
  }
  [[nodiscard]] support::DiagnosticEngine& diagnostics() { return diags_; }

 private:
  bool parseRoot(support::FileId root);

  support::SourceManager sm_;
  // Every header this run has read; shared by the files it parses.
  HeaderCache headers_;
  support::DiagnosticEngine diags_;
  TypeContext types_;
  std::unique_ptr<TranslationUnit> tu_;
  std::vector<std::string> include_dirs_;
  std::vector<std::pair<std::string, std::string>> predefines_;
};

}  // namespace safeflow::cfront
