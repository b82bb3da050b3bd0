#include "cfront/frontend.h"

#include "support/metrics.h"

namespace safeflow::cfront {

Frontend::Frontend(std::vector<std::string> include_dirs)
    : headers_(sm_),
      tu_(std::make_unique<TranslationUnit>(types_)),
      include_dirs_(std::move(include_dirs)) {}

void Frontend::predefine(std::string name, std::string value) {
  predefines_.emplace_back(std::move(name), std::move(value));
}

bool Frontend::parseFile(const std::string& path, support::FileId* file) {
  support::ScopedTimer timer("phase.frontend");
  timer.arg("file", path);
  const std::optional<support::FileId> id = sm_.addFile(path);
  if (!id.has_value()) {
    diags_.error({}, "io", "cannot open file '" + path + "'");
    return false;
  }
  if (file != nullptr) *file = *id;
  return parseRoot(*id);
}

bool Frontend::parseBuffer(std::string name, std::string text) {
  support::ScopedTimer timer("phase.frontend");
  timer.arg("file", name);
  return parseRoot(sm_.addBuffer(std::move(name), std::move(text)));
}

bool Frontend::parseRoot(support::FileId root) {
  SAFEFLOW_COUNT("frontend.files");
  // Lexer and preprocessor errors fail the file as parse errors do.
  const std::size_t errors_before = diags_.errorCount();
  std::vector<Token> tokens;
  {
    const support::ScopedSpan span("frontend.preprocess");
    Preprocessor pp(sm_, diags_, include_dirs_, &headers_);
    for (const auto& [name, value] : predefines_) pp.predefine(name, value);
    tokens = pp.run(root);
  }
  const support::ScopedSpan span("frontend.parse");
  SAFEFLOW_COUNT_N("frontend.tokens", tokens.size());
  Parser parser(std::move(tokens), types_, diags_);
  parser.parseTranslationUnit(*tu_);
  return diags_.errorCount() == errors_before;
}

}  // namespace safeflow::cfront
