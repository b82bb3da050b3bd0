// Hand-written lexer for the C subset. One Lexer instance scans one file
// buffer without copying it: every token's spelling is a view into that
// buffer (see token.h for the lifetime this implies).
#pragma once

#include <string_view>

#include "cfront/token.h"
#include "support/diagnostics.h"
#include "support/source_location.h"

namespace safeflow::cfront {

class Lexer {
 public:
  Lexer(support::FileId file, std::string_view buffer,
        support::DiagnosticEngine& diags);

  /// Returns the next token, skipping whitespace and non-annotation
  /// comments. At end of buffer, returns kEof forever.
  Token next();

  [[nodiscard]] support::FileId file() const { return file_; }

 private:
  [[nodiscard]] char peek(std::size_t ahead = 0) const;
  char advance();
  [[nodiscard]] bool atEnd() const { return pos_ >= buffer_.size(); }
  [[nodiscard]] support::SourceLocation here() const;

  /// Moves to `end`, updating line and column over the skipped span.
  void skipTo(std::size_t end);

  Token makeToken(TokenKind kind, support::SourceLocation loc,
                  std::string_view text = {});
  Token lexIdentifier(support::SourceLocation loc);
  Token lexNumber(support::SourceLocation loc);
  /// Char or string literal; the spelling excludes the quotes.
  Token lexQuoted(support::SourceLocation loc, TokenKind kind);
  /// Called after "/*" is consumed; either returns an annotation token or
  /// skips the comment and returns false via `out` being untouched.
  bool lexBlockComment(support::SourceLocation loc, Token& out);

  support::FileId file_;
  std::string_view buffer_;
  support::DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t column_ = 1;
  bool at_line_start_ = true;
};

}  // namespace safeflow::cfront
