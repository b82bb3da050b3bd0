#include "cfront/preprocessor.h"

#include <algorithm>
#include <cassert>

namespace safeflow::cfront {

namespace {
std::string directoryOf(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string_view::npos ? std::string(".")
                                         : std::string(path.substr(0, slash));
}
}  // namespace

const HeaderCache::Header& HeaderCache::get(const std::string& path) {
  const auto [it, inserted] = headers_.try_emplace(path);
  Header& header = it->second;
  if (!inserted) return header;
  header.file = sm_.addFile(path);
  if (!header.file.has_value()) return header;
  support::DiagnosticEngine lexer_diags;
  Lexer lexer(*header.file, sm_.contents(*header.file), lexer_diags);
  while (true) {
    Token t = lexer.next();
    for (std::size_t i = header.diagnostics.size();
         i < lexer_diags.diagnostics().size(); ++i) {
      header.diagnostics.emplace_back(header.tokens.size(),
                                      lexer_diags.diagnostics()[i]);
    }
    if (t.is(TokenKind::kEof)) break;
    header.tokens.push_back(std::move(t));
  }
  return header;
}

std::map<std::string, support::FileId> HeaderCache::paths() const {
  std::map<std::string, support::FileId> out;
  for (const auto& [path, header] : headers_) {
    out.emplace(path, header.file.value_or(support::FileId{}));
  }
  return out;
}

Preprocessor::Preprocessor(support::SourceManager& sm,
                           support::DiagnosticEngine& diags,
                           std::vector<std::string> include_dirs,
                           HeaderCache* headers)
    : sm_(sm),
      diags_(diags),
      include_dirs_(std::move(include_dirs)),
      own_headers_(sm),
      headers_(headers != nullptr ? *headers : own_headers_) {}

void Preprocessor::predefine(std::string name, std::string value) {
  Macro m;
  if (!value.empty()) {
    const support::FileId id = sm_.addBuffer("<predefined>", value);
    Lexer lex(id, sm_.contents(id), diags_);
    for (Token t = lex.next(); !t.is(TokenKind::kEof); t = lex.next()) {
      m.body.push_back(std::move(t));
    }
  }
  macros_[std::move(name)] = std::move(m);
}

bool Preprocessor::active() const {
  return std::all_of(conditionals_.begin(), conditionals_.end(),
                     [](const auto& c) { return c.first; });
}

Token Preprocessor::rawNext() {
  while (!frames_.empty()) {
    Frame& top = frames_.back();
    if (!top.pushback.empty()) {
      Token t = std::move(top.pushback.back());
      top.pushback.pop_back();
      return t;
    }
    if (top.lexer.has_value()) {
      Token t = top.lexer->next();
      if (!t.is(TokenKind::kEof)) return t;
    } else {
      const HeaderCache::Header& header = *top.header;
      // Re-emit the diagnostics that lexing this token emitted.
      for (; top.next_diagnostic < header.diagnostics.size() &&
             header.diagnostics[top.next_diagnostic].first <= top.next_token;
           ++top.next_diagnostic) {
        const support::Diagnostic& d =
            header.diagnostics[top.next_diagnostic].second;
        diags_.report(d.severity, d.location, d.category, d.message);
      }
      if (top.next_token < header.tokens.size()) {
        return header.tokens[top.next_token++];
      }
    }
    frames_.pop_back();
  }
  return Token{};  // kEof
}

void Preprocessor::pushBack(Token t) {
  // With every file frame already popped (truncated input), the stream is
  // at EOF and the pushed-back token can only be dropped.
  if (frames_.empty()) return;
  frames_.back().pushback.push_back(std::move(t));
}

std::vector<Token> Preprocessor::readRestOfLine(std::uint32_t line) {
  std::vector<Token> tokens;
  const support::FileId file =
      frames_.empty() ? support::FileId{} : frames_.back().file;
  while (true) {
    Token t = rawNext();
    if (t.is(TokenKind::kEof) || t.location.file != file ||
        t.location.line != line) {
      if (!t.is(TokenKind::kEof)) pushBack(std::move(t));
      return tokens;
    }
    tokens.push_back(std::move(t));
  }
}

void Preprocessor::skipToEndOfLine(std::uint32_t line) {
  (void)readRestOfLine(line);
}

std::vector<Token> Preprocessor::run(support::FileId root) {
  frames_.clear();
  conditionals_.clear();
  Frame& frame = frames_.emplace_back();
  frame.lexer.emplace(root, sm_.contents(root), diags_);
  frame.file = root;
  frame.directory = directoryOf(sm_.name(root));

  std::vector<Token> out;
  while (true) {
    Token t = rawNext();
    if (t.is(TokenKind::kEof)) break;
    if (t.is(TokenKind::kHash) && t.at_line_start) {
      handleDirective(t);
      continue;
    }
    if (!active()) continue;
    if (t.is(TokenKind::kIdentifier) && maybeExpand(t)) continue;
    out.push_back(std::move(t));
  }
  if (!conditionals_.empty()) {
    diags_.error({}, "preprocess", "unterminated #if/#ifdef block");
  }
  Token eof;
  eof.kind = TokenKind::kEof;
  out.push_back(eof);
  return out;
}

void Preprocessor::handleDirective(const Token& hash) {
  const std::uint32_t line = hash.location.line;
  Token name = rawNext();
  if (!name.is(TokenKind::kIdentifier) &&
      !name.is(TokenKind::kKwIf) && !name.is(TokenKind::kKwElse)) {
    if (name.location.line == line) skipToEndOfLine(line);
    diags_.error(hash.location, "preprocess", "malformed directive");
    return;
  }
  const std::string_view directive = name.is(TokenKind::kKwIf)     ? "if"
                                     : name.is(TokenKind::kKwElse) ? "else"
                                                                   : name.text;

  if (directive == "endif") {
    skipToEndOfLine(line);
    if (conditionals_.empty()) {
      diags_.error(hash.location, "preprocess", "#endif without #if");
    } else {
      conditionals_.pop_back();
    }
    return;
  }
  if (directive == "else") {
    skipToEndOfLine(line);
    if (conditionals_.empty()) {
      diags_.error(hash.location, "preprocess", "#else without #if");
    } else {
      auto& [this_active, taken] = conditionals_.back();
      // Parent must be active for the else branch to possibly activate.
      const bool parent_active =
          std::all_of(conditionals_.begin(), conditionals_.end() - 1,
                      [](const auto& c) { return c.first; });
      this_active = parent_active && !taken;
      taken = taken || this_active;
    }
    return;
  }
  if (directive == "ifdef" || directive == "ifndef") {
    handleIf(line, /*is_ifdef=*/true, directive == "ifndef");
    return;
  }
  if (directive == "if") {
    handleIf(line, /*is_ifdef=*/false, /*negate=*/false);
    return;
  }

  if (!active()) {
    skipToEndOfLine(line);
    return;
  }

  if (directive == "include") {
    handleInclude(line);
  } else if (directive == "define") {
    handleDefine(line);
  } else if (directive == "undef") {
    std::vector<Token> rest = readRestOfLine(line);
    if (rest.size() == 1 && rest[0].is(TokenKind::kIdentifier)) {
      if (const auto it = macros_.find(rest[0].text); it != macros_.end()) {
        macros_.erase(it);
      }
    } else {
      diags_.error(hash.location, "preprocess", "malformed #undef");
    }
  } else if (directive == "pragma") {
    // Taken first, like handleInclude's directory: the line may be the
    // file's last.
    const support::FileId file = frames_.back().file;
    std::vector<Token> rest = readRestOfLine(line);
    if (rest.size() == 1 && rest[0].isIdent("once")) {
      pragma_once_files_.insert(std::string(sm_.name(file)));
    }
  } else {
    skipToEndOfLine(line);
    diags_.error(hash.location, "preprocess",
                 "unsupported directive '#" + std::string(directive) + "'");
  }
}

void Preprocessor::handleInclude(std::uint32_t line) {
  // Taken before the rest of the line is read: on a file's last line,
  // reading past it pops the file's frame.
  const std::string directory = frames_.back().directory;
  const std::size_t depth = frames_.back().depth + 1;
  std::vector<Token> rest = readRestOfLine(line);
  // Accept "file.h" (string literal). Angle-bracket system includes are
  // tolerated and ignored: the analyzer models libc by signature.
  if (rest.size() == 1 && rest[0].is(TokenKind::kStringLiteral)) {
    if (depth > kMaxIncludeDepth) {
      diags_.error(rest[0].location, "preprocess",
                   "#include nested more than " +
                       std::to_string(kMaxIncludeDepth) + " deep");
      return;
    }
    const std::string name(rest[0].text);
    std::vector<std::string> candidates = {directory + "/" + name};
    for (const std::string& dir : include_dirs_) {
      candidates.push_back(dir + "/" + name);
    }
    for (const std::string& path : candidates) {
      if (pragma_once_files_.contains(path)) return;
      const HeaderCache::Header& header = headers_.get(path);
      if (!header.file.has_value()) continue;
      Frame& frame = frames_.emplace_back();
      frame.header = &header;
      frame.file = *header.file;
      frame.directory = directoryOf(path);
      frame.depth = depth;
      return;
    }
    diags_.error(rest[0].location, "preprocess",
                 "cannot open include file \"" + name + "\"");
    return;
  }
  // <...> includes arrive as a token soup starting with kLess; skip them.
  if (!rest.empty() && rest[0].is(TokenKind::kLess)) return;
  diags_.error({}, "preprocess", "malformed #include");
}

void Preprocessor::handleDefine(std::uint32_t line) {
  std::vector<Token> rest = readRestOfLine(line);
  if (rest.empty() || !rest[0].is(TokenKind::kIdentifier)) {
    diags_.error({}, "preprocess", "malformed #define");
    return;
  }
  Macro m;
  std::size_t body_start = 1;
  // Function-like iff '(' directly abuts the macro name.
  if (rest.size() > 1 && rest[1].is(TokenKind::kLParen) &&
      rest[1].location.column ==
          rest[0].location.column + rest[0].text.size()) {
    m.function_like = true;
    std::size_t i = 2;
    while (i < rest.size() && !rest[i].is(TokenKind::kRParen)) {
      if (rest[i].is(TokenKind::kIdentifier)) {
        m.params.push_back(rest[i].text);
      } else if (!rest[i].is(TokenKind::kComma)) {
        diags_.error(rest[i].location, "preprocess",
                     "malformed macro parameter list");
        return;
      }
      ++i;
    }
    if (i >= rest.size()) {
      diags_.error(rest[0].location, "preprocess",
                   "unterminated macro parameter list");
      return;
    }
    body_start = i + 1;
  }
  m.body.assign(rest.begin() + static_cast<std::ptrdiff_t>(body_start),
                rest.end());
  macros_.insert_or_assign(std::string(rest[0].text), std::move(m));
}

void Preprocessor::handleIf(std::uint32_t line, bool is_ifdef, bool negate) {
  std::vector<Token> rest = readRestOfLine(line);
  const bool parent_active = active();
  bool condition = false;
  if (is_ifdef) {
    if (rest.size() == 1 && rest[0].is(TokenKind::kIdentifier)) {
      condition = macros_.contains(rest[0].text);
      if (negate) condition = !condition;
    } else {
      diags_.error({}, "preprocess", "malformed #ifdef/#ifndef");
    }
  } else {
    // #if <int> | #if defined(X) | #if !defined(X)
    std::size_t i = 0;
    bool invert = false;
    if (i < rest.size() && rest[i].is(TokenKind::kBang)) {
      invert = true;
      ++i;
    }
    if (i < rest.size() && rest[i].is(TokenKind::kIntLiteral)) {
      condition = std::stol(std::string(rest[i].text)) != 0;
    } else if (i + 3 < rest.size() && rest[i].isIdent("defined") &&
               rest[i + 1].is(TokenKind::kLParen) &&
               rest[i + 2].is(TokenKind::kIdentifier) &&
               rest[i + 3].is(TokenKind::kRParen)) {
      condition = macros_.contains(rest[i + 2].text);
    } else {
      diags_.error({}, "preprocess",
                   "unsupported #if expression (use 0/1 or defined(X))");
    }
    if (invert) condition = !condition;
  }
  const bool branch_active = parent_active && condition;
  conditionals_.emplace_back(branch_active, branch_active);
}

bool Preprocessor::maybeExpand(const Token& tok) {
  const auto it = macros_.find(tok.text);
  if (it == macros_.end() ||
      std::find(tok.no_expand.begin(), tok.no_expand.end(), tok.text) !=
          tok.no_expand.end()) {
    return false;
  }
  const Macro& m = it->second;

  std::vector<Token> substituted;
  if (!m.function_like) {
    substituted = m.body;
    for (Token& t : substituted) t.no_expand = tok.no_expand;
  } else {
    Token lparen = rawNext();
    if (!lparen.is(TokenKind::kLParen)) {
      pushBack(std::move(lparen));
      return false;  // function-like macro name without call: plain ident
    }
    // Collect comma-separated argument token lists at depth 1.
    std::vector<std::vector<Token>> args(1);
    int depth = 1;
    while (depth > 0) {
      Token t = rawNext();
      if (t.is(TokenKind::kEof)) {
        diags_.error(tok.location, "preprocess",
                     "unterminated macro invocation of '" +
                         std::string(tok.text) + "'");
        return true;
      }
      if (t.is(TokenKind::kLParen)) ++depth;
      if (t.is(TokenKind::kRParen)) {
        --depth;
        if (depth == 0) break;
      }
      if (t.is(TokenKind::kComma) && depth == 1) {
        args.emplace_back();
        continue;
      }
      args.back().push_back(std::move(t));
    }
    if (args.size() == 1 && args[0].empty() && m.params.empty()) args.clear();
    if (args.size() != m.params.size()) {
      diags_.error(tok.location, "preprocess",
                   "macro '" + std::string(tok.text) + "' expects " +
                       std::to_string(m.params.size()) + " arguments");
      return true;
    }
    for (const Token& body_tok : m.body) {
      const auto param = std::find(m.params.begin(), m.params.end(),
                                   body_tok.text);
      if (body_tok.is(TokenKind::kIdentifier) && param != m.params.end()) {
        // Argument tokens keep their own paint (they came from the call
        // site, already scanned for the enclosing macros).
        const auto& arg = args[static_cast<std::size_t>(
            param - m.params.begin())];
        substituted.insert(substituted.end(), arg.begin(), arg.end());
      } else {
        Token t = body_tok;
        t.no_expand = tok.no_expand;
        substituted.push_back(std::move(t));
      }
    }
  }
  // Paint body-derived tokens with this macro's name, stamp the use-site
  // location, and push everything back for the main loop to rescan.
  for (Token& t : substituted) {
    t.location = tok.location;
    if (std::find(t.no_expand.begin(), t.no_expand.end(), tok.text) ==
        t.no_expand.end()) {
      t.no_expand.push_back(tok.text);
    }
  }
  for (auto it2 = substituted.rbegin(); it2 != substituted.rend(); ++it2) {
    pushBack(std::move(*it2));
  }
  return true;
}

}  // namespace safeflow::cfront
