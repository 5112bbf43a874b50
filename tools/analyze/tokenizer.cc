#include "analyze/tokenizer.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

namespace copyattack::analyze {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Normalizes line endings: CRLF and lone CR both become `\n`, so token
/// and comment line numbers are identical for files edited on any
/// platform (satisfying the CRLF cases in the tokenizer test suite).
/// A leading UTF-8 BOM is dropped too — editors on some platforms prepend
/// one, and without the strip a line-1 `#include`/`#pragma` is no longer
/// at line start and the whole directive lexes as punctuation soup.
std::string NormalizeNewlines(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  std::size_t begin = 0;
  if (raw.size() >= 3 && raw[0] == '\xEF' && raw[1] == '\xBB' &&
      raw[2] == '\xBF') {
    begin = 3;
  }
  for (std::size_t i = begin; i < raw.size(); ++i) {
    if (raw[i] == '\r') {
      out.push_back('\n');
      if (i + 1 < raw.size() && raw[i + 1] == '\n') ++i;
      continue;
    }
    out.push_back(raw[i]);
  }
  return out;
}

/// The lexer proper. Walks `src` once, emitting tokens and comments.
class Lexer {
 public:
  explicit Lexer(LexedFile* out) : out_(*out), src_(out->content) {}

  void Run() {
    while (!Eof()) {
      SkipSplices();
      if (Eof()) break;
      const char c = src_[i_];
      if (c == '\n') {
        ++line_;
        ++i_;
        at_line_start_ = true;
        in_directive_ = false;  // an unspliced newline ends the directive
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\v' || c == '\f') {
        ++i_;
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        continue;
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        continue;
      }
      if (c == '#' && at_line_start_) {
        LexDirective();
        at_line_start_ = false;
        continue;
      }
      at_line_start_ = false;
      if (IsIdentStart(c)) {
        LexIdentifierOrPrefixedLiteral();
        continue;
      }
      if (IsDigit(c) || (c == '.' && IsDigit(Peek(1)))) {
        LexNumber();
        continue;
      }
      if (c == '"') {
        const std::size_t begin_line = line_;
        LexStringBody(/*raw=*/false);
        Emit(TokenKind::kString, "", begin_line);
        continue;
      }
      if (c == '\'') {
        const std::size_t begin_line = line_;
        LexCharBody();
        Emit(TokenKind::kCharLiteral, "", begin_line);
        continue;
      }
      LexPunct();
    }
  }

 private:
  bool Eof() const { return i_ >= src_.size(); }

  char Peek(std::size_t ahead) const {
    return i_ + ahead < src_.size() ? src_[i_ + ahead] : '\0';
  }

  /// Consumes backslash-newline pairs (translation phase 2). Never called
  /// inside raw strings, which revert splicing per the standard.
  void SkipSplices() {
    while (i_ + 1 < src_.size() && src_[i_] == '\\' && src_[i_ + 1] == '\n') {
      i_ += 2;
      ++line_;
    }
  }

  void Emit(TokenKind kind, std::string text, std::size_t line) {
    out_.tokens.push_back(
        Token{kind, std::move(text), line, false, in_directive_});
  }

  void LexLineComment() {
    const std::size_t begin_line = line_;
    std::string text;
    while (!Eof()) {
      if (src_[i_] == '\\' && Peek(1) == '\n') {
        // Spliced line comment: continues on the next physical line.
        text.append("\\\n");
        i_ += 2;
        ++line_;
        continue;
      }
      if (src_[i_] == '\n') break;
      text.push_back(src_[i_]);
      ++i_;
    }
    out_.comments.push_back(Comment{begin_line, line_, std::move(text)});
  }

  void LexBlockComment() {
    const std::size_t begin_line = line_;
    std::string text = "/*";
    i_ += 2;
    bool terminated = false;
    while (!Eof()) {
      if (src_[i_] == '*' && Peek(1) == '/') {
        i_ += 2;
        text.append("*/");
        terminated = true;
        break;
      }
      if (src_[i_] == '\n') ++line_;
      text.push_back(src_[i_]);
      ++i_;
    }
    if (!terminated) {
      out_.errors.push_back("unterminated block comment starting on line " +
                            std::to_string(begin_line));
    }
    out_.comments.push_back(Comment{begin_line, line_, std::move(text)});
  }

  void LexDirective() {
    in_directive_ = true;
    ++i_;  // '#'
    SkipSplices();
    while (!Eof() && (src_[i_] == ' ' || src_[i_] == '\t')) ++i_;
    SkipSplices();
    if (Eof() || !IsIdentStart(src_[i_])) return;  // null directive
    std::string name;
    const std::size_t name_line = line_;
    while (!Eof() && IsIdentChar(src_[i_])) {
      name.push_back(src_[i_]);
      ++i_;
      SkipSplices();
    }
    const bool is_include = name == "include";
    Emit(TokenKind::kDirective, std::move(name), name_line);
    if (!is_include) return;  // body lexed as ordinary tokens

    while (!Eof() && (src_[i_] == ' ' || src_[i_] == '\t')) ++i_;
    if (Eof() || (src_[i_] != '<' && src_[i_] != '"')) return;
    const bool angled = src_[i_] == '<';
    const char closer = angled ? '>' : '"';
    ++i_;
    std::string path;
    while (!Eof() && src_[i_] != closer && src_[i_] != '\n') {
      path.push_back(src_[i_]);
      ++i_;
    }
    if (!Eof() && src_[i_] == closer) ++i_;
    out_.tokens.push_back(
        Token{TokenKind::kIncludePath, std::move(path), line_, angled, true});
  }

  void LexIdentifierOrPrefixedLiteral() {
    const std::size_t begin_line = line_;
    std::string ident;
    while (!Eof() && IsIdentChar(src_[i_])) {
      ident.push_back(src_[i_]);
      ++i_;
      SkipSplices();
    }
    // Literal prefixes: R"..., u8R"..., uR"..., UR"..., LR"..., and the
    // non-raw u8"/u"/U"/L" string and u8'/u'/U'/L' char forms.
    if (!Eof() && src_[i_] == '"') {
      const bool raw = !ident.empty() && ident.back() == 'R' &&
                       (ident == "R" || ident == "u8R" || ident == "uR" ||
                        ident == "UR" || ident == "LR");
      const bool prefix = ident == "u8" || ident == "u" || ident == "U" ||
                          ident == "L";
      if (raw || prefix) {
        LexStringBody(raw);
        Emit(TokenKind::kString, "", begin_line);
        return;
      }
    }
    if (!Eof() && src_[i_] == '\'' &&
        (ident == "u8" || ident == "u" || ident == "U" || ident == "L")) {
      LexCharBody();
      Emit(TokenKind::kCharLiteral, "", begin_line);
      return;
    }
    Emit(TokenKind::kIdentifier, std::move(ident), begin_line);
  }

  /// Consumes a string literal starting at the opening `"` (any encoding
  /// prefix has already been consumed). The body is not kept: string
  /// tokens carry no text.
  void LexStringBody(bool raw) {
    const std::size_t begin_line = line_;
    ++i_;  // opening '"'
    if (raw) {
      // d-char-seq up to the opening '('.
      std::string delim;
      while (!Eof() && src_[i_] != '(' && src_[i_] != '\n' &&
             delim.size() <= 16) {
        delim.push_back(src_[i_]);
        ++i_;
      }
      if (Eof() || src_[i_] != '(') {
        out_.errors.push_back("malformed raw string on line " +
                              std::to_string(begin_line));
        return;
      }
      ++i_;  // '('
      const std::string closer = ")" + delim + "\"";
      while (!Eof()) {
        if (src_[i_] == ')' &&
            src_.compare(i_, closer.size(), closer) == 0) {
          i_ += closer.size();
          return;
        }
        if (src_[i_] == '\n') ++line_;
        ++i_;
      }
      out_.errors.push_back("unterminated raw string starting on line " +
                            std::to_string(begin_line));
      return;
    }
    while (!Eof()) {
      if (src_[i_] == '\\' && i_ + 1 < src_.size()) {
        ++i_;
        if (src_[i_] == '\n') ++line_;  // escaped newline inside a literal
        ++i_;
        continue;
      }
      if (src_[i_] == '"') {
        ++i_;  // closing quote
        return;
      }
      if (src_[i_] == '\n') return;  // unterminated: be tolerant
      ++i_;
    }
  }

  void LexCharBody() {
    ++i_;  // opening '\''
    while (!Eof()) {
      if (src_[i_] == '\\' && i_ + 1 < src_.size()) {
        ++i_;
        if (src_[i_] == '\n') ++line_;
        ++i_;
        continue;
      }
      if (src_[i_] == '\'') {
        ++i_;
        return;
      }
      if (src_[i_] == '\n') return;
      ++i_;
    }
  }

  /// pp-number: digits, identifier chars, dots, digit separators, and
  /// sign characters directly after an exponent letter.
  void LexNumber() {
    const std::size_t begin_line = line_;
    std::string text;
    while (!Eof()) {
      const char c = src_[i_];
      if (IsIdentChar(c) || c == '.') {
        text.push_back(c);
        ++i_;
        SkipSplices();
        continue;
      }
      if (c == '\'' && IsIdentChar(Peek(1))) {  // digit separator
        text.push_back(c);
        ++i_;
        continue;
      }
      if ((c == '+' || c == '-') && !text.empty() &&
          (text.back() == 'e' || text.back() == 'E' || text.back() == 'p' ||
           text.back() == 'P')) {
        text.push_back(c);
        ++i_;
        continue;
      }
      break;
    }
    Emit(TokenKind::kNumber, std::move(text), begin_line);
  }

  void LexPunct() {
    if (src_[i_] == ':' && Peek(1) == ':') {
      Emit(TokenKind::kPunct, "::", line_);
      i_ += 2;
      return;
    }
    if (src_[i_] == '-' && Peek(1) == '>') {
      Emit(TokenKind::kPunct, "->", line_);
      i_ += 2;
      return;
    }
    Emit(TokenKind::kPunct, std::string(1, src_[i_]), line_);
    ++i_;
  }

  LexedFile& out_;
  const std::string& src_;
  std::size_t i_ = 0;
  std::size_t line_ = 1;
  bool at_line_start_ = true;
  bool in_directive_ = false;
};

}  // namespace

bool LexedFile::Allows(std::size_t line, std::string_view rule) const {
  std::string needle = "analyze:allow(";
  needle.append(rule).push_back(')');
  for (const Comment& comment : comments) {
    // The marker suppresses on every line the comment spans and on the line
    // directly below it (the NOLINTNEXTLINE-style placement, for code lines
    // with no room for a trailing comment).
    if (line < comment.line_begin || line > comment.line_end + 1) continue;
    if (comment.text.find(needle) != std::string::npos) return true;
  }
  return false;
}

LexedFile LexString(std::string path, std::string content) {
  LexedFile out;
  out.path = std::move(path);
  out.content = NormalizeNewlines(content);
  Lexer lexer(&out);
  lexer.Run();
  return out;
}

bool LexFileFromDisk(const std::string& path, LexedFile* out,
                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = LexString(path, buffer.str());
  return true;
}

}  // namespace copyattack::analyze
