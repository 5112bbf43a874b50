#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analyze/passes.h"

/// Repo-invariant lint rules over src/: the project contracts that neither
/// the compiler nor clang-tidy check. Every rule matches identifier and
/// number tokens, so comments, string bodies and raw strings can never
/// fire one. Wall-clock / std::random_device seeding is the determinism
/// pass's det-raw-entropy rule, not a lint rule.

namespace copyattack::analyze {

namespace {

/// Files where stdio output is the implementation of the logging
/// invariant itself (the logger and the check macros write to stderr)
/// rather than a violation of it. Matched as path suffixes.
constexpr std::string_view kPrintfApprovedFiles[] = {
    "util/logging.cc", "util/logging.h", "util/check.h",
    "util/string_utils.cc"};

constexpr std::string_view kPrintfFamily[] = {
    "printf",   "fprintf",   "sprintf", "snprintf", "vprintf",
    "vfprintf", "vsnprintf", "puts",    "fputs",    "putchar"};

constexpr std::string_view kClocks[] = {"steady_clock", "system_clock",
                                        "high_resolution_clock"};

template <std::size_t N>
bool OneOf(std::string_view text, const std::string_view (&names)[N]) {
  for (const std::string_view name : names) {
    if (text == name) return true;
  }
  return false;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// `1.0`, `0.5f`, `2.`: a pp-number whose leading digits run into a dot.
bool StartsAsFloatLiteral(const Token& token) {
  if (token.kind != TokenKind::kNumber) return false;
  std::size_t digits = 0;
  while (digits < token.text.size() && IsDigit(token.text[digits])) {
    ++digits;
  }
  return digits > 0 && digits < token.text.size() &&
         token.text[digits] == '.';
}

/// `1.0`, `0.0f`: a pp-number that, after one optional f/F suffix, ends in
/// a run of digits and dots holding at least one of each.
bool EndsAsFloatLiteral(const Token& token) {
  if (token.kind != TokenKind::kNumber) return false;
  std::string_view text = token.text;
  if (!text.empty() && (text.back() == 'f' || text.back() == 'F')) {
    text.remove_suffix(1);
  }
  bool saw_dot = false;
  bool saw_digit = false;
  while (!text.empty() && (IsDigit(text.back()) || text.back() == '.')) {
    if (text.back() == '.') {
      saw_dot = true;
    } else {
      saw_digit = true;
    }
    text.remove_suffix(1);
  }
  return saw_dot && saw_digit;
}

/// True if `tokens[i]` starts `==` / `!=` and either operand is a
/// floating-point literal (the right one may carry a sign).
bool IsFloatLiteralCompare(const std::vector<Token>& tokens, std::size_t i) {
  if ((tokens[i].text != "=" && tokens[i].text != "!") ||
      i + 2 >= tokens.size() || tokens[i + 1].text != "=") {
    return false;
  }
  std::size_t right = i + 2;
  if ((tokens[right].text == "-" || tokens[right].text == "+") &&
      right + 1 < tokens.size()) {
    ++right;
  }
  return StartsAsFloatLiteral(tokens[right]) ||
         (i > 0 && EndsAsFloatLiteral(tokens[i - 1]));
}

/// True if the first token opens `#pragma once` or a COPYATTACK_* guard
/// (or the file has no tokens at all).
bool OpensWithHeaderGuard(const std::vector<Token>& tokens) {
  if (tokens.empty()) return true;
  if (tokens.size() < 2 || tokens[0].kind != TokenKind::kDirective ||
      !tokens[1].in_directive) {
    return false;
  }
  if (tokens[0].text == "pragma") return tokens[1].text == "once";
  return tokens[0].text == "ifndef" &&
         tokens[1].text.rfind("COPYATTACK_", 0) == 0;
}

bool IsHeader(std::string_view rel_path) {
  return rel_path.ends_with(".h") || rel_path.ends_with(".hpp");
}

}  // namespace

void RunLintPass(const SourceTree& tree, std::vector<Violation>* violations) {
  for (const ScannedFile& file : tree.files) {
    const std::string& path = file.rel_path;
    if (path.rfind("src/", 0) != 0) continue;
    const std::vector<Token>& tokens = file.lexed.tokens;

    // One finding per line and message, however many tokens repeat it.
    std::set<std::pair<std::size_t, std::string_view>> reported;
    const auto report = [&](std::size_t line, std::string_view rule,
                            std::string_view message) {
      if (!reported.emplace(line, message).second) return;
      AddViolation(file, line, rule, std::string(message), violations);
    };

    if (IsHeader(path) && !OpensWithHeaderGuard(tokens)) {
      report(tokens.front().line, "header-guard",
             "header must open with `#pragma once` or a COPYATTACK_*_H_ "
             "include guard");
    }

    const bool printf_approved = std::ranges::any_of(
        kPrintfApprovedFiles,
        [&](std::string_view suffix) { return path.ends_with(suffix); });
    const bool clock_banned = path.find("core/") != std::string::npos ||
                              path.find("rec/") != std::string::npos;

    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind == TokenKind::kPunct) {
        if (IsFloatLiteralCompare(tokens, i)) {
          report(t.line, "float-eq",
                 "exact floating-point compare — use a tolerance, or "
                 "annotate a deliberate sparsity/sentinel guard");
        }
        continue;
      }
      // `obj.rand` is a member, not the C function; `std::rand` still is.
      if (t.kind != TokenKind::kIdentifier ||
          (i > 0 && tokens[i - 1].text == ".")) {
        continue;
      }
      if (t.text == "rand" || t.text == "srand" || t.text == "rand_r") {
        report(t.line, "std-rand",
               "use util::Rng instead of the C rand family");
      } else if (t.text == "new") {
        report(t.line, "raw-new",
               "raw `new` — use std::make_unique / containers (annotate "
               "intentional process-lifetime singletons)");
      } else if (t.text == "delete" && (i == 0 || tokens[i - 1].text != "=")) {
        report(t.line, "raw-new", "raw `delete` — use owning types instead");
      } else if (!printf_approved && OneOf(t.text, kPrintfFamily)) {
        report(t.line, "printf-family",
               "direct stdio output — route through CA_LOG / util::check");
      } else if (clock_banned && OneOf(t.text, kClocks)) {
        report(t.line, "raw-clock",
               "raw std::chrono clock read in core/rec — time through "
               "obs::MonotonicNanos / OBS_SPAN / OBS_SCOPED_TIMER_US so the "
               "telemetry exporters see it");
      }
    }
  }
}

}  // namespace copyattack::analyze
