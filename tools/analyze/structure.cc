#include "analyze/structure.h"

#include <cstdint>

namespace copyattack::analyze {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool IsFundamentalTypeWord(const std::string& text) {
  return text == "void" || text == "bool" || text == "char" ||
         text == "int" || text == "short" || text == "long" ||
         text == "signed" || text == "unsigned" || text == "float" ||
         text == "double" || text == "auto" || text == "wchar_t" ||
         text == "char8_t" || text == "char16_t" || text == "char32_t";
}

bool IsControlWord(const std::string& text) {
  return text == "if" || text == "for" || text == "while" ||
         text == "switch" || text == "do" || text == "else" ||
         text == "try" || text == "catch" || text == "return" ||
         text == "sizeof" || text == "alignof" || text == "alignas" ||
         text == "decltype" || text == "noexcept" || text == "throw" ||
         text == "static_assert" || text == "new" || text == "delete";
}

/// Walks the token stream tracking namespace/class/enum/function/block
/// nesting. Every `{` is classified from the declaration tokens since the
/// last `;` / `{` / `}` (the "head"); unrecognized shapes become plain
/// blocks, so the worst failure mode is a function the passes do not see —
/// never a misattributed one.
class Scanner {
 public:
  explicit Scanner(const LexedFile& file) : tokens_(file.tokens) {}

  FileStructure Run() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.in_directive) {
        // Directive lines never open scopes; macro bodies with (balanced)
        // braces must not pollute the next declaration's head.
        if (t.kind == TokenKind::kDirective && t.text == "define" &&
            i + 1 < tokens_.size() &&
            tokens_[i + 1].kind == TokenKind::kIdentifier) {
          result_.exported.insert(tokens_[i + 1].text);
        }
        continue;
      }
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "{") {
          ClassifyOpenBrace(i);
          head_start_ = i + 1;
        } else if (t.text == "}") {
          CloseBrace(i);
          head_start_ = i + 1;
        } else if (t.text == ";") {
          if (InCheckpointedClass()) MaybeField(HeadIndices(i));
          head_start_ = i + 1;
        }
        continue;
      }
      if (t.kind == TokenKind::kIdentifier) {
        MaybeAnnotation(i);
        MaybeExport(i);
      }
    }
    return std::move(result_);
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kEnum, kFunction, kBlock };
    Kind kind;
    std::string name;
    std::size_t function_index = kNone;
    bool checkpointed = false;  ///< class head carried CA_CHECKPOINTED
  };

  Scope::Kind InnermostKind() const {
    return scopes_.empty() ? Scope::kNamespace : scopes_.back().kind;
  }

  /// True when member declarations at the current nesting level belong to a
  /// CA_CHECKPOINTED class (field extraction is active).
  bool InCheckpointedClass() const {
    return !scopes_.empty() && scopes_.back().kind == Scope::kClass &&
           scopes_.back().checkpointed;
  }

  std::string CurrentClassName() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  }

  void Push(Scope::Kind kind, std::string name = "",
            std::size_t function_index = kNone) {
    scopes_.push_back(Scope{kind, std::move(name), function_index});
  }

  /// Non-directive token indices in [head_start_, brace).
  std::vector<std::size_t> HeadIndices(std::size_t brace) const {
    std::vector<std::size_t> head;
    for (std::size_t i = head_start_; i < brace; ++i) {
      if (!tokens_[i].in_directive) head.push_back(i);
    }
    return head;
  }

  void ClassifyOpenBrace(std::size_t i) {
    const Scope::Kind outer = InnermostKind();
    if (outer == Scope::kFunction || outer == Scope::kBlock ||
        outer == Scope::kEnum) {
      Push(Scope::kBlock);
      return;
    }
    const std::vector<std::size_t> head = HeadIndices(i);
    if (head.empty()) {
      Push(Scope::kBlock);
      return;
    }

    const Token& first = tokens_[head.front()];
    const bool inline_ns = first.text == "inline" && head.size() >= 2 &&
                           tokens_[head[1]].text == "namespace";
    if (first.text == "namespace" || inline_ns) {
      std::string name;
      for (std::size_t h = inline_ns ? 2 : 1; h < head.size(); ++h) {
        if (tokens_[head[h]].kind != TokenKind::kIdentifier) continue;
        if (!name.empty()) name += "::";
        name += tokens_[head[h]].text;
      }
      Push(Scope::kNamespace, std::move(name));
      return;
    }
    if (first.text == "extern" && head.size() <= 2) {
      Push(Scope::kNamespace);  // extern "C" linkage block
      return;
    }

    // class/struct/union/enum keyword at template-bracket depth 0 (so
    // `template <class T>` parameters do not count).
    std::size_t class_kw = kNone;
    bool is_enum = false;
    {
      std::int64_t angle = 0;
      for (std::size_t h = 0; h < head.size(); ++h) {
        const Token& t = tokens_[head[h]];
        if (t.kind == TokenKind::kPunct) {
          if (t.text == "<") ++angle;
          if (t.text == ">" && angle > 0) --angle;
          continue;
        }
        if (t.kind != TokenKind::kIdentifier || angle != 0) continue;
        if (t.text == "enum") {
          is_enum = true;
          break;
        }
        if (class_kw == kNone &&
            (t.text == "class" || t.text == "struct" || t.text == "union")) {
          class_kw = h;
        }
      }
    }
    if (is_enum) {
      Push(Scope::kEnum);
      return;
    }
    if (class_kw != kNone) {
      std::string class_name = ClassNameFromHead(head, class_kw);
      if (!class_name.empty()) result_.classes.insert(class_name);
      const bool checkpointed = MaybeCheckpointedType(head, class_name);
      Push(Scope::kClass, std::move(class_name));
      scopes_.back().checkpointed = checkpointed;
      return;
    }

    // Brace initializers: `x = {...}`, `f({...})`, `arr[{...}]`, and
    // constructor-init-list members `: member_{...}` / `, member_{...}`.
    // In a CA_CHECKPOINTED class a brace-initialized member (`words[4] =
    // {0,0,0,0};`, `Matrix m{...};`) reaches end-of-declarator here — the
    // later `;` sees an empty head — so extraction runs on this head.
    const Token& last = tokens_[head.back()];
    if (last.kind == TokenKind::kPunct &&
        (last.text == "=" || last.text == "," || last.text == "(" ||
         last.text == "[" || last.text == "<")) {
      if (outer == Scope::kClass && InCheckpointedClass() &&
          last.text == "=") {
        MaybeField({head.begin(), head.end() - 1});
      }
      Push(Scope::kBlock);
      return;
    }
    if (last.kind == TokenKind::kIdentifier && head.size() >= 2) {
      const Token& prev = tokens_[head[head.size() - 2]];
      if (prev.kind == TokenKind::kPunct &&
          (prev.text == ":" || prev.text == ",")) {
        Push(Scope::kBlock);
        return;
      }
    }
    if (HasTopLevelAssignment(head)) {
      Push(Scope::kBlock);  // `auto x = <expr> {` — initializer, not a body
      return;
    }

    FunctionDef def;
    if (ExtractFunction(head, &def)) {
      def.body_begin = i;
      def.line = tokens_[i].line;
      result_.functions.push_back(std::move(def));
      const std::size_t index = result_.functions.size() - 1;
      Push(Scope::kFunction, result_.functions[index].name, index);
      return;
    }
    // Direct brace init of a member (`Matrix m{...};`) — still a declarator
    // end for field extraction.
    if (outer == Scope::kClass && InCheckpointedClass() &&
        last.kind == TokenKind::kIdentifier) {
      MaybeField(head);
    }
    Push(Scope::kBlock);
  }

  void CloseBrace(std::size_t i) {
    if (scopes_.empty()) return;
    const Scope scope = scopes_.back();
    scopes_.pop_back();
    if (scope.kind == Scope::kFunction && scope.function_index != kNone) {
      result_.functions[scope.function_index].body_end = i;
    }
  }

  std::string ClassNameFromHead(const std::vector<std::size_t>& head,
                                std::size_t class_kw) const {
    for (std::size_t h = class_kw + 1; h < head.size(); ++h) {
      const Token& t = tokens_[head[h]];
      if (t.kind == TokenKind::kIdentifier) {
        if (t.text == "alignas") {
          h = SkipParenGroupInHead(head, h + 1);
          continue;
        }
        return t.text;
      }
      break;  // `{`-adjacent punctuation: anonymous
    }
    return "";
  }

  /// If head[h] is `(`, returns the index of its matching `)` (or the last
  /// head index); otherwise returns h.
  std::size_t SkipParenGroupInHead(const std::vector<std::size_t>& head,
                                   std::size_t h) const {
    if (h >= head.size() || tokens_[head[h]].text != "(") return h;
    std::int64_t depth = 0;
    for (; h < head.size(); ++h) {
      const std::string& text = tokens_[head[h]].text;
      if (text == "(") ++depth;
      if (text == ")" && --depth == 0) return h;
    }
    return head.size() - 1;
  }

  bool HasTopLevelAssignment(const std::vector<std::size_t>& head) const {
    std::int64_t depth = 0;
    for (std::size_t h = 0; h < head.size(); ++h) {
      const std::string& text = tokens_[head[h]].text;
      if (text == "(" || text == "[") ++depth;
      if ((text == ")" || text == "]") && depth > 0) --depth;
      if (text == "=" && depth == 0 && h > 0) {
        const std::string& prev = tokens_[head[h - 1]].text;
        if (prev != "operator" && prev != "=" && prev != "!" &&
            prev != "<" && prev != ">") {
          return true;
        }
      }
    }
    return false;
  }

  bool ExtractFunction(const std::vector<std::size_t>& head,
                       FunctionDef* def) {
    // The parameter-list `(` is the first one directly preceded by a
    // plausible name: an identifier that is not a type/control keyword, or
    // an `operator<punct>` spelling.
    std::size_t name_pos = kNone;
    for (std::size_t h = 1; h < head.size(); ++h) {
      if (tokens_[head[h]].kind != TokenKind::kPunct ||
          tokens_[head[h]].text != "(") {
        continue;
      }
      const Token& prev = tokens_[head[h - 1]];
      if (prev.kind == TokenKind::kIdentifier) {
        if (IsFundamentalTypeWord(prev.text) || IsControlWord(prev.text)) {
          continue;
        }
        name_pos = h - 1;
        break;
      }
      if (prev.kind == TokenKind::kPunct && h >= 2 &&
          tokens_[head[h - 2]].text == "operator") {
        name_pos = h - 2;  // operator+ / operator== / ...
        break;
      }
    }
    if (name_pos == kNone) return false;

    def->name = tokens_[head[name_pos]].text;
    std::vector<std::string> qualifiers;
    std::size_t q = name_pos;
    while (q >= 2 && tokens_[head[q - 1]].text == "::" &&
           tokens_[head[q - 2]].kind == TokenKind::kIdentifier) {
      qualifiers.push_back(tokens_[head[q - 2]].text);
      q -= 2;
    }
    def->is_dtor = name_pos >= 1 && tokens_[head[name_pos - 1]].text == "~";
    def->class_name =
        !qualifiers.empty() ? qualifiers.front() : CurrentClassName();
    def->is_ctor = !def->is_dtor && !def->class_name.empty() &&
                   def->name == def->class_name;

    for (std::size_t h = 0; h + 1 < head.size(); ++h) {
      if (tokens_[head[h]].text == "CA_REQUIRES") {
        const std::string mutex = LastIdentifierInParenGroup(head, h + 1);
        if (!mutex.empty()) def->requires_mutexes.push_back(mutex);
      }
    }
    for (const std::size_t h : head) {
      if (tokens_[h].text == "CA_HOT_PATH") def->hot_path = true;
      if (tokens_[h].text == "CA_COLD_OK") def->cold_ok = true;
    }
    def->head_begin = head.front();
    return true;
  }

  std::string LastIdentifierInParenGroup(const std::vector<std::size_t>& head,
                                         std::size_t h) const {
    if (h >= head.size() || tokens_[head[h]].text != "(") return "";
    std::string last;
    std::int64_t depth = 0;
    for (; h < head.size(); ++h) {
      const Token& t = tokens_[head[h]];
      if (t.text == "(") ++depth;
      if (t.text == ")" && --depth == 0) break;
      if (t.kind == TokenKind::kIdentifier) last = t.text;
    }
    return last;
  }

  /// Same as above, but over raw token indices (annotations sit outside any
  /// gathered head when encountered mid-walk).
  std::string LastIdentifierInParens(std::size_t i) const {
    if (i >= tokens_.size() || tokens_[i].text != "(") return "";
    std::string last;
    std::int64_t depth = 0;
    for (; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.in_directive) continue;
      if (t.text == "(") ++depth;
      if (t.text == ")" && --depth == 0) break;
      if (t.kind == TokenKind::kIdentifier) last = t.text;
    }
    return last;
  }

  /// Parses the paren group opening at raw token index `paren` into
  /// depth-1, comma-separated arguments, each the concatenation of its
  /// identifier / `::` tokens ("mutex_", "ThreadBuffer::mutex"). String
  /// literals (body-less tokens) and nested groups contribute nothing.
  std::vector<std::string> ParseAnnotationArgs(std::size_t paren) const {
    std::vector<std::string> args;
    if (paren == kNone || paren >= tokens_.size() ||
        tokens_[paren].text != "(") {
      return args;
    }
    std::string current;
    std::int64_t depth = 0;
    for (std::size_t i = paren; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.in_directive) continue;
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(") {
          ++depth;
        } else if (t.text == ")") {
          if (--depth == 0) break;
        } else if (t.text == "," && depth == 1) {
          if (!current.empty()) args.push_back(std::move(current));
          current.clear();
        } else if (t.text == "::" && depth == 1) {
          current += "::";
        }
        continue;
      }
      if (t.kind == TokenKind::kIdentifier && depth == 1) current += t.text;
    }
    if (!current.empty()) args.push_back(std::move(current));
    return args;
  }

  static void SplitQualified(const std::string& spelled,
                             std::string* qualifier, std::string* name) {
    const std::size_t sep = spelled.rfind("::");
    if (sep == std::string::npos) {
      *name = spelled;
      return;
    }
    *qualifier = spelled.substr(0, sep);
    *name = spelled.substr(sep + 2);
  }

  /// Records a CA_CHECKPOINTED annotation found in a class head (it sits
  /// after the class name, before any base clause). Returns whether the
  /// class is checkpointed so the scope can arm field extraction.
  bool MaybeCheckpointedType(const std::vector<std::size_t>& head,
                             const std::string& class_name) {
    for (std::size_t h = 0; h < head.size(); ++h) {
      if (tokens_[head[h]].text != "CA_CHECKPOINTED") continue;
      CheckpointedType type;
      type.class_name = class_name;
      type.line = tokens_[head[h]].line;
      type.save_name = "SaveState";
      type.load_name = "LoadState";
      const std::vector<std::string> args =
          ParseAnnotationArgs(NextCodeToken(head[h]));
      if (!args.empty()) {
        SplitQualified(args[0], &type.save_qualifier, &type.save_name);
      }
      if (args.size() >= 2) {
        SplitQualified(args[1], &type.load_qualifier, &type.load_name);
      }
      result_.checkpointed_types.push_back(std::move(type));
      return true;
    }
    return false;
  }

  /// Field extraction for CA_CHECKPOINTED classes. `head` is the token run
  /// of one member declaration (terminated by `;` or by a brace
  /// initializer's `{`, with a trailing `=` already dropped). Extracts the
  /// declarator name, erring toward skipping anything that is not plainly
  /// a data member — method declarations, nested types, aliases, statics —
  /// so the checkpoint pass never reports a member that does not exist.
  void MaybeField(std::vector<std::size_t> head) {
    while (head.size() >= 2 && tokens_[head[1]].text == ":" &&
           (tokens_[head[0]].text == "public" ||
            tokens_[head[0]].text == "private" ||
            tokens_[head[0]].text == "protected")) {
      head.erase(head.begin(), head.begin() + 2);
    }
    while (!head.empty() && tokens_[head[0]].text == "mutable") {
      head.erase(head.begin());
    }
    if (head.empty()) return;
    const std::string& first = tokens_[head[0]].text;
    if (first == "static" || first == "using" || first == "typedef" ||
        first == "friend" || first == "template" || first == "enum" ||
        first == "class" || first == "struct" || first == "union" ||
        first == "virtual" || first == "explicit") {
      return;
    }
    for (const std::size_t h : head) {
      if (tokens_[h].text == "operator") return;
    }

    // The declarator proper: everything before a top-level `=`. Top-level
    // `:` (bit-field) or `,` (multi-declarator) shapes are skipped rather
    // than half-parsed.
    std::vector<std::size_t> decl;
    {
      std::int64_t depth = 0;
      for (const std::size_t h : head) {
        const Token& t = tokens_[h];
        if (t.kind == TokenKind::kPunct) {
          if (t.text == "(" || t.text == "[" || t.text == "<") ++depth;
          if ((t.text == ")" || t.text == "]" || t.text == ">") && depth > 0)
            --depth;
          if (depth == 0 && t.text == "=") break;
          if (depth == 0 && (t.text == ":" || t.text == ",")) return;
        }
        decl.push_back(h);
      }
    }

    // Strip trailing annotation macro groups and array extents; anything
    // else parenthesized at the tail is a function declaration.
    bool exempt = false;
    while (!decl.empty()) {
      const Token& last = tokens_[decl.back()];
      if (last.kind == TokenKind::kIdentifier &&
          last.text == "CA_ATOMIC_ONLY") {
        decl.pop_back();
        continue;
      }
      if (last.text == ")" || last.text == "]") {
        const std::string open = last.text == ")" ? "(" : "[";
        std::int64_t depth = 0;
        std::size_t h = decl.size();
        bool matched = false;
        while (h > 0) {
          --h;
          const std::string& text = tokens_[decl[h]].text;
          if (text == last.text) ++depth;
          if (text == open && --depth == 0) {
            matched = true;
            break;
          }
        }
        if (!matched) return;
        if (last.text == ")") {
          if (h == 0) return;
          const Token& macro = tokens_[decl[h - 1]];
          if (macro.kind != TokenKind::kIdentifier ||
              macro.text.rfind("CA_", 0) != 0) {
            return;  // parameter list, not an annotation
          }
          if (macro.text == "CA_NOT_CHECKPOINTED") exempt = true;
          decl.erase(decl.begin() + static_cast<std::ptrdiff_t>(h - 1),
                     decl.end());
        } else {
          decl.erase(decl.begin() + static_cast<std::ptrdiff_t>(h),
                     decl.end());
        }
        continue;
      }
      break;
    }
    if (decl.size() < 2) return;  // a member needs at least type + name
    const Token& name = tokens_[decl.back()];
    if (name.kind != TokenKind::kIdentifier) return;
    if (name.text == "const" || name.text == "noexcept" ||
        name.text == "override" || name.text == "final" ||
        name.text == "default" || name.text == "delete" ||
        IsFundamentalTypeWord(name.text) || IsControlWord(name.text)) {
      return;
    }
    FieldDecl field;
    field.class_name = CurrentClassName();
    field.field_name = name.text;
    field.exempt = exempt;
    field.line = name.line;
    result_.checkpoint_fields.push_back(std::move(field));
  }

  std::size_t PrevCodeToken(std::size_t i) const {
    while (i > 0) {
      --i;
      if (!tokens_[i].in_directive) return i;
    }
    return kNone;
  }

  std::size_t NextCodeToken(std::size_t i) const {
    for (++i; i < tokens_.size(); ++i) {
      if (!tokens_[i].in_directive) return i;
    }
    return kNone;
  }

  /// True if the declaration tokens preceding `field_pos` (back to the last
  /// `;` / `{` / `}` / access-specifier `:`) mention `atomic`.
  bool DeclMentionsAtomic(std::size_t field_pos) const {
    std::size_t i = field_pos;
    while ((i = PrevCodeToken(i)) != kNone) {
      const Token& t = tokens_[i];
      if (t.kind == TokenKind::kPunct &&
          (t.text == ";" || t.text == "{" || t.text == "}" ||
           t.text == ":")) {
        return false;
      }
      if (t.kind == TokenKind::kIdentifier && t.text == "atomic") return true;
    }
    return false;
  }

  void MaybeAnnotation(std::size_t i) {
    const std::string& text = tokens_[i].text;
    const bool guarded = text == "CA_GUARDED_BY";
    const bool atomic_only = text == "CA_ATOMIC_ONLY";
    const bool requires_anno = text == "CA_REQUIRES";
    const bool acquired_before = text == "CA_ACQUIRED_BEFORE";
    if (!guarded && !atomic_only && !requires_anno && !acquired_before) {
      return;
    }
    if (InnermostKind() != Scope::kClass) return;  // heads handle the rest

    if (acquired_before) {
      const std::size_t mutex_pos = PrevCodeToken(i);
      if (mutex_pos == kNone ||
          tokens_[mutex_pos].kind != TokenKind::kIdentifier) {
        return;
      }
      MutexOrder order;
      order.class_name = CurrentClassName();
      order.mutex_name = tokens_[mutex_pos].text;
      order.before = ParseAnnotationArgs(NextCodeToken(i));
      order.line = tokens_[i].line;
      result_.mutex_orders.push_back(std::move(order));
      return;
    }

    if (guarded || atomic_only) {
      const std::size_t field_pos = PrevCodeToken(i);
      if (field_pos == kNone ||
          tokens_[field_pos].kind != TokenKind::kIdentifier) {
        return;
      }
      AnnotatedField field;
      field.class_name = CurrentClassName();
      field.field_name = tokens_[field_pos].text;
      field.atomic_only = atomic_only;
      field.type_has_atomic = DeclMentionsAtomic(field_pos);
      field.line = tokens_[i].line;
      if (guarded) {
        const std::size_t paren = NextCodeToken(i);
        field.mutex_name =
            paren == kNone ? "" : LastIdentifierInParens(paren);
        if (field.mutex_name.empty()) return;  // malformed; ignore
      }
      result_.fields.push_back(std::move(field));
      return;
    }

    // CA_REQUIRES on an in-class method declaration:
    //   ReturnType Name(args...) [const] CA_REQUIRES(m);
    // Walk back over trailing qualifiers to the parameter list's `)`, match
    // it to its `(`, and take the identifier before it as the method name.
    std::size_t j = PrevCodeToken(i);
    while (j != kNone && tokens_[j].kind == TokenKind::kIdentifier &&
           (tokens_[j].text == "const" || tokens_[j].text == "noexcept" ||
            tokens_[j].text == "override" || tokens_[j].text == "final")) {
      j = PrevCodeToken(j);
    }
    if (j == kNone || tokens_[j].text != ")") return;
    std::int64_t depth = 0;
    while (j != kNone) {
      if (tokens_[j].text == ")") ++depth;
      if (tokens_[j].text == "(" && --depth == 0) break;
      j = PrevCodeToken(j);
    }
    if (j == kNone) return;
    const std::size_t name_pos = PrevCodeToken(j);
    if (name_pos == kNone ||
        tokens_[name_pos].kind != TokenKind::kIdentifier) {
      return;
    }
    const std::size_t paren = NextCodeToken(i);
    const std::string mutex =
        paren == kNone ? "" : LastIdentifierInParens(paren);
    if (mutex.empty()) return;
    result_.declared_requires.push_back(
        MethodRequires{CurrentClassName(), tokens_[name_pos].text, {mutex}});
  }

  void MaybeExport(std::size_t i) {
    const Token& t = tokens_[i];
    const Scope::Kind kind = InnermostKind();

    if (t.text == "class" || t.text == "struct" || t.text == "union" ||
        t.text == "enum") {
      std::size_t j = NextCodeToken(i);
      if (j != kNone && (tokens_[j].text == "class" ||
                         tokens_[j].text == "struct")) {
        j = NextCodeToken(j);  // `enum class X`
      }
      if (j != kNone && tokens_[j].kind == TokenKind::kIdentifier &&
          tokens_[j].text != "alignas") {
        result_.exported.insert(tokens_[j].text);
      }
      return;
    }
    if (t.text == "using" || t.text == "typedef") {
      std::size_t j = i;
      std::string last_ident;
      for (std::size_t steps = 0; steps < 48; ++steps) {
        j = NextCodeToken(j);
        if (j == kNone) return;
        const Token& tj = tokens_[j];
        if (tj.text == "namespace") return;  // using-directive: no name
        if (tj.text == "=") break;           // alias: name precedes `=`
        if (tj.text == ";") break;           // declaration: last identifier
        if (tj.kind == TokenKind::kIdentifier) last_ident = tj.text;
      }
      if (!last_ident.empty()) result_.exported.insert(last_ident);
      return;
    }

    if (kind == Scope::kEnum) {
      const std::size_t j = NextCodeToken(i);
      if (j != kNone && (tokens_[j].text == "," || tokens_[j].text == "}" ||
                         tokens_[j].text == "=")) {
        result_.exported.insert(t.text);
      }
      return;
    }
    if (kind == Scope::kNamespace || kind == Scope::kClass) {
      const std::size_t j = NextCodeToken(i);
      if (j == kNone) return;
      const std::string& next = tokens_[j].text;
      // Entity names: `Name(...)` declarations, `name = init`,
      // `Type name;` members/externs, and `name{init}` / `name[rank]`.
      if (next == "(" || next == "=" || next == ";" || next == "{" ||
          next == "[") {
        result_.exported.insert(t.text);
      }
      return;
    }
  }

  const std::vector<Token>& tokens_;
  std::vector<Scope> scopes_;
  std::size_t head_start_ = 0;
  FileStructure result_;
};

}  // namespace

FileStructure ScanStructure(const LexedFile& file) {
  return Scanner(file).Run();
}

}  // namespace copyattack::analyze
