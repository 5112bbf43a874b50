#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/passes.h"

namespace copyattack::analyze {

namespace {

/// One serializer-body candidate for a CA_CHECKPOINTED type.
struct Candidate {
  std::size_t file = 0;
  const FunctionDef* def = nullptr;
};

std::string Spell(const std::string& qualifier, const std::string& name) {
  return qualifier.empty() ? name : qualifier + "::" + name;
}

/// First-occurrence order of `members` (as identifier tokens) inside the
/// function body. String literals are body-less tokens, so a member
/// name inside a log message or CSV header never counts as a reference.
std::vector<std::string> ReferenceOrder(const ScannedFile& file,
                                        const FunctionDef& def,
                                        const std::set<std::string>& members) {
  std::vector<std::string> order;
  std::set<std::string> seen;
  const std::vector<Token>& tokens = file.lexed.tokens;
  for (std::size_t k = def.body_begin + 1; k < def.body_end; ++k) {
    const Token& t = tokens[k];
    if (t.kind != TokenKind::kIdentifier || t.in_directive) continue;
    if (members.count(t.text) == 0) continue;
    if (seen.insert(t.text).second) order.push_back(t.text);
  }
  return order;
}

std::string JoinNames(const std::vector<std::string>& names) {
  if (names.empty()) return "(none)";
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Resolves a serializer name to a definition body. Qualified names
/// (`Owner::Fn`) match only methods of `Owner`; unqualified names prefer
/// methods of the annotated class itself, then free functions, then any
/// method. Within a tier the body referencing the most tracked members
/// wins — that is what picks the stream overload of SaveParameters over
/// the path-taking convenience overload, which references no member at
/// all. Ties break on (path, line) so reports are deterministic.
Candidate ResolveSerializer(const SourceTree& tree,
                            const std::vector<FileStructure>& structures,
                            const std::string& qualifier,
                            const std::string& name,
                            const std::string& own_class,
                            const std::set<std::string>& members) {
  std::vector<Candidate> same_class;
  std::vector<Candidate> free_fns;
  std::vector<Candidate> others;
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    for (const FunctionDef& def : structures[i].functions) {
      if (def.name != name || def.body_end <= def.body_begin) continue;
      if (!qualifier.empty()) {
        if (def.class_name == qualifier) others.push_back({i, &def});
        continue;
      }
      if (def.class_name == own_class) {
        same_class.push_back({i, &def});
      } else if (def.class_name.empty()) {
        free_fns.push_back({i, &def});
      } else {
        others.push_back({i, &def});
      }
    }
  }
  const std::vector<Candidate>* tier = &others;
  if (qualifier.empty()) {
    if (!same_class.empty()) {
      tier = &same_class;
    } else if (!free_fns.empty()) {
      tier = &free_fns;
    }
  }

  Candidate best;
  std::size_t best_count = 0;
  for (const Candidate& cand : *tier) {
    const std::size_t count =
        ReferenceOrder(tree.files[cand.file], *cand.def, members).size();
    bool better = best.def == nullptr || count > best_count;
    if (!better && count == best_count) {
      const std::string& best_path = tree.files[best.file].rel_path;
      const std::string& cand_path = tree.files[cand.file].rel_path;
      better = cand_path < best_path ||
               (cand_path == best_path && cand.def->line < best.def->line);
    }
    if (better) {
      best = cand;
      best_count = count;
    }
  }
  return best;
}

/// All three phases of the checkpoint rotation, in write order
/// (core::SaveCampaignCheckpoint, DESIGN.md §16). A body that
/// crash-instruments the checkpoint write path must enumerate every one
/// — a skipped phase is a crash window the soak can never schedule.
const char* const kRotationPhases[] = {"checkpoint.pre_temp_write",
                                       "checkpoint.pre_rotate",
                                       "checkpoint.pre_rename"};

/// Extracts the quoted site names of `CA_CRASH_POINT("...")` calls in
/// `def`'s body. The macro occurrences are located through the token
/// stream (so `#define CA_CRASH_POINT(...)` and commented-out calls
/// never count), but the site names are read back from the raw
/// `content` because the tokenizer blanks string-literal interiors.
std::vector<std::string> CrashSitesInBody(const ScannedFile& file,
                                          const FunctionDef& def) {
  std::vector<std::string> sites;
  const std::vector<Token>& tokens = file.lexed.tokens;
  if (def.body_end <= def.body_begin || def.body_end >= tokens.size()) {
    return sites;
  }
  std::set<std::size_t> lines;
  for (std::size_t k = def.body_begin + 1; k < def.body_end; ++k) {
    const Token& t = tokens[k];
    if (t.kind == TokenKind::kIdentifier && !t.in_directive &&
        t.text == "CA_CRASH_POINT") {
      lines.insert(t.line);
    }
  }
  if (lines.empty()) return sites;
  const std::string& content = file.lexed.content;
  std::size_t line_no = 1;
  std::size_t begin = 0;
  for (std::size_t pos = 0; pos <= content.size(); ++pos) {
    if (pos != content.size() && content[pos] != '\n') continue;
    if (lines.count(line_no) != 0) {
      const std::string line = content.substr(begin, pos - begin);
      std::size_t at = 0;
      while ((at = line.find("CA_CRASH_POINT", at)) != std::string::npos) {
        at += sizeof("CA_CRASH_POINT") - 1;
        const std::size_t open = line.find('"', at);
        if (open == std::string::npos) break;
        const std::size_t close = line.find('"', open + 1);
        if (close == std::string::npos) break;
        sites.push_back(line.substr(open + 1, close - open - 1));
        at = close + 1;
      }
    }
    begin = pos + 1;
    ++line_no;
  }
  return sites;
}

}  // namespace

void RunCheckpointPass(const SourceTree& tree,
                       const std::vector<FileStructure>& structures,
                       std::vector<Violation>* violations) {
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    const ScannedFile& decl_file = tree.files[i];
    for (const CheckpointedType& type : structures[i].checkpointed_types) {
      // The members of an annotated type sit in the same file as the
      // annotation (the class body follows the head), so pairing by
      // (file, class name) cannot cross-talk between same-named nested
      // types in different headers.
      std::vector<const FieldDecl*> fields;
      std::set<std::string> tracked;
      for (const FieldDecl& field : structures[i].checkpoint_fields) {
        if (field.class_name != type.class_name) continue;
        fields.push_back(&field);
        if (!field.exempt) tracked.insert(field.field_name);
      }
      if (tracked.empty()) continue;  // nothing checkable

      const std::string save_spelled =
          Spell(type.save_qualifier, type.save_name);
      const std::string load_spelled =
          Spell(type.load_qualifier, type.load_name);
      const Candidate save =
          ResolveSerializer(tree, structures, type.save_qualifier,
                            type.save_name, type.class_name, tracked);
      const Candidate load =
          ResolveSerializer(tree, structures, type.load_qualifier,
                            type.load_name, type.class_name, tracked);
      if (save.def == nullptr) {
        AddViolation(decl_file, type.line, "ckpt-no-serializer",
                     "CA_CHECKPOINTED type '" + type.class_name +
                         "' names save serializer '" + save_spelled +
                         "' but no definition was found in the tree",
                     violations);
      }
      if (load.def == nullptr) {
        AddViolation(decl_file, type.line, "ckpt-no-serializer",
                     "CA_CHECKPOINTED type '" + type.class_name +
                         "' names load serializer '" + load_spelled +
                         "' but no definition was found in the tree",
                     violations);
      }
      if (save.def == nullptr || load.def == nullptr) continue;

      const std::vector<std::string> save_order =
          ReferenceOrder(tree.files[save.file], *save.def, tracked);
      const std::vector<std::string> load_order =
          ReferenceOrder(tree.files[load.file], *load.def, tracked);
      const std::set<std::string> in_save(save_order.begin(),
                                          save_order.end());
      const std::set<std::string> in_load(load_order.begin(),
                                          load_order.end());

      for (const FieldDecl* field : fields) {
        if (field->exempt) continue;
        const bool saved = in_save.count(field->field_name) != 0;
        const bool loaded = in_load.count(field->field_name) != 0;
        if (saved && loaded) continue;
        std::string where;
        if (!saved) where += "save '" + save_spelled + "'";
        if (!loaded) {
          if (!where.empty()) where += " or ";
          where += "load '" + load_spelled + "'";
        }
        AddViolation(decl_file, field->line, "ckpt-missing-member",
                     "member '" + field->field_name +
                         "' of CA_CHECKPOINTED type '" + type.class_name +
                         "' is not referenced in " + where +
                         "; serialize it or mark it "
                         "CA_NOT_CHECKPOINTED(reason)",
                     violations);
      }

      // Order check over the members both bodies reference (missing ones
      // are already reported above; re-flagging them here would double
      // count a single omission).
      std::vector<std::string> save_common;
      std::vector<std::string> load_common;
      for (const std::string& name : save_order) {
        if (in_load.count(name) != 0) save_common.push_back(name);
      }
      for (const std::string& name : load_order) {
        if (in_save.count(name) != 0) load_common.push_back(name);
      }
      if (save_common != load_common) {
        AddViolation(
            tree.files[save.file], save.def->line, "ckpt-order-mismatch",
            "type '" + type.class_name + "': save '" + save_spelled +
                "' references members in order [" + JoinNames(save_common) +
                "] but load '" + load_spelled + "' uses [" +
                JoinNames(load_common) +
                "]; streams replay byte-for-byte, so the orders must match",
            violations);
      }
    }
  }

  // Crash-phase discipline (ISSUE 10): a function that marks ANY
  // `checkpoint.*` crash point is instrumenting the checkpoint write
  // path and must enumerate all three rotation phases, so a new
  // serializer cannot ship with a crash window the soak never exercises.
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    const ScannedFile& file = tree.files[i];
    for (const FunctionDef& def : structures[i].functions) {
      const std::vector<std::string> sites = CrashSitesInBody(file, def);
      bool in_checkpoint_path = false;
      for (const std::string& site : sites) {
        if (site.rfind("checkpoint.", 0) == 0) {
          in_checkpoint_path = true;
          break;
        }
      }
      if (!in_checkpoint_path) continue;
      const std::set<std::string> have(sites.begin(), sites.end());
      std::vector<std::string> missing;
      for (const char* phase : kRotationPhases) {
        if (have.count(phase) == 0) missing.push_back(phase);
      }
      if (missing.empty()) continue;
      AddViolation(
          file, def.line, "ckpt-crash-phase",
          "function '" + def.name +
              "' marks checkpoint.* crash points but omits rotation "
              "phase(s) [" +
              JoinNames(missing) +
              "]; the checkpoint write path must enumerate "
              "pre_temp_write, pre_rotate and pre_rename so the chaos "
              "soak can kill inside every window",
          violations);
    }
  }
}

}  // namespace copyattack::analyze
