// docs_check: keep the documentation honest.
//
// Scans README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md for
//   (a) intra-repo markdown links `[text](target)` — every non-external
//       target must exist on disk, resolved relative to the linking file
//       (anchors are stripped; http(s)/mailto/pure-anchor links are
//       skipped),
//   (b) references to executable artifacts — every `bench/<name>`,
//       `examples/<name>`, or `tools/<name>` mentioned in prose or code
//       blocks must exist as a binary in the build tree, so the manual
//       can never name a driver that was renamed or dropped,
//   (c) coverage of the tuning surface — every field of coll::Options
//       (src/core/types.hpp) and every `--flag` the tpio_sim / tpio_sweep
//       CLIs accept must be mentioned in at least one document, so a knob
//       can never be grown without a sentence saying what it does, and
//   (d) experiment coverage — every `bench/fig_*` driver registered in
//       bench/CMakeLists.txt must have a section in EXPERIMENTS.md, and
//   (e) the reverse of (c) — every `--flag` in a section whose `## `
//       heading names tpio_sim or tpio_sweep, and every flag on a
//       code-block line that invokes either tool, must be a flag the CLIs
//       accept; every `Options::<name>` in the docs, and every backticked
//       name in the first column of the HANDBOOK's `| field | meaning |`
//       table, must name a field of coll::Options. A renamed or deleted
//       knob can never linger in the manual, and
//   (f) API references — every `Mpi::X`, `Plan::X`, `PlanSkeleton::X`,
//       `PlanCache::X`, `Engine::X`, `ReadEngine::X` and `Conductor::X`
//       in the docs must name an identifier declared in that class's
//       definition in a header under src/, so a deleted or renamed member
//       can never linger in the manual either, and
//   (g) namespace references — every `xp::X`, `coll::X`, `pfs::X`,
//       `sim::X`, `smpi::X`, `wl::X` and `net::X` in the docs must name an
//       identifier that occurs in some header under src/ (comments
//       skipped), so a deleted free function or type cannot linger either.
//
// Usage: docs_check <repo-root> <build-dir>
// Exit code 0 = clean; 1 = at least one broken reference (each printed).

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool is_external(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0 || target.rfind("chrome://", 0) == 0 ||
         (!target.empty() && target[0] == '#');
}

// Markdown links: [text](target). Images and reference-style links are not
// used in this repository's docs; nested parentheses in targets are not
// either, so a non-greedy scan to the first ')' is exact.
std::vector<std::string> markdown_link_targets(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] != ']' || text[i + 1] != '(') continue;
    std::size_t close = text.find(')', i + 2);
    if (close == std::string::npos) continue;
    out.push_back(text.substr(i + 2, close - (i + 2)));
  }
  return out;
}

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Occurrences of `<kind>/<name>` where <name> is a plain identifier —
// matches both prose ("run `bench/table1_overlap_wins`") and shell lines
// ("build/bench/fig_hier_shuffle"). Paths with a file extension (.cpp,
// .md, ...) are source/doc references, not binaries, and are skipped.
std::set<std::string> binary_refs(const std::string& text,
                                  const std::string& kind) {
  std::set<std::string> out;
  const std::string needle = kind + "/";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    // Require a non-name character before `kind` so e.g. "microbench/x"
    // does not register as a bench reference ("build/bench/x" still does).
    if (pos > 0 && (name_char(text[pos - 1]) || text[pos - 1] == '.'))
      continue;
    std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < text.size() && name_char(text[end])) ++end;
    if (end == start) continue;
    if (end < text.size() && text[end] == '.') continue;  // source file
    if (end < text.size() && text[end] == '/') continue;  // deeper path
    if (end < text.size() && text[end] == '*') continue;  // glob ("bench/micro_*")
    out.insert(text.substr(start, end - start));
  }
  return out;
}

// Member names of `struct <name> { ... };` in `text`: for every top-level
// `;`-terminated declaration, the identifier before the first `=` (or the
// `;` when there is no initializer). Method declarations do not occur in
// the structs this is pointed at (plain aggregates of knobs).
std::vector<std::string> struct_fields(const std::string& text,
                                       const std::string& name) {
  std::vector<std::string> out;
  std::size_t pos = text.find("struct " + name + " {");
  if (pos == std::string::npos) return out;
  pos = text.find('{', pos);
  int depth = 0;
  std::string stmt;
  for (std::size_t i = pos; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{') {
      ++depth;
      continue;
    }
    if (c == '}') {
      if (--depth == 0) break;
      continue;
    }
    if (depth != 1) continue;
    // Strip // comments to end of line.
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      i = text.find('\n', i);
      if (i == std::string::npos) break;
      continue;
    }
    if (c == ';') {
      const std::size_t eq = stmt.find('=');
      std::string head = eq == std::string::npos ? stmt : stmt.substr(0, eq);
      std::size_t end = head.size();
      while (end > 0 && !name_char(head[end - 1])) --end;
      std::size_t start = end;
      while (start > 0 && name_char(head[start - 1])) --start;
      if (end > start) out.push_back(head.substr(start, end - start));
      stmt.clear();
    } else {
      stmt += c;
    }
  }
  return out;
}

// Every `--flag` in `text`: two dashes, a letter, then letters, digits
// and dashes. In code (`in_code`) only flags that open a string literal or
// follow a space count (CLI parse branches and usage strings); in docs
// every flag not glued to a preceding word or dash does.
std::set<std::string> cli_flags(const std::string& text, bool in_code) {
  std::set<std::string> out;
  for (std::size_t pos = text.find("--"); pos != std::string::npos;
       pos = text.find("--", pos + 2)) {
    const char before = pos > 0 ? text[pos - 1] : '\n';
    if (in_code ? before != '"' && before != ' '
                : name_char(before) || before == '-') {
      continue;
    }
    std::size_t end = pos + 2;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) ||
            text[end] == '-')) {
      ++end;
    }
    if (end > pos + 2 && std::isalpha(static_cast<unsigned char>(text[pos + 2])))
      out.insert(text.substr(pos, end - pos));
  }
  return out;
}

// The text the CLI flag check (e) reads in one document: every `## `
// section whose heading names tpio_sim or tpio_sweep, plus, on every
// fenced code-block line that invokes either tool (backslash continuation
// lines joined), the part from the tool name to the end of that command.
std::string cli_doc_text(const std::string& doc) {
  std::string out;
  std::istringstream in(doc);
  std::string line;
  bool in_section = false, in_code = false;
  std::string command;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line.find("tpio_sim") != std::string::npos ||
                   line.find("tpio_sweep") != std::string::npos;
    }
    if (in_section) out += line + "\n";
    if (line.rfind("```", 0) == 0) {
      in_code = !in_code;
      continue;
    }
    if (!in_code) continue;
    command += line;
    if (!command.empty() && command.back() == '\\') {
      command.pop_back();
      continue;
    }
    for (const char* tool : {"tpio_sim ", "tpio_sweep "}) {
      std::size_t at = command.find(tool);
      if (at == std::string::npos) continue;
      std::size_t stop = command.find_first_of("|;#&>", at);
      out += command.substr(at, stop == std::string::npos
                                    ? std::string::npos
                                    : stop - at);
      out += "\n";
    }
    command.clear();
  }
  return out;
}

// Backticked names in the first column of the `| field | meaning |` table
// in `doc` (HANDBOOK §4, the coll::Options surface).
std::vector<std::string> field_table_names(const std::string& doc) {
  std::vector<std::string> out;
  std::istringstream in(doc);
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (!in_table) {
      in_table = line.rfind("| field | meaning |", 0) == 0;
      continue;
    }
    if (line.rfind('|', 0) != 0) break;  // first line after the table
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t open = cell.find('`'); open != std::string::npos;) {
      const std::size_t close = cell.find('`', open + 1);
      if (close == std::string::npos) break;
      out.push_back(cell.substr(open + 1, close - open - 1));
      open = cell.find('`', close + 1);
    }
  }
  return out;
}

// Names `X` of every `<scope>::X` reference in `text` whose scope is not
// the tail of a longer name (`ReadEngine::x` is no `Engine::x`).
std::set<std::string> scoped_refs(const std::string& text,
                                  const std::string& scope) {
  std::set<std::string> out;
  const std::string needle = scope + "::";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    if (pos > 0 && name_char(text[pos - 1])) continue;
    std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < text.size() && name_char(text[end])) ++end;
    if (end > start) out.insert(text.substr(start, end - start));
  }
  return out;
}

// Every identifier in the body of each `class <name> {` in `code`,
// comments skipped: member names, nested types and parameter names alike.
std::set<std::string> class_identifiers(const std::string& code,
                                        const std::string& name) {
  std::set<std::string> out;
  const std::string needle = "class " + name + " {";
  for (std::size_t pos = code.find(needle); pos != std::string::npos;
       pos = code.find(needle, pos + 1)) {
    int depth = 0;
    std::string word;
    for (std::size_t i = code.find('{', pos); i < code.size(); ++i) {
      const char c = code[i];
      if (name_char(c)) {
        word += c;
        continue;
      }
      if (!word.empty() && !std::isdigit(static_cast<unsigned char>(word[0])))
        out.insert(word);
      word.clear();
      if (c == '/' && i + 1 < code.size() && code[i + 1] == '/') {
        i = code.find('\n', i);
        if (i == std::string::npos) break;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}' && --depth == 0) {
        break;
      }
    }
  }
  return out;
}

// Every identifier in `code`, comments skipped.
std::set<std::string> identifiers(const std::string& code) {
  std::set<std::string> out;
  std::string word;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (name_char(c)) {
      word += c;
      continue;
    }
    if (!word.empty() && !std::isdigit(static_cast<unsigned char>(word[0])))
      out.insert(word);
    word.clear();
    if (c == '/' && i + 1 < code.size() && code[i + 1] == '/') {
      i = code.find('\n', i);
      if (i == std::string::npos) break;
    }
  }
  return out;
}

// Names registered via `tpio_add_bench(<name> ...)`.
std::vector<std::string> bench_targets(const std::string& cmake_text) {
  std::vector<std::string> out;
  const std::string needle = "tpio_add_bench(";
  for (std::size_t pos = cmake_text.find(needle); pos != std::string::npos;
       pos = cmake_text.find(needle, pos + 1)) {
    std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < cmake_text.size() && name_char(cmake_text[end])) ++end;
    if (end > start) out.push_back(cmake_text.substr(start, end - start));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: docs_check <repo-root> <build-dir>\n";
    return 2;
  }
  const fs::path repo = argv[1];
  const fs::path build = argv[2];

  std::vector<fs::path> docs;
  for (const char* root_doc : {"README.md", "DESIGN.md", "EXPERIMENTS.md"})
    if (fs::exists(repo / root_doc)) docs.push_back(repo / root_doc);
  if (fs::is_directory(repo / "docs"))
    for (const auto& e : fs::directory_iterator(repo / "docs"))
      if (e.path().extension() == ".md") docs.push_back(e.path());
  std::sort(docs.begin(), docs.end());

  int broken = 0;
  int links = 0, bins = 0;
  for (const fs::path& doc : docs) {
    const std::string text = slurp(doc);
    const fs::path base = doc.parent_path();

    for (const std::string& raw : markdown_link_targets(text)) {
      if (is_external(raw)) continue;
      std::string target = raw.substr(0, raw.find('#'));  // strip anchor
      if (target.empty()) continue;
      ++links;
      if (!fs::exists(base / target)) {
        std::cerr << doc.lexically_relative(repo).string()
                  << ": broken link -> " << raw << "\n";
        ++broken;
      }
    }

    for (const char* kind : {"bench", "examples", "tools"}) {
      for (const std::string& name : binary_refs(text, kind)) {
        ++bins;
        if (!fs::exists(build / kind / name)) {
          std::cerr << doc.lexically_relative(repo).string() << ": " << kind
                    << " binary not in build tree -> " << kind << "/" << name
                    << "\n";
          ++broken;
        }
      }
    }
  }

  // (c) Tuning-surface coverage: concatenate the whole doc corpus once;
  // every Options knob and CLI flag must occur somewhere in it.
  std::string corpus;
  for (const fs::path& doc : docs) corpus += slurp(doc);

  int knobs = 0;
  const std::vector<std::string> fields =
      struct_fields(slurp(repo / "src/core/types.hpp"), "Options");
  for (const std::string& field : fields) {
    ++knobs;
    if (corpus.find(field) == std::string::npos) {
      std::cerr << "coll::Options::" << field
                << " is documented nowhere (README/DESIGN/EXPERIMENTS/docs)\n";
      ++broken;
    }
  }
  std::set<std::string> flags;
  for (const char* src : {"src/harness/cli.cpp", "tools/tpio_sim.cpp",
                          "tools/tpio_sweep.cpp"}) {
    for (const std::string& f : cli_flags(slurp(repo / src), true)) {
      flags.insert(f);
    }
  }
  for (const std::string& flag : flags) {
    ++knobs;
    if (corpus.find(flag) == std::string::npos) {
      std::cerr << "CLI flag " << flag
                << " is documented nowhere (README/DESIGN/EXPERIMENTS/docs)\n";
      ++broken;
    }
  }

  // (e) Docs may name only flags the CLIs accept and existing Options
  // fields.
  for (const std::string& name :
       field_table_names(slurp(repo / "docs/HANDBOOK.md"))) {
    if (std::find(fields.begin(), fields.end(), name) == fields.end()) {
      std::cerr << "docs/HANDBOOK.md: `" << name
                << "` in the Options table is not a coll::Options field\n";
      ++broken;
    }
  }
  for (const fs::path& doc : docs) {
    const std::string text = slurp(doc);
    const std::string rel = doc.lexically_relative(repo).string();
    for (const std::string& flag : cli_flags(cli_doc_text(text), false)) {
      if (flags.count(flag) == 0) {
        std::cerr << rel << ": " << flag
                  << " is not a tpio_sim/tpio_sweep flag\n";
        ++broken;
      }
    }
    for (const std::string& name : scoped_refs(text, "Options")) {
      if (std::find(fields.begin(), fields.end(), name) == fields.end()) {
        std::cerr << rel << ": Options::" << name
                  << " is not a coll::Options field\n";
        ++broken;
      }
    }
  }

  // (f) Docs may name only members the classes declare.
  std::string headers;
  for (const auto& e : fs::recursive_directory_iterator(repo / "src"))
    if (e.path().extension() == ".hpp") headers += slurp(e.path());
  int api_refs = 0;
  for (const char* cls : {"Mpi", "Plan", "PlanSkeleton", "PlanCache", "Engine",
                          "ReadEngine", "Conductor"}) {
    const std::set<std::string> members = class_identifiers(headers, cls);
    for (const fs::path& doc : docs) {
      for (const std::string& name : scoped_refs(slurp(doc), cls)) {
        ++api_refs;
        if (members.count(name) == 0) {
          std::cerr << doc.lexically_relative(repo).string() << ": " << cls
                    << "::" << name << " is not declared in class " << cls
                    << " under src/\n";
          ++broken;
        }
      }
    }
  }

  // (g) Docs may name only namespace members some header declares.
  const std::set<std::string> declared = identifiers(headers);
  for (const char* ns : {"xp", "coll", "pfs", "sim", "smpi", "wl", "net"}) {
    for (const fs::path& doc : docs) {
      for (const std::string& name : scoped_refs(slurp(doc), ns)) {
        ++api_refs;
        if (declared.count(name) == 0) {
          std::cerr << doc.lexically_relative(repo).string() << ": " << ns
                    << "::" << name << " occurs in no header under src/\n";
          ++broken;
        }
      }
    }
  }

  // (d) Every fig_* bench driver needs an EXPERIMENTS.md section.
  const std::string experiments = slurp(repo / "EXPERIMENTS.md");
  int figs = 0;
  for (const std::string& name :
       bench_targets(slurp(repo / "bench/CMakeLists.txt"))) {
    if (name.rfind("fig", 0) != 0) continue;
    ++figs;
    if (experiments.find("bench/" + name) == std::string::npos) {
      std::cerr << "bench/" << name << " has no EXPERIMENTS.md section\n";
      ++broken;
    }
  }

  std::cout << "docs_check: " << docs.size() << " documents, " << links
            << " intra-repo links, " << bins << " binary references, "
            << knobs << " knobs/flags, " << api_refs << " API references, "
            << figs << " fig drivers, " << broken << " broken\n";
  return broken == 0 ? 0 : 1;
}
