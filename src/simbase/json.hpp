#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace tpio::sim::json {

/// `s` as a JSON string literal: quotes, backslashes, newlines and tabs
/// escaped by name, other control characters as \u00XX.
std::string quote(const std::string& s);

/// One `"key": value` member; `value` is JSON text already.
using Member = std::pair<std::string, std::string>;

/// The one layout the simulator's JSON files share (sweep checkpoints,
/// the tuning cache): an object holding the `head` members, one per line,
/// then the member `name` whose object holds `entries`, one per line.
std::string document(const std::vector<Member>& head, const std::string& name,
                     const std::vector<Member>& entries);

/// Cursor over a JSON text, which must outlive it. Every read skips
/// leading whitespace and returns false on a mismatch.
class Reader {
 public:
  explicit Reader(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool literal(char c);
  bool string(std::string& out);
  bool number(double& out);
  /// The member name `name` and its colon.
  bool key(const char* name);
  /// `{ "key": value, ... }`: calls `value(key)` after each member's
  /// colon; it reads the value and returns false on a mismatch.
  bool object(const std::function<bool(const std::string&)>& value);

 private:
  void skip_ws();

  const char* p_;
  const char* end_;
};

/// Whole content of `path`; false when it cannot be opened.
bool read_file(const std::string& path, std::string& out);

/// Replace `path` by `text` atomically (temporary sibling, then rename);
/// `what` names the file in the error raised on failure.
void write_file(const std::string& path, const std::string& text,
                const std::string& what);

}  // namespace tpio::sim::json
