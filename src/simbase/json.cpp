#include "simbase/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "simbase/error.hpp"

namespace tpio::sim::json {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + '"';
}

std::string document(const std::vector<Member>& head, const std::string& name,
                     const std::vector<Member>& entries) {
  std::string text = "{";
  for (const auto& [key, value] : head) {
    text += "\n  " + quote(key) + ": " + value + ",";
  }
  text += "\n  " + quote(name) + ": {";
  bool first = true;
  for (const auto& [key, value] : entries) {
    text += first ? "\n    " : ",\n    ";
    first = false;
    text += quote(key) + ": " + value;
  }
  return text + (first ? "}\n}\n" : "\n  }\n}\n");
}

void Reader::skip_ws() {
  while (p_ != end_ &&
         (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' || *p_ == '\t')) {
    ++p_;
  }
}

bool Reader::literal(char c) {
  skip_ws();
  if (p_ == end_ || *p_ != c) return false;
  ++p_;
  return true;
}

bool Reader::string(std::string& out) {
  skip_ws();
  if (p_ == end_ || *p_ != '"') return false;
  ++p_;
  out.clear();
  while (p_ != end_ && *p_ != '"') {
    if (*p_ == '\\') {
      ++p_;
      if (p_ == end_) return false;
      switch (*p_) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (end_ - p_ < 5) return false;
          out += static_cast<char>(
              std::strtol(std::string(p_ + 1, p_ + 5).c_str(), nullptr, 16));
          p_ += 4;
          break;
        }
        default: return false;
      }
      ++p_;
    } else {
      out += *p_++;
    }
  }
  if (p_ == end_) return false;
  ++p_;  // closing quote
  return true;
}

bool Reader::number(double& out) {
  skip_ws();
  char* after = nullptr;
  out = std::strtod(p_, &after);
  if (after == p_) return false;
  p_ = after;
  return true;
}

bool Reader::key(const char* name) {
  std::string k;
  return string(k) && k == name && literal(':');
}

bool Reader::object(const std::function<bool(const std::string&)>& value) {
  if (!literal('{')) return false;
  skip_ws();
  if (p_ != end_ && *p_ == '}') {
    ++p_;
    return true;
  }
  for (;;) {
    std::string k;
    if (!string(k) || !literal(':') || !value(k)) return false;
    if (literal(',')) continue;
    return literal('}');
  }
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

void write_file(const std::string& path, const std::string& text,
                const std::string& what) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    TPIO_CHECK(static_cast<bool>(out), "cannot write " + what + " " + tmp);
    out << text;
  }
  TPIO_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "cannot move " + what + " into place: " + path);
}

}  // namespace tpio::sim::json
