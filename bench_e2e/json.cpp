#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace bench {

const Json* Json::get(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double Json::num(const std::string& key, double fallback) const {
  const Json* v = get(key);
  return v != nullptr && v->isNumber() ? v->number : fallback;
}

std::string Json::str(const std::string& key,
                      const std::string& fallback) const {
  const Json* v = get(key);
  return v != nullptr && v->isString() ? v->string : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Json> document(std::string* err) {
    Json v;
    if (!value(v, 0)) {
      if (err) *err = error_ + " at byte " + std::to_string(pos_);
      return std::nullopt;
    }
    skipSpace();
    if (pos_ != s_.size()) {
      if (err) *err = "trailing bytes at byte " + std::to_string(pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  void skipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skipSpace();
    if (pos_ >= s_.size()) return fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return object(out, depth);
    if (c == '[') return array(out, depth);
    if (c == '"') {
      out.type = Json::Type::String;
      return string(out.string);
    }
    if (c == 't') {
      out.type = Json::Type::Bool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = Json::Type::Bool;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    return number(out);
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      digits = digits || (s_[pos_] >= '0' && s_[pos_] <= '9');
      ++pos_;
    }
    if (!digits) return fail("expected a value");
    const std::string text(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out.type = Json::Type::Number;
    out.number = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return fail("bad number");
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by any file this benchmark reads).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool array(Json& out, int depth) {
    ++pos_;
    out.type = Json::Type::Array;
    skipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json item;
      if (!value(item, depth + 1)) return false;
      out.array.push_back(std::move(item));
      skipSpace();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected , or ]");
    }
  }

  bool object(Json& out, int depth) {
    ++pos_;
    out.type = Json::Type::Object;
    skipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected a key");
      std::string key;
      if (!string(key)) return false;
      skipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected :");
      ++pos_;
      Json item;
      if (!value(item, depth + 1)) return false;
      out.object[key] = std::move(item);
      skipSpace();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected , or }");
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> parseJson(std::string_view text, std::string* err) {
  return Parser(text).document(err);
}

std::optional<Json> readJsonFile(const std::string& path, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (err) *err = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string perr;
  auto doc = parseJson(buf.str(), &perr);
  if (!doc && err) *err = path + ": " + perr;
  return doc;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace bench
