#include "flow/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/strings.hpp"

namespace rtcad {
namespace {

/// Nesting cap of the recursive-descent parser. Canonical artifacts nest
/// at most 6 levels (shard -> items -> entry -> record -> stages ->
/// stage); the cap only has to stop hostile input from exhausting the
/// stack, so it leaves generous headroom.
constexpr int kMaxJsonDepth = 64;

class JsonParser {
 public:
  JsonParser(const std::string& text, const std::string& label)
      : s_(text), label_(label) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing data after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error(label_ + strprintf(", offset %zu: ", pos_) + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(strprintf("expected '%c'", c));
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth)
          fail(strprintf("nesting deeper than %d levels", kMaxJsonDepth));
        ++depth_;
        Json v = c == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.str = string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      default: return number();
    }
  }

  static Json boolean(bool b) {
    Json v;
    v.kind = Json::Kind::kBool;
    v.boolean = b;
    return v;
  }

  Json object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      Json val = value();
      for (const auto& [k, ignored] : v.obj)
        if (k == key) fail("duplicate key \"" + key + "\"");
      v.obj.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The canonical writers only \u-escape control bytes; anything
          // wider would not round-trip through our byte-oriented strings.
          if (code > 0xff) fail("unsupported \\u escape above 0x00ff");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a JSON value");
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("malformed number");
    Json v;
    v.kind = Json::Kind::kNumber;
    v.number = d;
    return v;
  }

  const std::string& s_;
  const std::string& label_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

[[noreturn]] void field_fail(const std::string& where,
                             const std::string& what) {
  throw Error(where + ": " + what);
}

}  // namespace

Json parse_json(const std::string& text, const std::string& label) {
  return JsonParser(text, label).parse();
}

const Json& json_require(const Json& obj, const char* key,
                         const std::string& where) {
  if (obj.kind != Json::Kind::kObject)
    field_fail(where, "expected an object");
  const Json* v = obj.find(key);
  if (!v) field_fail(where, std::string("missing field \"") + key + "\"");
  return *v;
}

long long json_require_int(const Json& obj, const char* key,
                           const std::string& where) {
  const Json& v = json_require(obj, key, where);
  if (v.kind != Json::Kind::kNumber ||
      v.number != std::floor(v.number) || std::abs(v.number) > 1e15)
    field_fail(where, std::string("field \"") + key +
                          "\" must be an integer");
  return static_cast<long long>(v.number);
}

std::size_t json_require_uint(const Json& obj, const char* key,
                              const std::string& where) {
  const long long n = json_require_int(obj, key, where);
  if (n < 0)
    field_fail(where,
               std::string("field \"") + key + "\" must be non-negative");
  return static_cast<std::size_t>(n);
}

std::string json_require_string(const Json& obj, const char* key,
                                const std::string& where) {
  const Json& v = json_require(obj, key, where);
  if (v.kind != Json::Kind::kString)
    field_fail(where, std::string("field \"") + key + "\" must be a string");
  return v.str;
}

bool json_require_bool(const Json& obj, const char* key,
                       const std::string& where) {
  const Json& v = json_require(obj, key, where);
  if (v.kind != Json::Kind::kBool)
    field_fail(where, std::string("field \"") + key + "\" must be a bool");
  return v.boolean;
}

void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          *out += strprintf("\\u%04x", c);
        else
          out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace rtcad
