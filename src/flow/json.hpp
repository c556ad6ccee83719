// Minimal strict JSON reader shared by the artifact formats the repo
// both writes and reads back — shard files of both kinds (flow/shard.*)
// and item records. The repo takes no third-party dependencies,
// and the only JSON these tools ever read is what their own canonical
// writers produced — so this is a small recursive-descent parser over
// the full JSON grammar, strict about structure and loud about
// positions. The typed field accessors carry a `where` label so every
// error names the artifact and the offending field.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace rtcad {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;  // insertion order

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Strict parse of a complete JSON document. Throws rtcad::Error with a
/// byte offset, prefixed "<label>, offset N: " ("shard JSON", ...), on
/// malformed input or nesting deeper than 64 levels.
Json parse_json(const std::string& text, const std::string& label);

/// Typed field accessors. `where` names the containing object for the
/// error message ("<where>: missing field ..."); callers bake the
/// artifact label into it.
const Json& json_require(const Json& obj, const char* key,
                         const std::string& where);
long long json_require_int(const Json& obj, const char* key,
                           const std::string& where);
std::size_t json_require_uint(const Json& obj, const char* key,
                              const std::string& where);
std::string json_require_string(const Json& obj, const char* key,
                                const std::string& where);
bool json_require_bool(const Json& obj, const char* key,
                       const std::string& where);

/// Append `s` as a JSON string literal — the canonical writers' escape
/// (control bytes become \u00XX, which is exactly what the reader above
/// round-trips).
void append_json_string(std::string* out, const std::string& s);

}  // namespace rtcad
