#include "util/strings.hpp"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace rtcad {

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && delims.find(s[i]) != std::string_view::npos) ++i;
    std::size_t j = i;
    while (j < s.size() && delims.find(s[j]) == std::string_view::npos) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' ||
                          s[b] == '\n'))
    ++b;
  std::size_t e = s.size();
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<unsigned long long> parse_whole_number(std::string_view s,
                                                     unsigned long long lo,
                                                     unsigned long long hi) {
  // from_chars takes digits only for an unsigned type: no space, no sign.
  unsigned long long n = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, n);
  if (ec != std::errc{} || stop != end || n < lo || n > hi) return {};
  return n;
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

}  // namespace rtcad
