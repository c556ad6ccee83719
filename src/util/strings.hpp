// Small string utilities shared by the parsers and report writers.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rtcad {

/// Split on any run of characters from `delims`; empty tokens are dropped.
std::vector<std::string> split(std::string_view s,
                               std::string_view delims = " \t");

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// `s` as a decimal whole number in [lo, hi]: digits and nothing else.
/// Every number the CLI and the wire protocol read goes through it.
std::optional<unsigned long long> parse_whole_number(
    std::string_view s, unsigned long long lo = 0,
    unsigned long long hi = std::numeric_limits<unsigned long long>::max());

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace rtcad
