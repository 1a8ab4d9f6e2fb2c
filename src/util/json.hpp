// The one JSON string writer, shared by the trace, metrics and profiler
// exporters.
#pragma once

#include <ostream>
#include <string_view>

namespace dacc::util {

/// Writes `s` to `os` as a quoted JSON string.
inline void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        // Remaining control bytes are only legal in JSON as \u escapes.
        if (u < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[u >> 4] << kHex[u & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace dacc::util
