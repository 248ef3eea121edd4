// Minimal JSON text helpers for the raw record document: numbers keep all
// 17 significant digits so the analysis sees every measured bit.
#ifndef PERFBENCH_DRIVER_JSON_TEXT_H_
#define PERFBENCH_DRIVER_JSON_TEXT_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

inline std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_JSON_TEXT_H_
