#include "common/strings.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace lcn {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && (text[b] == ' ' || text[b] == '\t' || text[b] == '\r' ||
                   text[b] == '\n')) {
    ++b;
  }
  while (e > b && (text[e - 1] == ' ' || text[e - 1] == '\t' ||
                   text[e - 1] == '\r' || text[e - 1] == '\n')) {
    --e;
  }
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string json_number(double value, int digits) {
  if (!std::isfinite(value)) return "null";
  return strfmt("%.*g", digits, value);
}

}  // namespace lcn
