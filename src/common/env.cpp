#include "common/env.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/assert.hpp"

namespace lcn {

long env_int(const char* name, long fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return value;
}

long parse_env_int(const char* name, const char* raw, long fallback, long lo,
                   long hi) {
  if (raw == nullptr || *raw == '\0') return fallback;
  const char* end = raw + std::strlen(raw);
  long value = 0;
  const auto [last, ec] = std::from_chars(raw, end, value);
  if (ec != std::errc{} || last != end || value < lo || value > hi) {
    throw RuntimeError(std::string(name) + ": `" + raw +
                       "` is not a decimal integer in " + std::to_string(lo) +
                       "-" + std::to_string(hi));
  }
  return value;
}

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0') return fallback;
  return value;
}

bool env_flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  if (*raw == '\0' || std::strcmp(raw, "0") == 0 ||
      std::strcmp(raw, "false") == 0 || std::strcmp(raw, "off") == 0) {
    return false;
  }
  return true;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : std::string(raw);
}

}  // namespace lcn
