#include "service/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/strings.hpp"

namespace lcn::service {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonObject::has(const std::string& key) const {
  return strings.count(key) != 0 || numbers.count(key) != 0 ||
         bools.count(key) != 0;
}

std::string JsonObject::get_string(const std::string& key,
                                   const std::string& fallback) const {
  const auto it = strings.find(key);
  return it != strings.end() ? it->second : fallback;
}

double JsonObject::get_number(const std::string& key, double fallback) const {
  const auto it = numbers.find(key);
  return it != numbers.end() ? it->second : fallback;
}

long JsonObject::get_int(const std::string& key, long fallback) const {
  const auto it = numbers.find(key);
  if (it == numbers.end()) return fallback;
  // Saturate before the cast: converting a double outside long's range
  // (e.g. 1e999 parses to inf) is undefined behaviour.
  using Limits = std::numeric_limits<long>;
  const double value = it->second;
  if (std::isnan(value)) return fallback;
  if (value >= static_cast<double>(Limits::max())) return Limits::max();
  if (value <= static_cast<double>(Limits::min())) return Limits::min();
  return static_cast<long>(value);
}

bool JsonObject::get_bool(const std::string& key, bool fallback) const {
  const auto it = bools.find(key);
  return it != bools.end() ? it->second : fallback;
}

JsonObject::IntStatus JsonObject::get_uint64(const std::string& key,
                                             std::uint64_t& out) const {
  const auto it = number_tokens.find(key);
  if (it == number_tokens.end()) return IntStatus::kMissing;
  const std::string& token = it->second;
  std::size_t start = 0;
  if (start < token.size() && token[start] == '+') ++start;
  if (start >= token.size()) return IntStatus::kBad;
  for (std::size_t i = start; i < token.size(); ++i) {
    // Rejects '-', '.', and exponents: negative seeds must not wrap and
    // fractional values must not silently truncate.
    if (token[i] < '0' || token[i] > '9') return IntStatus::kBad;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value =
      std::strtoull(token.c_str() + start, &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    return IntStatus::kBad;
  }
  out = static_cast<std::uint64_t>(value);
  return IntStatus::kOk;
}

namespace {

/// Cursor over the request line; all helpers leave `i` on the first
/// unconsumed character.
struct Cursor {
  const std::string& text;
  std::size_t i = 0;

  void skip_ws() {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  }
  bool done() const { return i >= text.size(); }
  char peek() const { return i < text.size() ? text[i] : '\0'; }
  bool consume(char c) {
    if (peek() != c) return false;
    ++i;
    return true;
  }
};

bool parse_string(Cursor& cur, std::string& out, std::string& error) {
  if (!cur.consume('"')) {
    error = "expected string";
    return false;
  }
  out.clear();
  while (!cur.done()) {
    const char c = cur.text[cur.i++];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (cur.done()) break;
    const char esc = cur.text[cur.i++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (cur.i + 4 > cur.text.size()) {
          error = "truncated \\u escape";
          return false;
        }
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = cur.text[cur.i++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else {
            error = "bad \\u escape";
            return false;
          }
        }
        // UTF-8 encode (basic multilingual plane only; surrogate pairs are
        // not needed by the protocol and decode as two replacement-free
        // 3-byte sequences, which round-trips for our ASCII-heavy payloads).
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
        error = strfmt("bad escape '\\%c'", esc);
        return false;
    }
  }
  error = "unterminated string";
  return false;
}

bool parse_number(Cursor& cur, double& out, std::string& error) {
  const std::size_t start = cur.i;
  if (cur.peek() == '-' || cur.peek() == '+') ++cur.i;
  while (!cur.done()) {
    const char c = cur.peek();
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == 'e' ||
        c == 'E' || c == '-' || c == '+') {
      ++cur.i;
    } else {
      break;
    }
  }
  if (cur.i == start) {
    error = "expected number";
    return false;
  }
  const std::string token = cur.text.substr(start, cur.i - start);
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    error = strfmt("bad number '%s'", token.c_str());
    return false;
  }
  return true;
}

bool parse_literal(Cursor& cur, const char* literal, std::string& error) {
  for (const char* p = literal; *p != '\0'; ++p) {
    if (!cur.consume(*p)) {
      error = strfmt("expected '%s'", literal);
      return false;
    }
  }
  return true;
}

}  // namespace

bool parse_json_object(const std::string& text, JsonObject& out,
                       std::string& error) {
  out = JsonObject{};
  Cursor cur{text};
  cur.skip_ws();
  if (!cur.consume('{')) {
    error = "expected '{'";
    return false;
  }
  cur.skip_ws();
  if (cur.consume('}')) {
    cur.skip_ws();
    if (!cur.done()) {
      error = "trailing characters after object";
      return false;
    }
    return true;
  }
  while (true) {
    cur.skip_ws();
    std::string key;
    if (!parse_string(cur, key, error)) return false;
    cur.skip_ws();
    if (!cur.consume(':')) {
      error = "expected ':'";
      return false;
    }
    cur.skip_ws();
    const char c = cur.peek();
    if (c == '"') {
      std::string value;
      if (!parse_string(cur, value, error)) return false;
      out.strings[key] = value;
    } else if (c == 't') {
      if (!parse_literal(cur, "true", error)) return false;
      out.bools[key] = true;
    } else if (c == 'f') {
      if (!parse_literal(cur, "false", error)) return false;
      out.bools[key] = false;
    } else if (c == 'n') {
      if (!parse_literal(cur, "null", error)) return false;
      // Absent and null are equivalent for flat requests.
    } else if (c == '{' || c == '[') {
      error = "nested containers are not allowed in requests";
      return false;
    } else {
      const std::size_t token_start = cur.i;
      double value = 0.0;
      if (!parse_number(cur, value, error)) return false;
      out.numbers[key] = value;
      out.number_tokens[key] = text.substr(token_start, cur.i - token_start);
    }
    cur.skip_ws();
    if (cur.consume(',')) continue;
    if (cur.consume('}')) break;
    error = "expected ',' or '}'";
    return false;
  }
  cur.skip_ws();
  if (!cur.done()) {
    error = "trailing characters after object";
    return false;
  }
  return true;
}

}  // namespace lcn::service
