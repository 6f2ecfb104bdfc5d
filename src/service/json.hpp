// Minimal JSON support for the serving wire protocol (DESIGN.md §S22).
//
// The daemon speaks newline-delimited JSON; requests are *flat* objects
// (strings, numbers, booleans, null — no nested containers), which keeps the
// parser a few dozen lines of dependency-free code. Responses are emitted
// with strfmt plus json_escape; nested response fields (counters, manifests)
// are composed from fragments that are already valid JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace lcn::service {

/// Escape a string for embedding inside a JSON string literal (quotes not
/// included): ", \, control characters -> \uXXXX.
std::string json_escape(const std::string& text);

/// A parsed flat JSON object. Typed accessors fall back to the provided
/// default when the field is absent; a field parsed as the wrong type simply
/// misses (requests treat that as "use the default").
struct JsonObject {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
  /// Raw source text of each number, keyed like `numbers`. Doubles only
  /// round-trip integers up to 2^53, so exact integer fields (seeds, job
  /// ids) re-parse from here instead of casting the double.
  std::map<std::string, std::string> number_tokens;
  std::map<std::string, bool> bools;

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  double get_number(const std::string& key, double fallback = 0.0) const;
  /// Truncated toward zero; values beyond long's range saturate, NaN misses.
  long get_int(const std::string& key, long fallback = 0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  enum class IntStatus {
    kMissing,  ///< field absent (caller applies its default)
    kOk,       ///< out holds the exact value
    kBad       ///< present but negative, fractional, or > UINT64_MAX
  };
  /// Exact unsigned 64-bit integer parsed from the raw token.
  IntStatus get_uint64(const std::string& key, std::uint64_t& out) const;
};

/// Parse one flat JSON object. Returns false (with `error` set) on malformed
/// input or nested containers. Duplicate keys keep the last value.
bool parse_json_object(const std::string& text, JsonObject& out,
                       std::string& error);

}  // namespace lcn::service
