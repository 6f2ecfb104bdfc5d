// Small string helpers shared by serializers and the bench harness.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lcn {

std::vector<std::string> split(std::string_view text, char sep);
std::string_view trim(std::string_view text);
bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// `value` as a JSON number with `digits` significant digits (`%.*g`), or
/// `null` when it is ±inf or NaN, which JSON cannot represent (an infeasible
/// design scores +inf).
std::string json_number(double value, int digits = 17);

}  // namespace lcn
