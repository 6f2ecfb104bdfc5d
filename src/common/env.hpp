// Environment-variable knobs used to scale bench workloads without editing
// code (e.g. LCN_SA_SCALE=2 doubles SA iteration counts, LCN_FAST=1 shrinks
// everything for smoke runs).
#pragma once

#include <string>

namespace lcn {

/// Integer env var with default; malformed values fall back to the default.
long env_int(const char* name, long fallback);

/// Strict parse of integer knob `name`'s value `raw` (e.g. getenv(name)):
/// null and empty mean `fallback`; anything but a decimal integer in
/// [lo, hi] throws RuntimeError naming `name`.
long parse_env_int(const char* name, const char* raw, long fallback, long lo,
                   long hi);

/// Floating-point env var with default.
double env_double(const char* name, double fallback);

/// Boolean env var: unset/"0"/"false"/"off" => false, anything else => true.
bool env_flag(const char* name, bool fallback = false);

/// String env var with default.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace lcn
