#include "common/manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/env.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

// Build configuration baked in by src/CMakeLists.txt; default for unity /
// out-of-tree compiles of this file.
#ifndef LCN_BUILD_TYPE
#define LCN_BUILD_TYPE "unknown"
#endif
#ifndef LCN_SANITIZE_CFG
#define LCN_SANITIZE_CFG ""
#endif

namespace lcn {

namespace {

/// First line of `cmd`, trimmed; "" on any failure (no git, not a repo).
std::string command_line_output(const char* cmd) {
  std::FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return "";
  char buffer[256];
  std::string out;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out = buffer;
  const int status = ::pclose(pipe);
  if (status != 0) return "";
  return std::string(trim(out));
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out += c;
  }
  return out;
}

RunManifest build_manifest() {
  RunManifest m;
  m.git_sha =
      command_line_output("git describe --always --dirty --abbrev=12 2>/dev/null");
  if (m.git_sha.empty()) m.git_sha = "unknown";
  m.build_type = LCN_BUILD_TYPE;
  m.sanitizer = LCN_SANITIZE_CFG;
  m.compiler = __VERSION__;
  m.lcn_threads =
      static_cast<long>(parse_pool_threads(std::getenv("LCN_THREADS")));
  m.hardware_threads =
      static_cast<long>(std::thread::hardware_concurrency());
  m.trace_path = env_string("LCN_TRACE", "");
  m.trace_level = m.trace_path.empty() ? 0 : trace::level();
  return m;
}

}  // namespace

std::string RunManifest::json() const {
  return strfmt(
      "{\"git_sha\":\"%s\",\"build_type\":\"%s\",\"sanitizer\":\"%s\","
      "\"compiler\":\"%s\",\"lcn_threads\":%ld,\"hardware_threads\":%ld,"
      "\"trace\":\"%s\",\"trace_level\":%ld}",
      json_escape(git_sha).c_str(), json_escape(build_type).c_str(),
      json_escape(sanitizer).c_str(), json_escape(compiler).c_str(),
      lcn_threads, hardware_threads, json_escape(trace_path).c_str(),
      trace_level);
}

const RunManifest& run_manifest() {
  static const RunManifest manifest = build_manifest();
  return manifest;
}

}  // namespace lcn
