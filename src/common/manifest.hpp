// Run provenance manifest (DESIGN.md §S19).
//
// Every machine-readable output — trace sinks (common/trace), the Prometheus
// labels (common/metrics) and the daemon's metrics op — is stamped with the
// same manifest so records from different commits, thread counts and build
// configurations stay comparable. Fields that cannot be determined degrade to
// "unknown" (e.g. git outside a work tree) so downstream JSON consumers keep
// parsing.
#pragma once

#include <string>

namespace lcn {

struct RunManifest {
  std::string git_sha;    ///< `git describe --always --dirty`, or "unknown"
  std::string build_type; ///< CMAKE_BUILD_TYPE baked in at compile time
  std::string sanitizer;  ///< LCN_SANITIZE value, "" when off
  std::string compiler;   ///< __VERSION__
  long lcn_threads = 0;   ///< LCN_THREADS env (0 = hardware default)
  long hardware_threads = 0;
  std::string trace_path; ///< LCN_TRACE sink, "" when tracing is off
  long trace_level = 0;

  /// Flat JSON object, e.g. {"git_sha":"abc123","build_type":"Release",...}.
  std::string json() const;
};

/// The process manifest, computed once on first use (the git lookup shells
/// out) and stable for the life of the process. Throws RuntimeError naming
/// LCN_THREADS when it is malformed, as the thread pool does.
const RunManifest& run_manifest();

}  // namespace lcn
