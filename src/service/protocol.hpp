// Newline-delimited JSON wire protocol for lcn_serve (DESIGN.md §S22).
//
// Requests are flat JSON objects, one per line:
//   {"op":"submit","kind":"design","case":2,"objective":"p1","scale":0.05,
//    "seed":7,"shares":2,"timeout":30,"stream":true}
//   {"op":"status","job":3}   {"op":"result","job":3}   {"op":"cancel","job":3}
//   {"op":"list"}   {"op":"ping"}   {"op":"metrics"}   {"op":"shutdown"}
//
// A submit's "shares" (fair-share weight, 0 weighs 1) must lie in [0, 1024]
// and its "timeout" (seconds, 0 = none) in [0, 1e6]; a value outside is
// rejected with an error naming the field. Queued jobs start in submission
// order. Keys the parser does not know are ignored.
//
// Responses are one JSON object per line with "ok":true|false. A streaming
// submit additionally receives "event" lines ({"event":"sa_iter",...},
// {"event":"job_done",...}) interleaved on the same connection.
#pragma once

#include <cstdint>
#include <string>

#include "service/scheduler.hpp"

namespace lcn::service {

struct Request {
  enum class Op : std::uint8_t {
    kSubmit = 0,
    kStatus = 1,
    kResult = 2,
    kCancel = 3,
    kList = 4,
    kPing = 5,
    kShutdown = 6,
    kMetrics = 7
  };

  Op op = Op::kPing;
  JobRequest job;           ///< kSubmit payload
  bool stream = false;      ///< kSubmit: stream progress events
  std::uint64_t job_id = 0; ///< kStatus / kResult / kCancel target
};

/// Parse one request line. Returns false with `error` set on malformed JSON,
/// unknown op, or out-of-range fields.
bool parse_request(const std::string& line, Request& out, std::string& error);

/// {"ok":false,"error":"..."}
std::string error_json(const std::string& message);

/// {"ok":true,"job":N,"status":"queued"} — submit acknowledgment.
std::string submit_ack_json(std::uint64_t id);

/// {"ok":true,"job":N,"status":"..."}
std::string status_json(std::uint64_t id, JobStatus status);

/// Full result object: scores, sweep stats, per-session counters and the
/// session manifest as nested objects.
std::string result_json(std::uint64_t id, const JobResult& result);

/// {"ok":true,"jobs":[{"job":1,"kind":"design","status":"running",...},...]}
/// (the one response with a nested array; clients treat it as opaque JSON).
std::string job_list_json(const std::vector<Scheduler::JobInfo>& jobs);

/// {"event":"<name>","job":N,<args>} — progress stream line.
std::string event_json(const char* name, std::uint64_t job_id,
                       const char* args);

/// {"ok":true,"metrics":{...},"counters":{...},"manifest":{...}} — one
/// snapshot of the process-wide telemetry registry (§S24) and the run
/// manifest for the `metrics` op. The top-level "counters" repeats
/// metrics.counters for clients that read counters there.
std::string metrics_json(const metrics::MetricsSnapshot& metrics);

}  // namespace lcn::service
