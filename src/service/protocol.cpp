#include "service/protocol.hpp"

#include "common/manifest.hpp"
#include "common/strings.hpp"
#include "service/json.hpp"

namespace lcn::service {

namespace {

bool parse_submit(const JsonObject& obj, JobRequest& job, std::string& error) {
  const std::string kind = obj.get_string("kind", "evaluate");
  if (kind == "design") {
    job.kind = JobKind::kDesign;
  } else if (kind == "evaluate") {
    job.kind = JobKind::kEvaluate;
  } else if (kind == "sweep") {
    job.kind = JobKind::kSweep;
  } else if (kind == "scenario") {
    job.kind = JobKind::kScenario;
    // The NDJSON scenario description travels as one escaped string; it is
    // parsed (and validated) when the job runs.
    job.scenario_text = obj.get_string("scenario");
    if (job.scenario_text.empty()) {
      error = "scenario jobs need a non-empty 'scenario' description";
      return false;
    }
  } else {
    error = strfmt("unknown kind '%s'", kind.c_str());
    return false;
  }
  job.name = obj.get_string("name");
  job.case_id = static_cast<int>(obj.get_int("case", 2));
  if (job.case_id < 1 || job.case_id > 5) {
    error = "case must be 1..5";
    return false;
  }
  const std::string objective = obj.get_string("objective", "p1");
  if (objective == "p1") {
    job.objective = DesignObjective::kPumpingPower;
  } else if (objective == "p2") {
    job.objective = DesignObjective::kThermalGradient;
  } else {
    error = strfmt("unknown objective '%s'", objective.c_str());
    return false;
  }
  job.scale = obj.get_number("scale", job.scale);
  if (job.scale <= 0.0) {
    error = "scale must be positive";
    return false;
  }
  // Seeds are part of the reproducibility contract (the manifest records the
  // exact value), so they must not round through the parsed double.
  switch (obj.get_uint64("seed", job.seed)) {
    case JsonObject::IntStatus::kMissing: job.seed = 1; break;
    case JsonObject::IntStatus::kOk: break;
    case JsonObject::IntStatus::kBad:
      error = "seed must be a non-negative integer below 2^64";
      return false;
  }
  job.b1 = static_cast<int>(obj.get_int("b1", -1));
  job.b2 = static_cast<int>(obj.get_int("b2", -1));
  job.direction = static_cast<int>(obj.get_int("direction", 0));
  if (job.direction < 0 || job.direction > 7) {
    error = "direction must be 0..7";
    return false;
  }
  const std::string model = obj.get_string("model", "2rm");
  if (model == "2rm") {
    job.sim = SimConfig{ThermalModelKind::k2RM,
                        static_cast<int>(obj.get_int("cell", 4))};
  } else if (model == "4rm") {
    job.sim = SimConfig{ThermalModelKind::k4RM, 1};
  } else {
    error = strfmt("unknown model '%s'", model.c_str());
    return false;
  }
  job.scenarios = static_cast<int>(obj.get_int("scenarios", job.scenarios));
  if (job.scenarios < 0) {
    error = "scenarios must be non-negative";
    return false;
  }
  const long shares = obj.get_int("shares", 0);
  if (shares < 0 || shares > kMaxJobShares) {
    error = "shares must be in [0, 1024]";
    return false;
  }
  job.shares = static_cast<int>(shares);
  job.timeout_seconds = obj.get_number("timeout", 0.0);
  if (!(job.timeout_seconds >= 0.0 &&
        job.timeout_seconds <= kMaxTimeoutSeconds)) {
    error = "timeout must be in [0, 1e6] seconds";
    return false;
  }
  return true;
}

}  // namespace

bool parse_request(const std::string& line, Request& out, std::string& error) {
  out = Request{};
  JsonObject obj;
  if (!parse_json_object(line, obj, error)) return false;
  const std::string op = obj.get_string("op");
  if (op == "submit") {
    out.op = Request::Op::kSubmit;
    out.stream = obj.get_bool("stream", false);
    return parse_submit(obj, out.job, error);
  }
  if (op == "status" || op == "result" || op == "cancel") {
    out.op = op == "status"  ? Request::Op::kStatus
             : op == "result" ? Request::Op::kResult
                              : Request::Op::kCancel;
    std::uint64_t id = 0;
    if (obj.get_uint64("job", id) != JsonObject::IntStatus::kOk || id == 0) {
      error = "missing or invalid 'job'";
      return false;
    }
    out.job_id = id;
    return true;
  }
  if (op == "list") {
    out.op = Request::Op::kList;
    return true;
  }
  if (op == "ping") {
    out.op = Request::Op::kPing;
    return true;
  }
  if (op == "metrics") {
    out.op = Request::Op::kMetrics;
    return true;
  }
  if (op == "shutdown") {
    out.op = Request::Op::kShutdown;
    return true;
  }
  error = op.empty() ? "missing 'op'" : strfmt("unknown op '%s'", op.c_str());
  return false;
}

std::string error_json(const std::string& message) {
  return strfmt("{\"ok\":false,\"error\":\"%s\"}",
                json_escape(message).c_str());
}

std::string submit_ack_json(std::uint64_t id) {
  return strfmt("{\"ok\":true,\"job\":%llu,\"status\":\"queued\"}",
                static_cast<unsigned long long>(id));
}

std::string status_json(std::uint64_t id, JobStatus status) {
  return strfmt("{\"ok\":true,\"job\":%llu,\"status\":\"%s\"}",
                static_cast<unsigned long long>(id), job_status_name(status));
}

std::string result_json(std::uint64_t id, const JobResult& result) {
  std::string out = strfmt(
      "{\"ok\":true,\"job\":%llu,\"status\":\"%s\"",
      static_cast<unsigned long long>(id), job_status_name(result.status));
  if (!result.error.empty()) {
    out += strfmt(",\"error\":\"%s\"", json_escape(result.error).c_str());
  }
  if (result.status == JobStatus::kDone) {
    out += strfmt(
        ",\"feasible\":%s,\"score\":%s,\"p_sys\":%s,\"w_pump\":%s,"
        "\"t_max\":%s,\"delta_t\":%s,\"direction\":%d,"
        "\"design_hash\":\"%016llx\",\"evaluations\":%zu",
        result.feasible ? "true" : "false", json_number(result.score).c_str(),
        json_number(result.p_sys).c_str(), json_number(result.w_pump).c_str(),
        json_number(result.t_max).c_str(),
        json_number(result.delta_t).c_str(), result.direction,
        static_cast<unsigned long long>(result.design_hash),
        result.evaluations);
    if (!result.network_text.empty()) {
      out += strfmt(",\"network\":\"%s\"",
                    json_escape(result.network_text).c_str());
    }
    if (result.scenarios > 0) {
      out += strfmt(
          ",\"scenarios\":%zu,\"p_exceed_t_max\":%s,"
          "\"p_exceed_delta_t\":%s,\"unrecoverable\":%zu",
          result.scenarios, json_number(result.p_exceed_t_max).c_str(),
          json_number(result.p_exceed_delta_t).c_str(), result.unrecoverable);
    }
    if (result.scenario_steps > 0) {
      out += strfmt(
          ",\"scenario_steps\":%zu,\"peak_t_max\":%s,"
          "\"peak_delta_t\":%s,\"final_inlet\":%s",
          result.scenario_steps, json_number(result.peak_t_max).c_str(),
          json_number(result.peak_delta_t).c_str(),
          json_number(result.final_inlet).c_str());
    }
  }
  out += strfmt(",\"seconds\":%.6f,\"start_order\":%llu", result.seconds,
                static_cast<unsigned long long>(result.start_order));
  out += ",\"counters\":" + result.counters.json();
  out += ",\"metrics\":" + result.metrics.json();
  if (!result.manifest.empty()) out += ",\"manifest\":" + result.manifest;
  out += '}';
  return out;
}

std::string metrics_json(const metrics::MetricsSnapshot& metrics) {
  std::string out = "{\"ok\":true,\"metrics\":" + metrics.json();
  out += ",\"counters\":" + metrics.counters.json();
  out += ",\"manifest\":" + run_manifest().json();
  out += '}';
  return out;
}

std::string job_list_json(const std::vector<Scheduler::JobInfo>& jobs) {
  std::string out = "{\"ok\":true,\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i != 0) out += ',';
    out += strfmt("{\"job\":%llu,\"kind\":\"%s\",\"status\":\"%s\","
                  "\"name\":\"%s\"}",
                  static_cast<unsigned long long>(jobs[i].id),
                  job_kind_name(jobs[i].kind), job_status_name(jobs[i].status),
                  json_escape(jobs[i].name).c_str());
  }
  out += "]}";
  return out;
}

std::string event_json(const char* name, std::uint64_t job_id,
                       const char* args) {
  std::string out = strfmt("{\"event\":\"%s\",\"job\":%llu", name,
                           static_cast<unsigned long long>(job_id));
  if (args != nullptr && args[0] != '\0') {
    out += ",\"args\":{";
    out += args;
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace lcn::service
