#include "scenario/scenario_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "service/json.hpp"

namespace lcn {

namespace {

using service::JsonObject;

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw RuntimeError(strfmt("scenario line %d: %s", line_no, what.c_str()));
}

/// An integer field, truncated toward zero like a C cast; a value outside
/// int's range is an error rather than an undefined conversion.
int int_field(const JsonObject& obj, const std::string& key, int fallback,
              int line_no) {
  const double value = obj.get_number(key, fallback);
  if (!(std::abs(value) < 2147483648.0)) {
    fail(line_no, "\"" + key + "\" is out of integer range");
  }
  return static_cast<int>(value);
}

std::vector<double> parse_scales(const std::string& text, int line_no) {
  std::vector<double> scales;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      std::size_t used = 0;
      const double v = std::stod(item, &used);
      while (used < item.size() && std::isspace((unsigned char)item[used])) {
        ++used;
      }
      if (used != item.size()) throw std::invalid_argument(item);
      scales.push_back(v);
    } catch (const std::exception&) {
      fail(line_no, "bad scale list \"" + text + "\"");
    }
  }
  if (scales.empty()) fail(line_no, "empty scale list");
  return scales;
}

void apply_header(const JsonObject& obj, ScenarioConfig& config,
                  int line_no) {
  const std::string model = obj.get_string("model", "2rm");
  if (model == "2rm") {
    config.sim.model = ThermalModelKind::k2RM;
  } else if (model == "4rm") {
    config.sim.model = ThermalModelKind::k4RM;
  } else {
    fail(line_no, "unknown model \"" + model + "\" (want 2rm or 4rm)");
  }
  config.sim.thermal_cell =
      int_field(obj, "cell", config.sim.thermal_cell, line_no);
  config.dt = obj.get_number("dt", config.dt);
  config.steps = int_field(obj, "steps", config.steps, line_no);
  config.rel_tolerance =
      obj.get_number("rel_tolerance", config.rel_tolerance);
  config.trace.scale = obj.get_number("scale", config.trace.scale);
  config.throttle.t_throttle =
      obj.get_number("t_throttle", config.throttle.t_throttle);
  config.throttle.t_critical =
      obj.get_number("t_critical", config.throttle.t_critical);
  config.throttle.min_scale =
      obj.get_number("min_scale", config.throttle.min_scale);
  config.cdu_enabled = obj.get_bool("cdu", false);
  CduConfig& cdu = config.cdu;
  cdu.pump.p_max = obj.get_number("pump_p_max", cdu.pump.p_max);
  cdu.pump.q_max = obj.get_number("pump_q_max", cdu.pump.q_max);
  cdu.header_loss = obj.get_number("header_loss", cdu.header_loss);
  cdu.hx_ua = obj.get_number("hx_ua", cdu.hx_ua);
  cdu.facility_flow = obj.get_number("facility_flow", cdu.facility_flow);
  cdu.facility_temperature =
      obj.get_number("facility_temperature", cdu.facility_temperature);
  cdu.facility_volumetric_heat = obj.get_number(
      "facility_volumetric_heat", cdu.facility_volumetric_heat);
  cdu.loop_volume = obj.get_number("loop_volume", cdu.loop_volume);
}

void apply_phase(const JsonObject& obj, ScenarioConfig& config, int line_no,
                 bool& schedule_seen, bool& schedule_missing) {
  config.trace.kind = TraceKind::kPhases;
  if (!obj.has("scales")) fail(line_no, "phase needs a \"scales\" list");
  PowerPhase phase;
  phase.layer_scale = parse_scales(obj.get_string("scales"), line_no);
  phase.duration = obj.get_number("duration", phase.duration);
  config.trace.phases.push_back(std::move(phase));
  if (obj.has("pressure")) {
    schedule_seen = true;
    config.pump.schedule.push_back(obj.get_number("pressure"));
  } else {
    schedule_missing = true;
  }
}

void apply_pump(const JsonObject& obj, ScenarioConfig& config, int line_no) {
  const std::string kind = obj.get_string("kind", "fixed");
  if (kind == "fixed") {
    config.pump.kind = PumpPolicyKind::kFixed;
  } else if (kind == "thermostat") {
    config.pump.kind = PumpPolicyKind::kThermostat;
  } else {
    // kSchedule is selected implicitly by "pressure" fields on phase lines.
    fail(line_no, "unknown pump kind \"" + kind +
                      "\" (want fixed or thermostat)");
  }
  PumpPolicy& pump = config.pump;
  pump.p_fixed = obj.get_number("p", pump.p_fixed);
  pump.t_target = obj.get_number("t_target", pump.t_target);
  pump.gain = obj.get_number("gain", pump.gain);
  pump.p_min = obj.get_number("p_min", pump.p_min);
  pump.p_max = obj.get_number("p_max", pump.p_max);
  pump.slew_rate = obj.get_number("slew_rate", pump.slew_rate);
}

void apply_fault(const JsonObject& obj, ScenarioConfig& config, int line_no) {
  TimedFault timed;
  timed.onset = obj.get_number("onset", 0.0);
  timed.ramp = obj.get_number("ramp", 0.0);
  Fault& fault = timed.fault;
  const std::string kind = obj.get_string("kind");
  if (kind == "blockage") {
    fault.kind = FaultKind::kChannelBlockage;
    fault.row = int_field(obj, "row", 0, line_no);
    fault.col = int_field(obj, "col", 0, line_no);
    fault.radius = int_field(obj, "radius", 1, line_no);
    fault.severity = obj.get_number("severity", 0.5);
  } else if (kind == "droop") {
    fault.kind = FaultKind::kPumpDroop;
    fault.severity = obj.get_number("severity", 0.2);
  } else if (kind == "drift") {
    fault.kind = FaultKind::kInletDrift;
    fault.magnitude = obj.get_number("magnitude", 5.0);
  } else if (kind == "excursion") {
    fault.kind = FaultKind::kPowerExcursion;
    fault.magnitude = obj.get_number("magnitude", 0.2);
    fault.layer = int_field(obj, "layer", -1, line_no);
  } else {
    fail(line_no, "unknown fault kind \"" + kind +
                      "\" (want blockage, droop, drift, or excursion)");
  }
  config.faults.push_back(std::move(timed));
}

void apply_periodic(const JsonObject& obj, ScenarioConfig& config) {
  config.trace.kind = TraceKind::kPeriodic;
  config.trace.period = obj.get_number("period", config.trace.period);
  config.trace.duty = obj.get_number("duty", config.trace.duty);
  config.trace.low = obj.get_number("low", config.trace.low);
  config.trace.high = obj.get_number("high", config.trace.high);
}

void apply_bursty(const JsonObject& obj, ScenarioConfig& config,
                  int line_no) {
  config.trace.kind = TraceKind::kBursty;
  PowerTrace& trace = config.trace;
  trace.idle_scale = obj.get_number("idle_scale", trace.idle_scale);
  trace.burst_scale = obj.get_number("burst_scale", trace.burst_scale);
  trace.mean_idle = obj.get_number("mean_idle", trace.mean_idle);
  trace.mean_burst = obj.get_number("mean_burst", trace.mean_burst);
  std::uint64_t seed = 0;
  switch (obj.get_uint64("seed", seed)) {
    case JsonObject::IntStatus::kOk:
      trace.seed = seed;
      break;
    case JsonObject::IntStatus::kMissing:
      break;
    case JsonObject::IntStatus::kBad:
      fail(line_no, "seed must be an unsigned integer");
  }
}

}  // namespace

ScenarioConfig parse_scenario_text(const std::string& text) {
  ScenarioConfig config;
  bool header_seen = false;
  bool schedule_seen = false;
  bool schedule_missing = false;
  std::stringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    JsonObject obj;
    std::string error;
    if (!service::parse_json_object(line, obj, error)) fail(line_no, error);
    const std::string type = obj.get_string("type");
    if (type == "scenario") {
      if (header_seen) fail(line_no, "duplicate scenario header");
      header_seen = true;
      apply_header(obj, config, line_no);
    } else if (!header_seen) {
      fail(line_no, "the first line must be the scenario header");
    } else if (type == "phase") {
      apply_phase(obj, config, line_no, schedule_seen, schedule_missing);
    } else if (type == "periodic") {
      apply_periodic(obj, config);
    } else if (type == "bursty") {
      apply_bursty(obj, config, line_no);
    } else if (type == "pump") {
      apply_pump(obj, config, line_no);
    } else if (type == "fault") {
      apply_fault(obj, config, line_no);
    } else {
      fail(line_no, "unknown line type \"" + type + "\"");
    }
  }
  if (!header_seen) {
    throw RuntimeError("scenario file has no scenario header line");
  }
  if (schedule_seen) {
    if (schedule_missing) {
      throw RuntimeError(
          "either every phase line carries \"pressure\" or none does");
    }
    config.pump.kind = PumpPolicyKind::kSchedule;
  }
  return config;
}

ScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open scenario file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario_text(buffer.str());
}

std::string scenario_csv_header() {
  return "step,time,phase,t_max,delta_t,power_scale,throttle_scale,"
         "p_command,p_delivered,inlet_temperature,w_pump,heat_to_coolant,"
         "cdu_supply,cdu_return";
}

std::string scenario_sample_csv(const ScenarioSample& s) {
  return strfmt("%d,%.9g,%d,%.6f,%.6f,%.6g,%.6g,%.6g,%.6g,%.4f,%.6g,%.6g,"
                "%.4f,%.4f",
                s.step, s.time, s.phase, s.t_max, s.delta_t, s.power_scale,
                s.throttle_scale, s.p_command, s.p_delivered,
                s.inlet_temperature, s.w_pump, s.heat_to_coolant,
                s.cdu_supply, s.cdu_return);
}

std::string scenario_sample_json(const ScenarioSample& s) {
  return strfmt(
      "{\"step\":%d,\"time\":%.9g,\"phase\":%d,\"t_max\":%.6f,"
      "\"delta_t\":%.6f,\"power_scale\":%.6g,\"throttle_scale\":%.6g,"
      "\"p_command\":%.6g,\"p_delivered\":%.6g,\"inlet_temperature\":%.4f,"
      "\"w_pump\":%.6g,\"heat_to_coolant\":%.6g,\"cdu_supply\":%.4f,"
      "\"cdu_return\":%.4f}",
      s.step, s.time, s.phase, s.t_max, s.delta_t, s.power_scale,
      s.throttle_scale, s.p_command, s.p_delivered, s.inlet_temperature,
      s.w_pump, s.heat_to_coolant, s.cdu_supply, s.cdu_return);
}

}  // namespace lcn
