// Randomized robustness tests: serialization round-trips on random
// networks, DRC consistency on random carvings, solver robustness on
// randomly perturbed assemblies, and the untrusted-input parsers (the
// daemon's wire protocol, problem files, scenario files) on mutated input.
// All seeds fixed for reproducibility.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "flow/flow_solver.hpp"
#include "geom/problem_io.hpp"
#include "network/design_rules.hpp"
#include "network/generators.hpp"
#include "scenario/scenario_io.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace lcn {
namespace {

/// Random blob of liquid cells grown from a boundary seed (respecting the
/// TSV keep-out), with one inlet and outlets wherever it meets the east
/// edge.
CoolingNetwork random_blob(const Grid2D& grid, Rng& rng) {
  CoolingNetwork net(grid);
  int row = 2 * static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>((grid.rows() + 1) / 2)));
  net.set_liquid(row, 0);
  net.add_port({row, 0, Side::kWest, PortKind::kInlet});
  int r = row;
  int c = 0;
  const int steps = 40 + static_cast<int>(rng.next_below(200));
  for (int i = 0; i < steps; ++i) {
    const int dir = static_cast<int>(rng.next_below(4));
    const int dr[] = {0, 0, 1, -1};
    const int dc[] = {1, -1, 0, 0};
    const int nr = r + dr[dir];
    const int nc = c + dc[dir];
    if (!grid.in_bounds(nr, nc) || is_tsv_cell(nr, nc)) continue;
    r = nr;
    c = nc;
    net.set_liquid(r, c);
  }
  // Walk east to guarantee an outlet-reaching path.
  for (int cc = c; cc < grid.cols(); ++cc) {
    if (is_tsv_cell(r, cc)) --r;  // sidestep TSVs (r even => never needed)
    net.set_liquid(r, cc);
  }
  net.add_port({r, grid.cols() - 1, Side::kEast, PortKind::kOutlet});
  return net;
}

TEST(Fuzz, SerializationRoundTripsRandomNetworks) {
  Rng rng(9001);
  const Grid2D grid(21, 21, 100e-6);
  for (int trial = 0; trial < 25; ++trial) {
    const CoolingNetwork net = random_blob(grid, rng);
    const CoolingNetwork back = CoolingNetwork::from_text(net.to_text());
    ASSERT_EQ(net, back) << "trial " << trial;
  }
}

TEST(Fuzz, TransformRoundTripsRandomNetworks) {
  Rng rng(77);
  const Grid2D grid(21, 21, 100e-6);
  for (int trial = 0; trial < 10; ++trial) {
    const CoolingNetwork net = random_blob(grid, rng);
    for (int code = 0; code < D4Transform::kCount; ++code) {
      const D4Transform t(code);
      const CoolingNetwork back =
          net.transformed(t).transformed(t.inverse());
      ASSERT_EQ(net, back) << "trial " << trial << " code " << code;
    }
  }
}

TEST(Fuzz, FlowSolverHandlesRandomConnectedBlobs) {
  Rng rng(4242);
  const Grid2D grid(21, 21, 100e-6);
  const ChannelGeometry channel{100e-6, 200e-6};
  const CoolantProperties water;
  for (int trial = 0; trial < 15; ++trial) {
    const CoolingNetwork net = random_blob(grid, rng);
    // The blob may contain pockets unreachable from ports only if the walk
    // disconnected them — it cannot (one connected walk), so flow solves.
    const FlowSolution sol = FlowSolver(net, channel, water).solve(1.0);
    EXPECT_GT(sol.system_flow, 0.0) << "trial " << trial;
    for (double p : sol.pressure) {
      ASSERT_GE(p, -1e-9);
      ASSERT_LE(p, 1.0 + 1e-9);
    }
  }
}

TEST(Fuzz, DrcCleanNetworksAlwaysFlowSolvable) {
  // Property: any network that passes DRC has a non-singular flow system.
  Rng rng(31337);
  const Grid2D grid(21, 21, 100e-6);
  const ChannelGeometry channel{100e-6, 200e-6};
  const CoolantProperties water;
  int clean_count = 0;
  for (int trial = 0; trial < 30; ++trial) {
    CoolingNetwork net = random_blob(grid, rng);
    // Randomly punch holes to provoke stagnant components.
    for (int holes = 0; holes < 6; ++holes) {
      const int r = static_cast<int>(rng.next_below(21));
      const int c = static_cast<int>(rng.next_below(21));
      net.set_solid(r, c);
    }
    // Ports may now sit on solid cells — rebuild a consistent port list.
    CoolingNetwork repaired(grid);
    for (int r = 0; r < 21; ++r) {
      for (int c = 0; c < 21; ++c) {
        if (net.is_liquid(r, c)) repaired.set_liquid(r, c);
      }
    }
    for (const Port& port : net.ports()) {
      if (repaired.is_liquid(port.row, port.col)) repaired.add_port(port);
    }
    if (!check_design_rules(repaired).ok()) continue;
    ++clean_count;
    EXPECT_NO_THROW({
      const FlowSolution sol =
          FlowSolver(repaired, channel, water).solve(1.0);
      EXPECT_GT(sol.system_flow, 0.0);
    }) << "trial " << trial;
  }
  EXPECT_GT(clean_count, 0);
}

// ------------------------------------------------------------ wire parser

/// Valid request lines, one per op and submit kind (service/protocol.hpp).
const std::vector<std::string>& wire_corpus() {
  static const std::vector<std::string> corpus = {
      R"({"op":"submit","kind":"design","case":2,"objective":"p1",)"
      R"("scale":0.05,"seed":7,"shares":2,"timeout":30,"stream":true})",
      R"({"op":"submit","kind":"evaluate","case":1,"model":"4rm",)"
      R"("b1":3,"b2":5,"direction":2,"name":"a\"b\\c\u00e9"})",
      R"({"op":"submit","kind":"sweep","case":3,"objective":"p2",)"
      R"("scenarios":16,"seed":18446744073709551615,"cell":4})",
      R"({"op":"submit","kind":"scenario","scenario":"{\"steps\":3}\n",)"
      R"("shares":1024,"timeout":1e6})",
      R"({"op":"status","job":3})",
      R"( { "op" : "result" , "job" : 12 } )",
      R"({"op":"cancel","job":1,"extra":null})",
      R"({"op":"list"})",
      R"({"op":"ping"})",
      R"({"op":"metrics"})",
      R"({"op":"shutdown"})",
  };
  return corpus;
}

/// Fixed-seed mutator: byte flips, truncations, and insertion of the
/// fragments the parser branches on (quotes, escapes, containers, huge and
/// negative numbers, duplicate keys).
std::string mutate(std::string line, Rng& rng) {
  static const char* const kFragments[] = {
      "\"", "\\", "\\u", "\\u12", "\\uZZZZ", "{", "[", "}", ",", ":",
      "1e999", "-1e999", "18446744073709551616", "-9223372036854775809",
      "99999999999999999999999999", "-1", "-0", "1.5", "+7", "1e-400",
      "--1", "1e", "nul", "tru"};
  static const char* const kKeys[] = {
      "op",    "kind",      "job",      "seed",   "case",
      "scale", "direction", "scenario", "shares", "timeout"};
  static const char* const kValues[] = {
      "\"status\"", "\"submit\"", "-3", "1e999", "18446744073709551615",
      "18446744073709551616", "0", "true", "null", "\"\\u0000\"", "[]", "{}",
      "1e300", "2147483647"};
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.next_below(line.size() + 1);
    switch (rng.next_below(4)) {
      case 0:  // byte flip
        if (!line.empty()) {
          line[pos % line.size()] ^= static_cast<char>(
              1u << rng.next_below(8));
        }
        break;
      case 1:  // truncation
        line.resize(pos);
        break;
      case 2:  // fragment insertion
        line.insert(pos, kFragments[rng.next_below(std::size(kFragments))]);
        break;
      default: {  // duplicate key, before the original or after it
        const std::string pair =
            std::string("\"") + kKeys[rng.next_below(std::size(kKeys))] +
            "\":" + kValues[rng.next_below(std::size(kValues))];
        if (rng.next_bool()) {
          const std::size_t open = line.find('{');
          if (open != std::string::npos) line.insert(open + 1, pair + ",");
        } else {
          const std::size_t close = line.rfind('}');
          if (close != std::string::npos) line.insert(close, "," + pair);
        }
        break;
      }
    }
  }
  return line;
}

/// Reference for JsonObject::get_uint64: an optional '+', then only digits,
/// and a value that fits in 64 bits.
service::JsonObject::IntStatus expected_uint64(const std::string& token,
                                               std::uint64_t& value) {
  using Status = service::JsonObject::IntStatus;
  const std::size_t start = !token.empty() && token[0] == '+' ? 1 : 0;
  if (start == token.size()) return Status::kBad;
  value = 0;
  for (std::size_t i = start; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return Status::kBad;
    const auto digit = static_cast<std::uint64_t>(token[i] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return Status::kBad;
    }
    value = value * 10 + digit;
  }
  return Status::kOk;
}

TEST(Fuzz, WireParserSurvivesMutatedRequestLines) {
  using Status = service::JsonObject::IntStatus;
  Rng rng(2024);
  const std::vector<std::string>& corpus = wire_corpus();
  for (const std::string& line : corpus) {
    service::Request request;
    std::string error;
    ASSERT_TRUE(service::parse_request(line, request, error))
        << line << ": " << error;
  }

  constexpr int kMutants = 24000;
  int objects_accepted = 0;
  int requests_accepted = 0;
  for (int trial = 0; trial < kMutants; ++trial) {
    const std::string line =
        mutate(corpus[rng.next_below(corpus.size())], rng);

    service::JsonObject obj;
    std::string error;
    if (service::parse_json_object(line, obj, error)) {
      ++objects_accepted;
      for (const auto& [key, token] : obj.number_tokens) {
        ASSERT_EQ(obj.numbers.count(key), 1u) << line;
        std::uint64_t got = 0;
        std::uint64_t want = 0;
        const Status status = obj.get_uint64(key, got);
        ASSERT_EQ(status, expected_uint64(token, want)) << line;
        if (status == Status::kOk) {
          ASSERT_EQ(got, want) << line;
        }
        // Saturating, so huge tokens (1e999 -> inf) convert without UB.
        const long as_int = obj.get_int(key);
        const double value = obj.numbers.at(key);
        if (value >= 0.0) {
          ASSERT_GE(as_int, 0) << line;
        } else if (value <= -1.0) {
          ASSERT_LT(as_int, 0) << line;
        }
      }
    } else {
      ASSERT_FALSE(error.empty()) << line;
    }

    service::Request request;
    error.clear();
    if (service::parse_request(line, request, error)) {
      ++requests_accepted;
      // An accepted submit never carries a weight or deadline the scheduler
      // cannot hold (scheduler.hpp bounds).
      ASSERT_GE(request.job.shares, 0) << line;
      ASSERT_LE(request.job.shares, service::kMaxJobShares) << line;
      ASSERT_GE(request.job.timeout_seconds, 0.0) << line;
      ASSERT_LE(request.job.timeout_seconds, service::kMaxTimeoutSeconds)
          << line;
    } else {
      ASSERT_FALSE(error.empty()) << line;
    }
  }
  // The mutator keeps a share of lines well-formed, so the accept paths
  // (and their number accessors) are exercised as well as the rejects.
  EXPECT_GT(objects_accepted, kMutants / 20);
  EXPECT_GT(requests_accepted, kMutants / 50);
}

// ---------------------------------------------- problem and scenario files

constexpr int kTextMutants = 4000;

/// Feeds `corpus`, then kTextMutants fixed-seed mutants of it, to `parse`.
/// Returning or throwing an lcn error (ContractError, RuntimeError) is fine;
/// any other escape fails the test. Returns how many mutants parsed.
template <class Parse>
int fuzz_text_parser(const std::vector<std::string>& corpus, Parse parse,
                     std::uint64_t seed) {
  auto parses = [&](const std::string& text) {
    try {
      parse(text);
      return true;
    } catch (const ContractError&) {
    } catch (const RuntimeError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << typeid(e).name() << " escaped: " << e.what()
                    << "\ninput:\n" << text;
    }
    return false;
  };
  for (const std::string& text : corpus) parses(text);
  Rng rng(seed);
  int accepted = 0;
  for (int trial = 0;
       trial < kTextMutants && !::testing::Test::HasFailure(); ++trial) {
    if (parses(mutate(corpus[rng.next_below(corpus.size())], rng))) {
      ++accepted;
    }
  }
  return accepted;
}

TEST(Fuzz, ProblemFileParsersThrowOnlyLcnErrors) {
  const std::string stack = read_text_file(LCN_DATA_DIR "/demo_stack.txt");
  const std::string after_grid =
      stack.substr(stack.find('\n', stack.find("grid")));
  // The second stack's grid is too large to allocate power maps for.
  EXPECT_GT(fuzz_text_parser(
                {stack, "grid 2000000000 2000000000 1" + after_grid},
                [](const std::string& text) { parse_stack_description(text); },
                1717),
            kTextMutants / 20);
  // The last two units' extents overflow int when added to their origin.
  const Grid2D grid(51, 51, 100e-6);
  EXPECT_GT(fuzz_text_parser(
                {read_text_file(LCN_DATA_DIR "/demo_die0.flp"),
                 read_text_file(LCN_DATA_DIR "/demo_die1.flp"),
                 "u 1 1 2147483647 1 1.0\n", "u 1 1 1 2147483647 1.0\n"},
                [&](const std::string& text) { parse_floorplan(text, grid); },
                1718),
            kTextMutants / 20);
}

TEST(Fuzz, ScenarioParserThrowsOnlyLcnErrors) {
  const std::vector<std::string> corpus = {
      "# one line of every type\n"
      R"({"type":"scenario","model":"2rm","dt":2e-3,"steps":30,"cdu":true})"
      "\n" R"({"type":"bursty","idle_scale":0.6,"seed":7})" "\n"
      R"({"type":"phase","scales":"1.0,0.5","pressure":4000})" "\n"
      R"({"type":"periodic","period":0.1,"duty":0.5})" "\n"
      R"({"type":"pump","kind":"thermostat","p":6000,"gain":800})" "\n"
      R"({"type":"fault","kind":"blockage","row":10,"col":10,"radius":2})"
      "\n",
      // Integer fields beyond int's range.
      R"({"type":"scenario","steps":1e999,"cell":-1e999})" "\n"
      R"({"type":"fault","kind":"excursion","layer":3e9})" "\n"};
  EXPECT_GT(fuzz_text_parser(
                corpus,
                [](const std::string& text) { parse_scenario_text(text); },
                2718),
            kTextMutants / 20);
}

}  // namespace
}  // namespace lcn
