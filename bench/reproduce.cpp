// `reproduce <experiment>`: regenerates one table or figure of the paper's
// evaluation (EXPERIMENTS.md), or every one in order with `all`.
#include "reproduce.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "common/env.hpp"
#include "common/strings.hpp"

namespace lcn::reproduce {

double sa_scale(double fallback) {
  if (env_flag("LCN_FAST")) return 0.08;
  return env_double("LCN_SA_SCALE", fallback);
}

std::vector<int> case_ids(const std::string& fallback) {
  const std::string raw = env_string("LCN_CASES", fallback);
  std::vector<int> ids;
  for (const std::string& field : split(raw, ',')) {
    const std::string_view token = trim(field);
    if (token.empty()) continue;
    int id = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), id);
    if (ec != std::errc{} || end != token.data() + token.size() || id < 1 ||
        id > 5) {
      throw UsageError("LCN_CASES: `" + std::string(token) +
                       "` is not a case id in 1-5");
    }
    ids.push_back(id);
  }
  if (ids.empty()) throw UsageError("LCN_CASES: no case id in `" + raw + "`");
  return ids;
}

void maybe_save_csv(const CsvWriter& csv, const std::string& name) {
  if (env_flag("LCN_NO_CSV")) return;
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) return;
  try {
    csv.save("bench_results/" + name);
    std::printf("  [csv: bench_results/%s]\n", name.c_str());
  } catch (...) {
    // CSV side outputs are best-effort.
  }
}

void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

namespace {

struct Experiment {
  const char* name;
  int (*run)();
  const char* what;
};

constexpr Experiment kExperiments[] = {
    {"table2", table2, "Table 2: benchmark statistics"},
    {"fig2", fig2, "Fig. 2(c): pressure and flow distribution"},
    {"fig5_6", fig5_6, "Figs. 5-6: temperatures and dT vs P_sys"},
    {"fig9", fig9, "Fig. 9: 2RM accuracy and speed-up vs 4RM"},
    {"table3", table3, "Table 3: pumping-power minimization (Problem 1)"},
    {"table4", table4, "Table 4: thermal-gradient minimization (Problem 2)"},
    {"fig10", fig10, "Fig. 10: source-layer temperature maps"},
    {"ablation", ablation, "design-choice ablations"},
    {"algorithm3", algorithm3, "Algorithm 3 probe efficiency"},
    {"pareto", pareto, "dT vs pumping-power trade-off frontier"},
    {"islands", islands, "island SA vs one chain (self-checking)"},
};

int usage() {
  std::fprintf(stderr, "usage: reproduce <experiment>\n\nexperiments:\n");
  for (const Experiment& e : kExperiments) {
    std::fprintf(stderr, "  %-11s %s\n", e.name, e.what);
  }
  std::fprintf(stderr, "  %-11s every experiment above, in order\n", "all");
  return 2;
}

int run(const Experiment& e) {
  try {
    return e.run();
  } catch (const UsageError& error) {
    std::fprintf(stderr, "reproduce %s: %s\n", e.name, error.what());
    return 2;
  }
}

}  // namespace

}  // namespace lcn::reproduce

int main(int argc, char** argv) {
  using namespace lcn::reproduce;
  if (argc != 2) return usage();
  const std::string_view name = argv[1];
  if (name == "all") {
    int status = 0;
    for (const Experiment& e : kExperiments) {
      const int code = run(e);
      if (code == 2) return code;
      if (code != 0) status = 1;
      std::printf("\n");
    }
    return status;
  }
  for (const Experiment& e : kExperiments) {
    if (name == e.name) return run(e);
  }
  std::fprintf(stderr, "reproduce: unknown experiment `%s`\n\n", argv[1]);
  return usage();
}
