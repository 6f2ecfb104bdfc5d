// Shared helpers and the experiment entry points of the `reproduce` binary
// (EXPERIMENTS.md). Each experiment prints its paper-style rows; workload
// scale is tuned with environment knobs so the suite finishes on a
// laptop-class machine:
//   LCN_SA_SCALE   multiplies SA iteration counts (default 0.25; the paper's
//                  80-core schedule corresponds to ~1.0)
//   LCN_CASES      comma-separated ICCAD case ids 1-5 to run (default depends
//                  on the experiment); a malformed or empty list is a usage
//                  error
//   LCN_FAST       =1 shrinks every experiment to a smoke run
//   LCN_NO_CSV     =1 suppresses CSV side outputs (default: written to
//                  ./bench_results/)
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.hpp"

namespace lcn::reproduce {

/// Bad command line or knob value; `reproduce` prints it and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// SA iteration scale: 0.08 under LCN_FAST, else LCN_SA_SCALE or `fallback`.
double sa_scale(double fallback = 0.25);

/// Case ids from LCN_CASES (or `fallback` when unset). Throws UsageError on
/// a token that is not an integer in 1-5, or when no id is left.
std::vector<int> case_ids(const std::string& fallback);

/// Write `csv` to bench_results/<name> unless LCN_NO_CSV is set
/// (best-effort: IO failures are ignored).
void maybe_save_csv(const CsvWriter& csv, const std::string& name);

void banner(const std::string& title, const std::string& paper_ref);

// One function per subcommand; each returns the process exit status.
int table2();
int fig2();
int fig5_6();
int fig9();
int table3();
int table4();
int fig10();
int ablation();
int algorithm3();
int pareto();
int islands();

}  // namespace lcn::reproduce
