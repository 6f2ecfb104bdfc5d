// Tests for the Pareto archive (DESIGN.md §S21): dominance semantics,
// insertion-order independence, content-hash dedup, hypervolume, and the
// exact JSONL snapshot format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "opt/pareto.hpp"

namespace lcn {
namespace {

ParetoPoint point(std::uint64_t design, double w, double dt, double tmax,
                  double p_sys = 1000.0, const std::string& tag = "t") {
  ParetoPoint p;
  p.design = design;
  p.w_pump = w;
  p.delta_t = dt;
  p.t_max = tmax;
  p.p_sys = p_sys;
  p.tag = tag;
  return p;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(ParetoDominance, StrictDominanceNeedsOneStrictImprovement) {
  const ParetoPoint a = point(1, 1.0, 2.0, 3.0);
  EXPECT_FALSE(pareto_dominates(a, a));  // equal objectives: no dominance
  EXPECT_TRUE(pareto_dominates(a, point(2, 1.0, 2.0, 3.5)));
  EXPECT_TRUE(pareto_dominates(a, point(2, 2.0, 3.0, 4.0)));
  EXPECT_FALSE(pareto_dominates(point(2, 1.0, 2.0, 3.5), a));
  // Trade-offs dominate in neither direction.
  EXPECT_FALSE(pareto_dominates(a, point(2, 0.5, 9.0, 3.0)));
  EXPECT_FALSE(pareto_dominates(point(2, 0.5, 9.0, 3.0), a));
}

TEST(ParetoArchive, InsertClassifiesAndCounts) {
  ParetoArchive archive;
  EXPECT_EQ(archive.insert(point(1, 2.0, 2.0, 2.0)), ArchiveInsert::kInserted);
  EXPECT_EQ(archive.insert(point(1, 9.0, 9.0, 9.0)),
            ArchiveInsert::kDuplicate);  // same design hash, values ignored
  EXPECT_EQ(archive.insert(point(2, 3.0, 3.0, 3.0)),
            ArchiveInsert::kDominated);
  EXPECT_EQ(archive.insert(point(3, 1.0, 1.0, 1.0)), ArchiveInsert::kInserted);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(archive.insert(point(4, inf, 1.0, 1.0)),
            ArchiveInsert::kNotFinite);
  ASSERT_EQ(archive.size(), 1u);  // design 3 pruned design 1
  EXPECT_EQ(archive.points().front().design, 3u);
  EXPECT_EQ(archive.attempts(), 5u);
  EXPECT_EQ(archive.inserted(), 2u);
  EXPECT_EQ(archive.duplicates(), 1u);
  EXPECT_EQ(archive.dominated(), 1u);
  EXPECT_EQ(archive.pruned(), 1u);
}

TEST(ParetoArchive, ObjectiveTiesFromDistinctDesignsCoexist) {
  ParetoArchive archive;
  EXPECT_EQ(archive.insert(point(1, 1.0, 2.0, 3.0)), ArchiveInsert::kInserted);
  EXPECT_EQ(archive.insert(point(2, 1.0, 2.0, 3.0)), ArchiveInsert::kInserted);
  EXPECT_EQ(archive.size(), 2u);
  // A strictly better point prunes both ties at once.
  EXPECT_EQ(archive.insert(point(3, 1.0, 2.0, 2.0)), ArchiveInsert::kInserted);
  ASSERT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.pruned(), 2u);
}

TEST(ParetoArchive, FrontierIsInsertionOrderIndependent) {
  // A mix of dominated, dominating, tied and trade-off points; every
  // permutation of arrival must converge to the same surviving set.
  std::vector<ParetoPoint> pts = {
      point(1, 5.0, 5.0, 5.0), point(2, 1.0, 9.0, 5.0),
      point(3, 9.0, 1.0, 5.0), point(4, 5.0, 5.0, 5.0),
      point(5, 6.0, 6.0, 6.0),  // dominated by 1 and 4
      point(6, 1.0, 9.0, 4.0),  // dominates nobody, beats 2 on t_max
  };
  std::sort(pts.begin(), pts.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              return a.design < b.design;
            });
  std::string reference;
  int permutations = 0;
  do {
    ParetoArchive archive;
    for (const ParetoPoint& p : pts) archive.insert(p);
    const std::string frontier = archive.to_jsonl();
    if (reference.empty()) {
      reference = frontier;
    } else {
      ASSERT_EQ(frontier, reference) << "permutation " << permutations;
    }
    ++permutations;
  } while (std::next_permutation(
      pts.begin(), pts.end(), [](const ParetoPoint& a, const ParetoPoint& b) {
        return a.design < b.design;
      }));
  EXPECT_EQ(permutations, 720);
}

TEST(ParetoArchive, NoDominatedPointSurvives) {
  // Deterministic pseudo-random cloud; after all insertions the surviving
  // set must be mutually non-dominating and every rejected point must be
  // dominated by (or tie) some survivor.
  std::vector<ParetoPoint> pts;
  std::uint64_t x = 88172645463325252ull;
  auto rnd = [&x]() {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x % 1000u) / 100.0;
  };
  for (std::uint64_t d = 1; d <= 200; ++d) {
    pts.push_back(point(d, rnd(), rnd(), rnd()));
  }
  ParetoArchive archive;
  for (const ParetoPoint& p : pts) archive.insert(p);
  const std::vector<ParetoPoint>& front = archive.points();
  ASSERT_FALSE(front.empty());
  for (const ParetoPoint& a : front) {
    for (const ParetoPoint& b : front) {
      EXPECT_FALSE(pareto_dominates(a, b))
          << a.design << " dominates " << b.design;
    }
  }
  for (const ParetoPoint& p : pts) {
    const bool survived =
        std::any_of(front.begin(), front.end(), [&](const ParetoPoint& f) {
          return f.design == p.design;
        });
    if (survived) continue;
    const bool covered =
        std::any_of(front.begin(), front.end(), [&](const ParetoPoint& f) {
          return pareto_dominates(f, p) ||
                 (f.w_pump == p.w_pump && f.delta_t == p.delta_t &&
                  f.t_max == p.t_max);
        });
    EXPECT_TRUE(covered) << "design " << p.design
                         << " rejected but not dominated";
  }
}

TEST(ParetoArchive, HypervolumeMatchesHandComputedStaircase) {
  // Single t_max level: 2D staircase of (1,5), (2,3), (5,1) w.r.t. (10,10)
  // has area 5 + 21 + 45 = 71; the slab [1, 2) gives it thickness 1.
  ParetoArchive archive;
  archive.insert(point(1, 1.0, 5.0, 1.0));
  archive.insert(point(2, 2.0, 3.0, 1.0));
  archive.insert(point(3, 5.0, 1.0, 1.0));
  EXPECT_NEAR(archive.hypervolume(10.0, 10.0, 2.0), 71.0, 1e-12);

  // A point entering at t_max = 1.5 splits the sweep into two slabs:
  // 0.5 * 71 + 0.5 * (71 + the newcomer's extra 2x0.5 strip).
  archive.insert(point(4, 0.5, 8.0, 1.5));
  EXPECT_NEAR(archive.hypervolume(10.0, 10.0, 2.0), 71.5, 1e-12);

  // Points at or beyond the reference contribute nothing.
  archive.insert(point(5, 10.0, 0.5, 1.0));
  EXPECT_NEAR(archive.hypervolume(10.0, 10.0, 2.0), 71.5, 1e-12);
  EXPECT_EQ(archive.hypervolume(0.4, 10.0, 2.0), 0.0);
  EXPECT_EQ(ParetoArchive().hypervolume(1.0, 1.0, 1.0), 0.0);
}

TEST(ParetoArchive, HypervolumeGrowsWithFrontier) {
  ParetoArchive archive;
  archive.insert(point(1, 4.0, 4.0, 4.0));
  const double before = archive.hypervolume(10.0, 10.0, 10.0);
  archive.insert(point(2, 1.0, 8.0, 8.0));  // new trade-off corner
  const double after = archive.hypervolume(10.0, 10.0, 10.0);
  EXPECT_GT(before, 0.0);
  EXPECT_GT(after, before);
}

/// The number printed after `"key":` in a to_jsonl() line.
double number_after(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

TEST(ParetoArchive, JsonlRoundTripIsExact) {
  ParetoArchive archive;
  // Awkward doubles (non-terminating binary fractions, subnormal-ish
  // magnitudes) and a tag needing escapes.
  ParetoPoint a = point(0xDEADBEEFCAFEBABEull, 1.0 / 3.0, 2.0 / 7.0,
                        313.15000000000003, 4321.000000000001);
  a.tag = "island2/\"s1\"\\coarse\nline2";
  ParetoPoint b = point(7, 1e-300, 6.02e23, 1.0 + 1e-15, 0.1);
  ASSERT_EQ(archive.insert(a), ArchiveInsert::kInserted);
  ASSERT_EQ(archive.insert(b), ArchiveInsert::kInserted);

  // One line per point in canonical order; %.17g reads back bit-exactly.
  const std::string text = archive.to_jsonl();
  const std::size_t split = text.find('\n');
  ASSERT_NE(split, std::string::npos);
  ASSERT_EQ(text.back(), '\n');
  const std::vector<std::string> lines = {
      text.substr(0, split), text.substr(split + 1, text.size() - split - 2)};
  const std::vector<ParetoPoint> want = archive.sorted();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string& line = lines[i];
    EXPECT_EQ(std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10),
              want[i].design);
    EXPECT_EQ(number_after(line, "w_pump"), want[i].w_pump);  // not NEAR
    EXPECT_EQ(number_after(line, "delta_t"), want[i].delta_t);
    EXPECT_EQ(number_after(line, "t_max"), want[i].t_max);
    EXPECT_EQ(number_after(line, "p_sys"), want[i].p_sys);
  }
  EXPECT_EQ(want[0].design, 7u);
  EXPECT_NE(lines[1].find(
                "\"tag\":\"island2/\\\"s1\\\"\\\\coarse\\nline2\"}"),
            std::string::npos)
      << lines[1];

  // save_jsonl writes exactly to_jsonl().
  const std::string path = temp_path("pareto_roundtrip.jsonl");
  archive.save_jsonl(path);
  std::ifstream in(path);
  const std::string saved((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(saved, text);
  std::remove(path.c_str());
}

TEST(ParetoArchive, ClearResetsPointsAndCounters) {
  ParetoArchive archive;
  archive.insert(point(1, 1.0, 1.0, 1.0));
  archive.insert(point(1, 1.0, 1.0, 1.0));
  archive.clear();
  EXPECT_TRUE(archive.empty());
  EXPECT_EQ(archive.attempts(), 0u);
  EXPECT_EQ(archive.inserted(), 0u);
  EXPECT_EQ(archive.duplicates(), 0u);
}

}  // namespace
}  // namespace lcn
