#include "opt/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace lcn {

namespace {

bool finite_objectives(const ParetoPoint& p) {
  return std::isfinite(p.w_pump) && std::isfinite(p.delta_t) &&
         std::isfinite(p.t_max);
}

bool canonical_less(const ParetoPoint& a, const ParetoPoint& b) {
  if (a.w_pump != b.w_pump) return a.w_pump < b.w_pump;
  if (a.delta_t != b.delta_t) return a.delta_t < b.delta_t;
  if (a.t_max != b.t_max) return a.t_max < b.t_max;
  return a.design < b.design;
}

std::string escape_tag(const std::string& tag) {
  std::string out;
  out.reserve(tag.size());
  for (char c : tag) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool pareto_dominates(const ParetoPoint& a, const ParetoPoint& b) {
  const bool no_worse = a.w_pump <= b.w_pump && a.delta_t <= b.delta_t &&
                        a.t_max <= b.t_max;
  const bool equal = a.w_pump == b.w_pump && a.delta_t == b.delta_t &&
                     a.t_max == b.t_max;
  return no_worse && !equal;
}

ArchiveInsert ParetoArchive::insert(const ParetoPoint& point) {
  ++attempts_;
  if (!finite_objectives(point)) {
    return ArchiveInsert::kNotFinite;
  }
  for (const ParetoPoint& existing : points_) {
    if (existing.design == point.design) {
      ++duplicates_;
      return ArchiveInsert::kDuplicate;
    }
  }
  // Reject when any archived point weakly dominates the newcomer — except
  // an exact objective tie from a different design, which coexists (both
  // survive regardless of arrival order, keeping the archive order-free).
  for (const ParetoPoint& existing : points_) {
    if (pareto_dominates(existing, point)) {
      ++dominated_;
      return ArchiveInsert::kDominated;
    }
  }
  // Prune everything the newcomer strictly dominates.
  const std::size_t before = points_.size();
  points_.erase(
      std::remove_if(points_.begin(), points_.end(),
                     [&](const ParetoPoint& existing) {
                       return pareto_dominates(point, existing);
                     }),
      points_.end());
  pruned_ += before - points_.size();
  points_.push_back(point);
  ++inserted_;
  return ArchiveInsert::kInserted;
}

void ParetoArchive::clear() {
  points_.clear();
  attempts_ = inserted_ = duplicates_ = dominated_ = pruned_ = 0;
}

std::vector<ParetoPoint> ParetoArchive::sorted() const {
  std::vector<ParetoPoint> out = points_;
  std::sort(out.begin(), out.end(), canonical_less);
  return out;
}

double ParetoArchive::hypervolume(double ref_w_pump, double ref_delta_t,
                                  double ref_t_max) const {
  // Contributors must beat the reference in every objective; clip is not
  // needed because each box spans [point, reference].
  std::vector<ParetoPoint> pts;
  for (const ParetoPoint& p : points_) {
    if (p.w_pump < ref_w_pump && p.delta_t < ref_delta_t &&
        p.t_max < ref_t_max) {
      pts.push_back(p);
    }
  }
  if (pts.empty()) return 0.0;

  // Sweep t_max slabs: between consecutive t_max levels the dominated
  // cross-section is the 2D staircase of every point at or below the slab.
  std::vector<double> levels;
  levels.reserve(pts.size() + 1);
  for (const ParetoPoint& p : pts) levels.push_back(p.t_max);
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  levels.push_back(ref_t_max);

  double volume = 0.0;
  for (std::size_t s = 0; s + 1 < levels.size(); ++s) {
    const double slab = levels[s + 1] - levels[s];
    if (slab <= 0.0) continue;
    // Active set: points whose t_max is within the slab's floor.
    std::vector<ParetoPoint> active;
    for (const ParetoPoint& p : pts) {
      if (p.t_max <= levels[s]) active.push_back(p);
    }
    if (active.empty()) continue;
    std::sort(active.begin(), active.end(), canonical_less);
    // 2D staircase area w.r.t. (ref_w_pump, ref_delta_t): scanning by
    // ascending w_pump, each point extends the area left of the next kept
    // point by its own delta_t headroom.
    double area = 0.0;
    double best_dt = ref_delta_t;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (active[i].delta_t >= best_dt) continue;  // 2D-dominated in slab
      double next_w = ref_w_pump;
      for (std::size_t j = i + 1; j < active.size(); ++j) {
        if (active[j].delta_t < active[i].delta_t) {
          next_w = active[j].w_pump;
          break;
        }
      }
      area += (next_w - active[i].w_pump) * (ref_delta_t - active[i].delta_t);
      best_dt = active[i].delta_t;
    }
    volume += slab * area;
  }
  return volume;
}

std::string ParetoArchive::to_jsonl() const {
  std::string out;
  for (const ParetoPoint& p : sorted()) {
    out += strfmt(
        "{\"design\":%llu,\"w_pump\":%.17g,\"delta_t\":%.17g,"
        "\"t_max\":%.17g,\"p_sys\":%.17g,\"tag\":\"%s\"}\n",
        static_cast<unsigned long long>(p.design), p.w_pump, p.delta_t,
        p.t_max, p.p_sys, escape_tag(p.tag).c_str());
  }
  return out;
}

void ParetoArchive::save_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw RuntimeError("cannot open pareto snapshot: " + path);
  out << to_jsonl();
  out.flush();
  if (!out) throw RuntimeError("failed writing pareto snapshot: " + path);
}

}  // namespace lcn
