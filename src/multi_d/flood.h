#ifndef LIDX_MULTI_D_FLOOD_H_
#define LIDX_MULTI_D_FLOOD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/search.h"
#include "models/pla_locator.h"
#include "spatial/geometry.h"

namespace lidx {

// Flood-style learned multi-dimensional grid (Nathan et al., SIGMOD 2020):
// the canonical *native-space* learned index (tutorial §5.2, Approach 4).
// One dimension (y here) is the sort dimension; the other is partitioned
// into columns whose boundaries are learned from the data's x-CDF
// (equi-depth, so skew cannot starve or flood a column). Inside a column,
// points are sorted by y with an ε-bounded learned model predicting
// positions. Interior columns of a range query need no x-filtering — only
// the two edge columns do — which is where the layout beats a uniform grid.
// The column count is tuned with a cost model over a sample workload
// (Flood's self-tuning step).
//
// Taxonomy position: multi-dimensional / immutable / pure / native space.
class FloodIndex {
 public:
  struct Options {
    size_t num_columns = 0;  // 0 = tune from the workload sample.
    size_t epsilon = 32;     // Per-column model error bound.
    // Candidates considered when tuning.
    std::vector<size_t> tuning_candidates = {16, 32, 64, 128, 256, 512};
    // Threads for Build: the x-CDF sort and the per-column work (y-sort +
    // ε-model) parallelize; the scatter into columns stays serial to
    // preserve point order. The built index is byte-identical for every
    // thread count. 1 = fully serial.
    size_t build_threads = 1;
  };

  FloodIndex() = default;

  // `sample_queries` drives column-count tuning; pass empty to use the
  // default column count (64).
  void Build(const std::vector<Point2D>& points,
             const std::vector<RangeQuery2D>& sample_queries = {}) {
    Build(points, sample_queries, Options());
  }

  void Build(const std::vector<Point2D>& points,
             const std::vector<RangeQuery2D>& sample_queries,
             const Options& options) {
    options_ = options;
    points_.clear();
    if (points.empty()) {
      columns_.clear();
      return;
    }
    size_t columns = options.num_columns;
    if (columns == 0) {
      columns = sample_queries.empty()
                    ? 64
                    : TuneColumns(points, sample_queries,
                                  options.tuning_candidates);
    }
    BuildWithColumns(points, columns);
  }

  std::vector<uint32_t> FindExact(const Point2D& p) const {
    std::vector<uint32_t> out;
    if (columns_.empty()) return out;
    const Column& col = columns_[ColumnOf(p.x)];
    const size_t lb = col.locator.LowerBound(col.ys, p.y);
    for (size_t i = lb; i < col.entries.size() && col.entries[i].point.y == p.y;
         ++i) {
      if (col.entries[i].point == p) out.push_back(col.entries[i].id);
    }
    return out;
  }

  std::vector<uint32_t> RangeQuery(const RangeQuery2D& q) const {
    std::vector<uint32_t> out;
    if (columns_.empty()) return out;
    const size_t c_lo = ColumnOf(q.min_x);
    const size_t c_hi = ColumnOf(q.max_x);
    for (size_t c = c_lo; c <= c_hi; ++c) {
      const Column& col = columns_[c];
      if (col.entries.empty()) continue;
      const bool interior = (c > c_lo && c < c_hi);
      const size_t begin = col.locator.LowerBound(col.ys, q.min_y);
      for (size_t i = begin; i < col.entries.size(); ++i) {
        const Point2D& p = col.entries[i].point;
        if (p.y > q.max_y) break;
        // Interior columns are fully covered in x: skip the x test.
        if (interior || (p.x >= q.min_x && p.x <= q.max_x)) {
          out.push_back(col.entries[i].id);
        }
      }
    }
    return out;
  }

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  size_t NumColumns() const { return columns_.size(); }
  // Segments in column `c`'s model; 0 for a column too small to carry one.
  size_t NumSegments(size_t c) const {
    return columns_[c].locator.NumSegments();
  }

  size_t ModelSizeBytes() const {
    size_t total = sizeof(*this) +
                   column_boundaries_.capacity() * sizeof(double);
    for (const Column& c : columns_) total += c.locator.SizeBytes();
    return total;
  }

  size_t SizeBytes() const {
    size_t total = ModelSizeBytes();
    for (const Column& c : columns_) {
      total += c.entries.capacity() * sizeof(Entry) +
               c.ys.capacity() * sizeof(double);
    }
    return total;
  }

 private:
  struct Entry {
    Point2D point;
    uint32_t id;
  };

  struct Column {
    std::vector<Entry> entries;  // Sorted by y.
    std::vector<double> ys;      // Parallel y array for search.
    PlaLocator locator;          // Empty below 32 rows: binary search.
  };

  void BuildWithColumns(const std::vector<Point2D>& points, size_t columns) {
    const size_t threads = options_.build_threads;
    points_ = points;
    columns_.assign(columns, Column{});
    column_boundaries_.clear();

    // Learned x-CDF as equi-depth boundaries. Doubles with duplicates sort
    // to the same sequence under any thread count (content equality is all
    // the rank probes below read).
    std::vector<double> xs(points.size());
    ParallelForIndex(threads, points.size(),
                     [&](size_t i) { xs[i] = points[i].x; });
    ParallelSort(threads, &xs);
    column_boundaries_.reserve(columns);
    for (size_t c = 0; c < columns; ++c) {
      const size_t rank = c * xs.size() / columns;
      column_boundaries_.push_back(xs[rank]);
    }

    // Column routing parallelizes; the scatter itself stays serial so each
    // column receives its points in point order, exactly as the serial
    // build does.
    std::vector<uint32_t> col_of(points.size());
    ParallelForIndex(threads, points.size(), [&](size_t i) {
      col_of[i] = static_cast<uint32_t>(ColumnOf(points[i].x));
    });
    for (uint32_t i = 0; i < points.size(); ++i) {
      columns_[col_of[i]].entries.push_back(
          {points[i], i});
    }
    // Columns are independent: y-sort + model build fan out per column.
    ParallelForIndex(threads, columns_.size(), [&](size_t c) {
      Column& col = columns_[c];
      std::sort(col.entries.begin(), col.entries.end(),
                [](const Entry& a, const Entry& b) {
                  if (a.point.y != b.point.y) return a.point.y < b.point.y;
                  return a.id < b.id;
                });
      col.ys.reserve(col.entries.size());
      for (const Entry& e : col.entries) col.ys.push_back(e.point.y);
      // ε-bounded model over the (dedup-fed) y array.
      if (col.ys.size() >= 32) {
        col.locator.Build(col.ys, options_.epsilon, /*threads=*/1);
      }
    });
  }

  // Column of x: last boundary <= x.
  size_t ColumnOf(double x) const {
    const size_t lb = BinarySearchLowerBound(column_boundaries_, x, 0,
                                             column_boundaries_.size());
    if (lb < column_boundaries_.size() && column_boundaries_[lb] == x) {
      return lb;
    }
    return lb == 0 ? 0 : lb - 1;
  }

  // Cost-model tuning: counts entries touched per candidate column count on
  // the sample workload (scanned rows in touched columns + a fixed
  // per-column probe charge) and keeps the cheapest.
  size_t TuneColumns(const std::vector<Point2D>& points,
                     const std::vector<RangeQuery2D>& queries,
                     const std::vector<size_t>& candidates) {
    size_t best_columns = 64;
    double best_cost = -1.0;
    for (size_t candidate : candidates) {
      if (candidate > points.size()) continue;
      BuildWithColumns(points, candidate);
      constexpr double kPerColumnProbeCost = 24.0;  // Model + search charge.
      double cost = 0.0;
      for (const RangeQuery2D& q : queries) {
        const size_t c_lo = ColumnOf(q.min_x);
        const size_t c_hi = ColumnOf(q.max_x);
        cost += kPerColumnProbeCost * static_cast<double>(c_hi - c_lo + 1);
        for (size_t c = c_lo; c <= c_hi; ++c) {
          const Column& col = columns_[c];
          if (col.entries.empty()) continue;
          const size_t begin = col.locator.LowerBound(col.ys, q.min_y);
          size_t i = begin;
          while (i < col.entries.size() && col.entries[i].point.y <= q.max_y) {
            ++i;
          }
          cost += static_cast<double>(i - begin);
        }
      }
      if (best_cost < 0.0 || cost < best_cost) {
        best_cost = cost;
        best_columns = candidate;
      }
    }
    return best_columns;
  }

  Options options_;
  std::vector<Point2D> points_;
  std::vector<Column> columns_;
  std::vector<double> column_boundaries_;
};

}  // namespace lidx

#endif  // LIDX_MULTI_D_FLOOD_H_
