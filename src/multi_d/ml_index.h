#ifndef LIDX_MULTI_D_ML_INDEX_H_
#define LIDX_MULTI_D_ML_INDEX_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "models/pla_locator.h"
#include "spatial/geometry.h"

namespace lidx {

// ML-index (Davitkova et al., EDBT 2020): an iDistance-style projected
// learned index supporting point, range, AND kNN queries — the tutorial
// singles it out because most learned multi-dimensional indexes only cover
// point/range (§5.6). K reference points (k-means on a sample) partition
// the data; each point projects to the scalar key
//     key = partition_id * kPartitionStride + dist(point, ref[partition])
// and a learned ε-bounded model indexes the sorted key array. kNN runs the
// classic iDistance expanding-annulus search on top of the learned index.
//
// Taxonomy position: multi-dimensional / immutable / pure / projected.
class MlIndex {
 public:
  struct Options {
    // More partitions mean thinner kNN annuli (less ring over-scan) at the
    // cost of more reference-point distance evaluations per query.
    size_t num_partitions = 64;
    size_t epsilon = 32;
    int kmeans_iterations = 8;
    uint64_t seed = 31;
  };

  MlIndex() = default;

  void Build(const std::vector<Point2D>& points) {
    Build(points, Options());
  }

  void Build(const std::vector<Point2D>& points, const Options& options) {
    options_ = options;
    entries_.clear();
    keys_.clear();
    refs_.clear();
    locator_ = PlaLocator();
    if (points.empty()) return;

    TrainReferencePoints(points);

    entries_.reserve(points.size());
    for (uint32_t i = 0; i < points.size(); ++i) {
      const size_t part = NearestRef(points[i]);
      const double dist =
          std::sqrt(Dist2(points[i], refs_[part]));
      entries_.push_back(
          {MakeKey(part, dist), dist, points[i], i});
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const MlEntry& a, const MlEntry& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.id < b.id;
              });
    keys_.reserve(entries_.size());
    for (const MlEntry& e : entries_) keys_.push_back(e.key);

    // Learned model over the composite keys.
    locator_.Build(keys_, options_.epsilon, /*threads=*/1);
  }

  std::vector<uint32_t> FindExact(const Point2D& p) const {
    std::vector<uint32_t> out;
    if (entries_.empty()) return out;
    const size_t part = NearestRef(p);
    const double dist = std::sqrt(Dist2(p, refs_[part]));
    const double key = MakeKey(part, dist);
    for (size_t i = locator_.LowerBound(keys_, key);
         i < entries_.size() && entries_[i].key == key; ++i) {
      if (entries_[i].point == p) out.push_back(entries_[i].id);
    }
    return out;
  }

  std::vector<uint32_t> RangeQuery(const RangeQuery2D& q) const {
    std::vector<uint32_t> out;
    if (entries_.empty()) return out;
    const Rect rect = Rect::FromQuery(q);
    for (size_t part = 0; part < refs_.size(); ++part) {
      // Candidate annulus: [min dist(ref, rect), max dist(ref, corner)].
      const double dmin = std::sqrt(rect.MinDist2(refs_[part]));
      const double dmax = MaxDistToRect(refs_[part], rect);
      const size_t begin = locator_.LowerBound(keys_, MakeKey(part, dmin));
      const double hi_key = MakeKey(part, dmax);
      for (size_t i = begin; i < entries_.size() && entries_[i].key <= hi_key;
           ++i) {
        if (q.Contains(entries_[i].point)) out.push_back(entries_[i].id);
      }
    }
    return out;
  }

  // k nearest neighbors via iDistance expanding annuli: grow radius r until
  // the kth best distance is <= r (then nothing outside can improve).
  std::vector<uint32_t> Knn(const Point2D& q, size_t k) const {
    std::vector<uint32_t> out;
    if (entries_.empty() || k == 0) return out;
    std::vector<double> qdist(refs_.size());
    for (size_t part = 0; part < refs_.size(); ++part) {
      qdist[part] = std::sqrt(Dist2(q, refs_[part]));
    }
    // Best-k max-heap of (dist2, id).
    std::vector<std::pair<double, uint32_t>> best;
    auto consider = [&](const MlEntry& e) {
      const double d2 = Dist2(e.point, q);
      best.emplace_back(d2, e.id);
    };

    double r = InitialKnnRadius(k);
    while (true) {
      best.clear();
      for (size_t part = 0; part < refs_.size(); ++part) {
        // Ball(q, r) intersects partition's annulus [qdist - r, qdist + r].
        const double dmin = std::max(0.0, qdist[part] - r);
        const double dmax = qdist[part] + r;
        const size_t begin = locator_.LowerBound(keys_, MakeKey(part, dmin));
        const double hi_key = MakeKey(part, dmax);
        for (size_t i = begin;
             i < entries_.size() && entries_[i].key <= hi_key; ++i) {
          consider(entries_[i]);
        }
      }
      if (best.size() >= k) {
        std::nth_element(
            best.begin(), best.begin() + (k - 1), best.end());
        const double kth = best[k - 1].first;
        if (std::sqrt(kth) <= r) break;  // Certified: nothing outside wins.
      }
      if (r > 2.0) break;  // Unit square: the whole space is covered.
      r *= 2.0;
    }
    const size_t take = std::min(k, best.size());
    std::partial_sort(best.begin(), best.begin() + take, best.end());
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) out.push_back(best[i].second);
    return out;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  size_t NumPartitions() const { return refs_.size(); }
  size_t NumSegments() const { return locator_.NumSegments(); }

  size_t ModelSizeBytes() const {
    return sizeof(*this) + refs_.capacity() * sizeof(Point2D) +
           locator_.SizeBytes();
  }

  size_t SizeBytes() const {
    return ModelSizeBytes() + entries_.capacity() * sizeof(MlEntry) +
           keys_.capacity() * sizeof(double);
  }

 private:
  // Stride separating partitions on the projected axis; distances in the
  // unit square never exceed sqrt(2) < 2.
  static constexpr double kPartitionStride = 4.0;

  struct MlEntry {
    double key;
    double dist;
    Point2D point;
    uint32_t id;
  };

  static double MakeKey(size_t partition, double dist) {
    return static_cast<double>(partition) * kPartitionStride + dist;
  }

  // First search radius: sized so a uniform distribution would contain ~k
  // points in the ball, avoiding wasted empty rounds.
  double InitialKnnRadius(size_t k) const {
    const double density = static_cast<double>(entries_.size());
    const double area = static_cast<double>(k) / std::max(1.0, density);
    return std::max(0.005, std::sqrt(area / 3.14159265358979));
  }

  static double MaxDistToRect(const Point2D& p, const Rect& r) {
    const double dx = std::max(std::abs(p.x - r.min_x),
                               std::abs(p.x - r.max_x));
    const double dy = std::max(std::abs(p.y - r.min_y),
                               std::abs(p.y - r.max_y));
    return std::sqrt(dx * dx + dy * dy);
  }

  void TrainReferencePoints(const std::vector<Point2D>& points) {
    const size_t k = std::min(options_.num_partitions, points.size());
    Rng rng(options_.seed);
    refs_.clear();
    refs_.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      refs_.push_back(points[rng.NextBounded(points.size())]);
    }
    // Lloyd iterations on a bounded sample.
    const size_t sample = std::min<size_t>(points.size(), 20000);
    std::vector<Point2D> sum(k);
    std::vector<size_t> count(k);
    for (int iter = 0; iter < options_.kmeans_iterations; ++iter) {
      std::fill(sum.begin(), sum.end(), Point2D{});
      std::fill(count.begin(), count.end(), 0);
      for (size_t s = 0; s < sample; ++s) {
        const Point2D& p =
            points[sample == points.size() ? s : rng.NextBounded(
                                                     points.size())];
        const size_t c = NearestRef(p);
        sum[c].x += p.x;
        sum[c].y += p.y;
        ++count[c];
      }
      for (size_t c = 0; c < k; ++c) {
        if (count[c] > 0) {
          refs_[c] = {sum[c].x / static_cast<double>(count[c]),
                      sum[c].y / static_cast<double>(count[c])};
        }
      }
    }
  }

  size_t NearestRef(const Point2D& p) const {
    size_t best = 0;
    double best_d2 = Dist2(p, refs_[0]);
    for (size_t i = 1; i < refs_.size(); ++i) {
      const double d2 = Dist2(p, refs_[i]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = i;
      }
    }
    return best;
  }

  Options options_;
  std::vector<Point2D> refs_;
  std::vector<MlEntry> entries_;  // Sorted by (key, id).
  std::vector<double> keys_;
  PlaLocator locator_;
};

}  // namespace lidx

#endif  // LIDX_MULTI_D_ML_INDEX_H_
