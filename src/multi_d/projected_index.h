#ifndef LIDX_MULTI_D_PROJECTED_INDEX_H_
#define LIDX_MULTI_D_PROJECTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "models/pla_locator.h"

namespace lidx {

// The core every projected-space index shares (tutorial §5.2, Approach 2):
// each point is projected to a one-dimensional curve code, the entries are
// sorted by code, and an ε-bounded learned locator indexes the code array.
// A derived index supplies the projection and its own range query;
// FindExact, the build and the size accounting live here.
template <typename Point>
class ProjectedIndex {
 public:
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  size_t NumSegments() const { return locator_.NumSegments(); }

  size_t ModelSizeBytes() const {
    return sizeof(*this) + locator_.SizeBytes();
  }

  size_t SizeBytes() const {
    return ModelSizeBytes() + entries_.capacity() * sizeof(Entry) +
           codes_.capacity() * sizeof(uint64_t);
  }

 protected:
  struct Entry {
    uint64_t code;
    Point point;
    uint32_t id;
  };

  // Projects every point with `encode`, sorts the entries by (code, id) and
  // trains the locator on the codes. (code, id) is a total order, so the
  // entries and codes are the same for every thread count; only the PLA
  // segment boundaries may differ at block seams, with the same ε-bound.
  template <typename Encode>
  void BuildCodes(const std::vector<Point>& points, const Encode& encode,
                  size_t epsilon, size_t threads) {
    const size_t n = points.size();
    entries_.assign(n, Entry{});
    ParallelForIndex(threads, n, [&](size_t i) {
      entries_[i] = {encode(points[i]), points[i], static_cast<uint32_t>(i)};
    });
    ParallelSort(threads, &entries_, [](const Entry& a, const Entry& b) {
      if (a.code != b.code) return a.code < b.code;
      return a.id < b.id;
    });
    codes_.assign(n, 0);
    ParallelForIndex(threads, n,
                     [&](size_t i) { codes_[i] = entries_[i].code; });
    locator_.Build(codes_, epsilon, threads);
  }

  // First entry whose code is >= `code`.
  size_t LowerBound(uint64_t code) const {
    return locator_.LowerBound(codes_, code);
  }

  // Ids of the points equal to `p`, whose code is `code`.
  std::vector<uint32_t> FindCode(uint64_t code, const Point& p) const {
    std::vector<uint32_t> out;
    for (size_t i = LowerBound(code);
         i < entries_.size() && entries_[i].code == code; ++i) {
      if (entries_[i].point == p) out.push_back(entries_[i].id);
    }
    return out;
  }

  std::vector<Entry> entries_;  // Sorted by (code, id).

 private:
  std::vector<uint64_t> codes_;  // Parallel code array for the locator.
  PlaLocator locator_;
};

}  // namespace lidx

#endif  // LIDX_MULTI_D_PROJECTED_INDEX_H_
