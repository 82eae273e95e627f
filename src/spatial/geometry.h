#ifndef LIDX_SPATIAL_GEOMETRY_H_
#define LIDX_SPATIAL_GEOMETRY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "datasets/generators.h"
#include "datasets/workload.h"

namespace lidx {

// A 3-D point in the unit cube.
struct Point3D {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend bool operator==(const Point3D& a, const Point3D& b) {
    return a.x == b.x && a.y == b.y && a.z == b.z;
  }
};

// Axis-aligned 3-D box query (inclusive bounds).
struct BoxQuery3D {
  double min_x, min_y, min_z;
  double max_x, max_y, max_z;

  bool Contains(const Point3D& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y &&
           p.z >= min_z && p.z <= max_z;
  }
};

// Axis-aligned rectangle (MBR). Degenerate (point) rectangles are valid.
struct Rect {
  double min_x = std::numeric_limits<double>::max();
  double min_y = std::numeric_limits<double>::max();
  double max_x = std::numeric_limits<double>::lowest();
  double max_y = std::numeric_limits<double>::lowest();

  static Rect FromPoint(const Point2D& p) { return {p.x, p.y, p.x, p.y}; }
  static Rect FromQuery(const RangeQuery2D& q) {
    return {q.min_x, q.min_y, q.max_x, q.max_y};
  }

  bool Valid() const { return min_x <= max_x && min_y <= max_y; }

  double Area() const {
    if (!Valid()) return 0.0;
    return (max_x - min_x) * (max_y - min_y);
  }

  double Margin() const {
    if (!Valid()) return 0.0;
    return (max_x - min_x) + (max_y - min_y);
  }

  bool Intersects(const Rect& o) const {
    return min_x <= o.max_x && o.min_x <= max_x && min_y <= o.max_y &&
           o.min_y <= max_y;
  }

  bool ContainsRect(const Rect& o) const {
    return min_x <= o.min_x && o.max_x <= max_x && min_y <= o.min_y &&
           o.max_y <= max_y;
  }

  bool ContainsPoint(const Point2D& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  void Expand(const Rect& o) {
    if (o.min_x < min_x) min_x = o.min_x;
    if (o.min_y < min_y) min_y = o.min_y;
    if (o.max_x > max_x) max_x = o.max_x;
    if (o.max_y > max_y) max_y = o.max_y;
  }

  void Expand(const Point2D& p) { Expand(FromPoint(p)); }

  // Area growth needed to absorb `o` (R-tree ChooseSubtree criterion).
  double Enlargement(const Rect& o) const {
    Rect merged = *this;
    merged.Expand(o);
    return merged.Area() - Area();
  }

  // Squared minimum distance from `p` to this rectangle (0 if inside).
  double MinDist2(const Point2D& p) const {
    double dx = 0.0, dy = 0.0;
    if (p.x < min_x) dx = min_x - p.x;
    else if (p.x > max_x) dx = p.x - max_x;
    if (p.y < min_y) dy = min_y - p.y;
    else if (p.y > max_y) dy = p.y - max_y;
    return dx * dx + dy * dy;
  }
};

inline double Dist2(const Point2D& a, const Point2D& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

// ----- Brute-force reference implementations (ground truth for tests) -----

// Ids of all points inside the query rectangle.
std::vector<uint32_t> BruteForceRange(const std::vector<Point2D>& points,
                                      const RangeQuery2D& query);

// Ids of the k nearest points to `q`, ordered by increasing distance
// (ties broken by id for determinism).
std::vector<uint32_t> BruteForceKnn(const std::vector<Point2D>& points,
                                    const Point2D& q, size_t k);

}  // namespace lidx

#endif  // LIDX_SPATIAL_GEOMETRY_H_
