#ifndef GISTCR_ACCESS_RTREE_EXTENSION_H_
#define GISTCR_ACCESS_RTREE_EXTENSION_H_

#include <string>

#include "gist/extension.h"

namespace gistcr {

/// 2-D rectangle used by the R-tree specialization: canonical 32-byte
/// encoding (four IEEE doubles: xlo, ylo, xhi, yhi).
struct Rect {
  double xlo = 0, ylo = 0, xhi = 0, yhi = 0;

  static Rect Point(double x, double y) { return Rect{x, y, x, y}; }

  bool Overlaps(const Rect& o) const {
    return xlo <= o.xhi && o.xlo <= xhi && ylo <= o.yhi && o.ylo <= yhi;
  }
  bool ContainsRect(const Rect& o) const {
    return xlo <= o.xlo && o.xhi <= xhi && ylo <= o.ylo && o.yhi <= yhi;
  }
  double Area() const { return (xhi - xlo) * (yhi - ylo); }
  Rect UnionWith(const Rect& o) const;

  std::string Encode() const;
  static Rect Decode(Slice s);
};

/// GiST specialization of Guttman's R-tree [Gut84] — the structure the
/// paper's protocol was first developed for ([KB95] R-link trees).
/// Predicates are minimum bounding rectangles; leaf keys are (possibly
/// degenerate) rectangles; queries are rectangles with overlap semantics.
/// PickSplit is Guttman's quadratic algorithm.
class RtreeExtension : public GistExtension {
 public:
  static std::string MakeKey(const Rect& r) { return r.Encode(); }
  /// Window (overlap) query.
  static std::string MakeWindowQuery(const Rect& r) { return r.Encode(); }

  bool Consistent(Slice pred, Slice query) const override;
  double Penalty(Slice bp, Slice key) const override;
  std::string Union(Slice a, Slice b) const override;
  bool Contains(Slice bp, Slice pred) const override;
  void PickSplit(const std::vector<IndexEntry>& entries,
                 std::vector<bool>* to_right) const override;
  std::string EqQuery(Slice key) const override;
  bool ValidKey(Slice bytes) const override { return bytes.size() == 32; }
  bool ValidQuery(Slice bytes) const override { return bytes.size() == 32; }
  std::string Describe(Slice pred) const override;
};

}  // namespace gistcr

#endif  // GISTCR_ACCESS_RTREE_EXTENSION_H_
