#ifndef GISTCR_ACCESS_BTREE_EXTENSION_H_
#define GISTCR_ACCESS_BTREE_EXTENSION_H_

#include <cstdint>
#include <string>

#include "gist/extension.h"

namespace gistcr {

/// GiST specialization emulating a B-tree over int64 keys (the paper's own
/// validation vehicle: "We are currently implementing GiSTs emulating
/// B-trees in DB2/Common Server", section 12).
///
/// Predicate domain: closed intervals [lo, hi], 16 bytes (two little-endian
/// int64s). Leaf keys are degenerate intervals [k, k]; internal BPs are the
/// ranges bounding their subtrees. Queries are intervals too, so
/// consistent() is interval overlap — which simultaneously implements
/// range-scan navigation and predicate-lock conflict detection.
class BtreeExtension : public GistExtension {
 public:
  /// Serialized degenerate interval for a point key.
  static std::string MakeKey(int64_t k) { return MakeRange(k, k); }
  /// Serialized interval [lo, hi] (inclusive); a range-scan query.
  static std::string MakeRange(int64_t lo, int64_t hi);
  static int64_t Lo(Slice pred);
  static int64_t Hi(Slice pred);

  bool Consistent(Slice pred, Slice query) const override;
  double Penalty(Slice bp, Slice key) const override;
  std::string Union(Slice a, Slice b) const override;
  bool Contains(Slice bp, Slice pred) const override;
  void PickSplit(const std::vector<IndexEntry>& entries,
                 std::vector<bool>* to_right) const override;
  std::string EqQuery(Slice key) const override;
  bool ValidKey(Slice bytes) const override { return bytes.size() == 16; }
  bool ValidQuery(Slice bytes) const override { return bytes.size() == 16; }
  std::string Describe(Slice pred) const override;
};

}  // namespace gistcr

#endif  // GISTCR_ACCESS_BTREE_EXTENSION_H_
