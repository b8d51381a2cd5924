#ifndef GISTCR_ACCESS_STRING_EXTENSION_H_
#define GISTCR_ACCESS_STRING_EXTENSION_H_

#include <string>

#include "gist/extension.h"

namespace gistcr {

/// GiST specialization over variable-length byte-string keys with
/// lexicographic range queries (the shape of a text B-tree). Unlike the
/// int64 and rectangle extensions, predicates here are variable length,
/// exercising the engine's predicate-relocation paths (growing bounding
/// predicates, internal-entry key rewrites, split payloads with mixed
/// sizes).
///
/// Predicate encoding: u16 lo_len | lo bytes | hi bytes  (hi_len implied).
/// A key is the degenerate range [s, s]; queries are inclusive ranges.
class StringExtension : public GistExtension {
 public:
  /// Maximum individual string length (predicates hold two).
  static constexpr size_t kMaxStringLen = 400;

  static std::string MakeKey(const std::string& s) { return MakeRange(s, s); }
  static std::string MakeRange(const std::string& lo, const std::string& hi);
  /// All strings with the given prefix: [prefix, prefix + 0xFF...].
  static std::string MakePrefixQuery(const std::string& prefix);
  static std::string Lo(Slice pred);
  static std::string Hi(Slice pred);

  bool Consistent(Slice pred, Slice query) const override;
  double Penalty(Slice bp, Slice key) const override;
  std::string Union(Slice a, Slice b) const override;
  bool Contains(Slice bp, Slice pred) const override;
  void PickSplit(const std::vector<IndexEntry>& entries,
                 std::vector<bool>* to_right) const override;
  std::string EqQuery(Slice key) const override;
  /// A key is what MakeKey/MakeRange build: both strings at most
  /// kMaxStringLen and lo <= hi (Union re-encodes keys through MakeRange).
  bool ValidKey(Slice bytes) const override;
  /// A query need only split into lo and hi.
  bool ValidQuery(Slice bytes) const override;
  std::string Describe(Slice pred) const override;
};

}  // namespace gistcr

#endif  // GISTCR_ACCESS_STRING_EXTENSION_H_
