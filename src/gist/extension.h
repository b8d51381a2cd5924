#ifndef GISTCR_GIST_EXTENSION_H_
#define GISTCR_GIST_EXTENSION_H_

#include <string>
#include <vector>

#include "common/entry.h"
#include "util/slice.h"

namespace gistcr {

/// The access-method extension interface of [HNP95] as used by this paper:
/// the GiST core implements search, insert, delete, split propagation,
/// logging and locking generically; the extension supplies the key
/// semantics. Predicates (bounding predicates of internal entries, leaf
/// keys, and attached predicate locks) share one serialized domain; search
/// queries are a second serialized domain. The same consistent() drives
/// tree navigation *and* predicate-lock conflict checking (paper section 6:
/// "the function consistent(), which is used to detect conflicting
/// predicates, is the same user-supplied function ... used by the search
/// operation to navigate within the tree").
///
/// Implementations must be thread-safe (stateless or immutable).
class GistExtension {
 public:
  virtual ~GistExtension() = default;

  /// May a key under predicate \p pred satisfy \p query? Must not miss
  /// (false negatives are incorrect); false positives only cost work.
  virtual bool Consistent(Slice pred, Slice query) const = 0;

  /// Domain-specific cost of inserting \p key into the subtree bounded by
  /// \p bp (typically: how much bp must grow). Lower is better.
  virtual double Penalty(Slice bp, Slice key) const = 0;

  /// Smallest predicate covering both \p a and \p b. Either may be empty
  /// (an empty predicate covers nothing and unions to the other side).
  virtual std::string Union(Slice a, Slice b) const = 0;

  /// True if \p bp already covers \p pred (no expansion needed). Drives
  /// the termination test of upward BP propagation (paper section 6 step 4)
  /// and BP-shrink checks.
  virtual bool Contains(Slice bp, Slice pred) const = 0;

  /// Distributes \p entries between the original node (false) and the new
  /// right sibling (true). Must put at least one entry on each side.
  virtual void PickSplit(const std::vector<IndexEntry>& entries,
                         std::vector<bool>* to_right) const = 0;

  /// A query matching exactly the keys equal to \p key — used by delete
  /// (locate the victim entry) and unique-index probes (paper section 8).
  virtual std::string EqQuery(Slice key) const = 0;

  /// Do \p bytes decode as a leaf key / as a search query? The tree asks
  /// before an insert, delete or search touches anything (keys and
  /// queries arrive as raw bytes from the wire), so every other method
  /// may assume well-formed input.
  virtual bool ValidKey(Slice bytes) const = 0;
  virtual bool ValidQuery(Slice bytes) const = 0;

  /// Exact key equality. Predicate encodings are canonical in both bundled
  /// extensions, so byte equality is the default.
  virtual bool KeyEquals(Slice a, Slice b) const { return a == b; }

  /// Human-readable predicate rendering for debugging/tracing.
  virtual std::string Describe(Slice pred) const {
    return "<" + std::to_string(pred.size()) + " bytes>";
  }

  /// Union of all live entry predicates plus an optional extra predicate.
  /// Default folds Union; extensions may specialize.
  virtual std::string UnionAll(const std::vector<IndexEntry>& entries,
                               Slice extra) const {
    std::string acc = extra.ToString();
    for (const IndexEntry& e : entries) {
      acc = Union(acc, e.key);
    }
    return acc;
  }
};

}  // namespace gistcr

#endif  // GISTCR_GIST_EXTENSION_H_
