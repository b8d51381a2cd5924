#include "access/btree_extension.h"

#include <algorithm>

#include "util/coding.h"
#include "util/macros.h"

namespace gistcr {

std::string BtreeExtension::MakeRange(int64_t lo, int64_t hi) {
  std::string s;
  PutFixed64(&s, static_cast<uint64_t>(lo));
  PutFixed64(&s, static_cast<uint64_t>(hi));
  return s;
}

int64_t BtreeExtension::Lo(Slice pred) {
  GISTCR_CHECK(pred.size() == 16);
  return static_cast<int64_t>(DecodeFixed64(pred.data()));
}

int64_t BtreeExtension::Hi(Slice pred) {
  GISTCR_CHECK(pred.size() == 16);
  return static_cast<int64_t>(DecodeFixed64(pred.data() + 8));
}

bool BtreeExtension::Consistent(Slice pred, Slice query) const {
  if (pred.empty() || query.empty()) return false;
  return Lo(pred) <= Hi(query) && Lo(query) <= Hi(pred);
}

double BtreeExtension::Penalty(Slice bp, Slice key) const {
  if (bp.empty()) return 1e18;
  const int64_t lo = Lo(bp), hi = Hi(bp);
  const int64_t k = Lo(key);
  double pen = 0;
  if (k < lo) pen += static_cast<double>(lo - k);
  if (k > hi) pen += static_cast<double>(k - hi);
  return pen;
}

std::string BtreeExtension::Union(Slice a, Slice b) const {
  if (a.empty()) return b.ToString();
  if (b.empty()) return a.ToString();
  return MakeRange(std::min(Lo(a), Lo(b)), std::max(Hi(a), Hi(b)));
}

bool BtreeExtension::Contains(Slice bp, Slice pred) const {
  if (pred.empty()) return true;
  if (bp.empty()) return false;
  return Lo(bp) <= Lo(pred) && Hi(pred) <= Hi(bp);
}

void BtreeExtension::PickSplit(const std::vector<IndexEntry>& entries,
                               std::vector<bool>* to_right) const {
  // B-tree style: order by interval start and cut at the median.
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const int64_t la = Lo(entries[a].key), lb = Lo(entries[b].key);
    if (la != lb) return la < lb;
    return Hi(entries[a].key) < Hi(entries[b].key);
  });
  to_right->assign(entries.size(), false);
  for (size_t i = order.size() / 2; i < order.size(); i++) {
    (*to_right)[order[i]] = true;
  }
}

std::string BtreeExtension::EqQuery(Slice key) const {
  return key.ToString();  // a key is already the degenerate interval
}

std::string BtreeExtension::Describe(Slice pred) const {
  if (pred.empty()) return "[empty]";
  // Successive appends rather than one operator+ chain: GCC 12 inlines the
  // chain at -O2/-O3 and reports a false -Wrestrict on it.
  std::string out = "[";
  out += std::to_string(Lo(pred));
  out += ",";
  out += std::to_string(Hi(pred));
  out += "]";
  return out;
}

}  // namespace gistcr
