#include "access/string_extension.h"

#include <algorithm>

#include "util/coding.h"
#include "util/macros.h"

namespace gistcr {

namespace {

/// Monotone embedding of a byte string into [0,1): the first 8 bytes as a
/// base-256 fraction. Only used to make penalties comparable; correctness
/// never depends on it.
double ToFraction(const std::string& s) {
  double v = 0, scale = 1.0 / 256.0;
  for (size_t i = 0; i < 8 && i < s.size(); i++) {
    v += static_cast<unsigned char>(s[i]) * scale;
    scale /= 256.0;
  }
  return v;
}

}  // namespace

std::string StringExtension::MakeRange(const std::string& lo,
                                       const std::string& hi) {
  GISTCR_CHECK(lo.size() <= kMaxStringLen && hi.size() <= kMaxStringLen);
  GISTCR_CHECK(lo <= hi);
  std::string out;
  PutFixed16(&out, static_cast<uint16_t>(lo.size()));
  out += lo;
  out += hi;
  return out;
}

std::string StringExtension::MakePrefixQuery(const std::string& prefix) {
  std::string hi = prefix;
  hi.append(8, '\xff');
  return MakeRange(prefix, hi);
}

std::string StringExtension::Lo(Slice pred) {
  GISTCR_CHECK(pred.size() >= 2);
  const uint16_t lo_len = DecodeFixed16(pred.data());
  GISTCR_CHECK(pred.size() >= 2u + lo_len);
  return std::string(pred.data() + 2, lo_len);
}

std::string StringExtension::Hi(Slice pred) {
  GISTCR_CHECK(pred.size() >= 2);
  const uint16_t lo_len = DecodeFixed16(pred.data());
  GISTCR_CHECK(pred.size() >= 2u + lo_len);
  return std::string(pred.data() + 2 + lo_len,
                     pred.size() - 2 - lo_len);
}

bool StringExtension::Consistent(Slice pred, Slice query) const {
  if (pred.empty() || query.empty()) return false;
  return Lo(pred) <= Hi(query) && Lo(query) <= Hi(pred);
}

double StringExtension::Penalty(Slice bp, Slice key) const {
  if (bp.empty()) return 1e18;
  const double lo = ToFraction(Lo(bp)), hi = ToFraction(Hi(bp));
  const double k = ToFraction(Lo(key));
  double pen = 0;
  if (k < lo) pen += lo - k;
  if (k > hi) pen += k - hi;
  return pen;
}

std::string StringExtension::Union(Slice a, Slice b) const {
  if (a.empty()) return b.ToString();
  if (b.empty()) return a.ToString();
  return MakeRange(std::min(Lo(a), Lo(b)), std::max(Hi(a), Hi(b)));
}

bool StringExtension::Contains(Slice bp, Slice pred) const {
  if (pred.empty()) return true;
  if (bp.empty()) return false;
  return Lo(bp) <= Lo(pred) && Hi(pred) <= Hi(bp);
}

void StringExtension::PickSplit(const std::vector<IndexEntry>& entries,
                                std::vector<bool>* to_right) const {
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return Lo(entries[x].key) < Lo(entries[y].key);
  });
  to_right->assign(entries.size(), false);
  for (size_t i = order.size() / 2; i < order.size(); i++) {
    (*to_right)[order[i]] = true;
  }
}

std::string StringExtension::EqQuery(Slice key) const {
  return key.ToString();
}

bool StringExtension::ValidKey(Slice bytes) const {
  if (!ValidQuery(bytes)) return false;
  const std::string lo = Lo(bytes), hi = Hi(bytes);
  return lo.size() <= kMaxStringLen && hi.size() <= kMaxStringLen && lo <= hi;
}

bool StringExtension::ValidQuery(Slice bytes) const {
  return bytes.size() >= 2 && 2u + DecodeFixed16(bytes.data()) <= bytes.size();
}

std::string StringExtension::Describe(Slice pred) const {
  if (pred.empty()) return "[empty]";
  return "[\"" + Lo(pred) + "\",\"" + Hi(pred) + "\"]";
}

}  // namespace gistcr
