// Negative fixture for gistcr_lint rule `root-step-outside-pushroot`: an
// insert descent that takes its own root step instead of PushRoot's. The
// order here happens to be right (memorize, then read), but it is a
// second copy of it: the Delete descent's copy read the root first and
// lost keys to a concurrent root grow.
//
// Not compiled; consumed by `gistcr_lint.py --self-test tests/lint`.

#include "gist/gist.h"

namespace gistcr {

Status Gist::PushRoot(Transaction* txn, std::vector<StackEntry>* stack) {
  const Nsn root_mem = ctx_.nsn->Current();  // fine: the one root step
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  GISTCR_RETURN_IF_ERROR(SignalLock(txn, root_or.value()));
  stack->push_back({root_or.value(), root_mem});
  return Status::OK();
}

Status Gist::LocateLeaf(Transaction* txn, Slice key,
                        std::vector<StackEntry>* stack, PageGuard* leaf) {
  Nsn p_nsn = ctx_.nsn->Current();
  // VIOLATION: a private root step beside PushRoot's.
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  PageId p = root_or.value();
  GISTCR_RETURN_IF_ERROR(SignalLock(txn, p));
  return DescendFrom(txn, key, p, p_nsn, stack, leaf);
}

}  // namespace gistcr
