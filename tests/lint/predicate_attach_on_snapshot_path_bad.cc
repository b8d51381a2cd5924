// Negative fixture for gistcr_lint rule `predicate-attach-on-snapshot-path`:
// the MVCC snapshot read path (the distinctly named Snapshot* functions)
// promises read-only transactions that traverse it touch zero lock-manager
// state — no predicate attach, no signal lock, no record S locks
// (DESIGN.md section 14.3). Attaching a predicate here would re-introduce
// exactly the shared-state mutation the subsystem exists to avoid, and a
// blocking lock call could park a reader that writers are not required to
// wake. The lock.acquires counter catches this dynamically in
// SnapshotIsolationTest; this rule catches it at lint time.
//
// Not compiled; consumed by `gistcr_lint.py --self-test tests/lint`.

#include "gist/gist.h"

namespace gistcr {

Status Gist::FilterLeafSnapshot(Transaction* txn, PageId page,
                                std::vector<SearchResult>* out) {
  // VIOLATION: predicate attach on the snapshot read path.
  GISTCR_RETURN_IF_ERROR(ctx_.preds->Attach(txn->id(), page));
  // VIOLATION: signal lock (a lock-manager S lock) on the snapshot path.
  GISTCR_RETURN_IF_ERROR(SignalLock(txn, page));
  // VIOLATION: blocking record lock on the snapshot path.
  GISTCR_RETURN_IF_ERROR(
      ctx_.locks->Lock(txn, LockId::Record(1), LockMode::kShared));
  return Status::OK();
}

}  // namespace gistcr
