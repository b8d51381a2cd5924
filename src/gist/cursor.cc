#include "gist/cursor.h"

#include "gist/tree_latch.h"
#include "obs/op_context.h"

namespace gistcr {

// ---------------------------------------------------------------------
// SavedPosition
// ---------------------------------------------------------------------

GistCursor::SavedPosition::~SavedPosition() { Release(); }

GistCursor::SavedPosition::SavedPosition(SavedPosition&& o) noexcept
    : gist_(o.gist_),
      txn_id_(o.txn_id_),
      snapshot_(o.snapshot_),
      stack_(std::move(o.stack_)),
      seen_(std::move(o.seen_)),
      pending_(std::move(o.pending_)) {
  o.gist_ = nullptr;
}

GistCursor::SavedPosition& GistCursor::SavedPosition::operator=(
    SavedPosition&& o) noexcept {
  if (this != &o) {
    Release();
    gist_ = o.gist_;
    txn_id_ = o.txn_id_;
    snapshot_ = o.snapshot_;
    stack_ = std::move(o.stack_);
    seen_ = std::move(o.seen_);
    pending_ = std::move(o.pending_);
    o.gist_ = nullptr;
  }
  return *this;
}

void GistCursor::SavedPosition::Release() {
  if (gist_ == nullptr) return;
  // Drop the extra signaling-lock counts the snapshot was holding. By id:
  // the transaction object may already be gone (its end-of-transaction
  // ReleaseAll made these no-ops). Snapshot cursors never took any.
  if (!snapshot_) {
    for (const auto& e : stack_) {
      gist_->ctx_.locks->Unlock(txn_id_, LockName{LockSpace::kNode, e.page});
    }
  }
  gist_ = nullptr;
}

// ---------------------------------------------------------------------
// GistCursor
// ---------------------------------------------------------------------

GistCursor::GistCursor(Gist* gist, Transaction* txn, Slice query)
    : gist_(gist),
      txn_(txn),
      txn_id_(txn->id()),
      snapshot_(txn->is_snapshot()),
      query_(query.ToString()),
      spec_{query_, PredKind::kSearch,
            txn->isolation() == IsolationLevel::kRepeatableRead &&
                gist->opts_.pred_mode == PredicateMode::kHybrid,
            txn->NextOpId()} {}

GistCursor::~GistCursor() {
  // Unvisited stacked pointers still hold their signaling locks. Release
  // by id: destroying a cursor after its transaction committed/aborted is
  // legal (end-of-transaction already dropped the locks; these are
  // no-ops then). Snapshot cursors hold none (see Gist::VisitNext).
  if (snapshot_) return;
  for (const auto& e : stack_) {
    gist_->ctx_.locks->Unlock(txn_id_, LockName{LockSpace::kNode, e.page});
  }
}

Status GistCursor::Open() {
  GISTCR_CHECK(!open_);
  GISTCR_RETURN_IF_ERROR(gist_->CheckQuery(query_));
  if (txn_->isolation() == IsolationLevel::kRepeatableRead) {
    GISTCR_RETURN_IF_ERROR(gist_->RegisterGlobalPredicate(
        txn_, spec_.op_id, PredKind::kSearch, query_));
  }
  GISTCR_RETURN_IF_ERROR(gist_->PushRoot(txn_, &stack_));
  open_ = true;
  return Status::OK();
}

Status GistCursor::FillPending() {
  obs::TreeScope tree_scope;
  std::vector<SearchResult> batch;
  while (pending_.empty() && !stack_.empty()) {
    // The coarse baseline's tree latch is taken per visited node: a cursor
    // parked between Next() calls must not pin the whole tree.
    internal::TreeLatch tree(
        &gist_->tree_latch_, /*exclusive=*/false,
        gist_->opts_.protocol == ConcurrencyProtocol::kCoarse);
    batch.clear();
    GISTCR_RETURN_IF_ERROR(
        gist_->VisitNext(txn_, spec_, &stack_, &seen_, &batch, &tree));
    for (auto& r : batch) pending_.push_back(std::move(r));
  }
  return Status::OK();
}

Status GistCursor::Next(SearchResult* out, bool* done) {
  GISTCR_CHECK(open_);
  *done = false;
  if (pending_.empty()) {
    GISTCR_RETURN_IF_ERROR(FillPending());
  }
  if (pending_.empty()) {
    *done = true;
    return Status::OK();
  }
  *out = std::move(pending_.front());
  pending_.pop_front();
  return Status::OK();
}

StatusOr<GistCursor::SavedPosition> GistCursor::Save() {
  GISTCR_CHECK(open_);
  SavedPosition pos;
  pos.gist_ = gist_;
  pos.txn_id_ = txn_id_;
  pos.snapshot_ = snapshot_;
  pos.stack_ = stack_;
  pos.seen_.assign(seen_.begin(), seen_.end());
  pos.pending_ = pending_;
  // Snapshot positions need no extra protection: retirement stays
  // deferred while the owning snapshot transaction is active, which is
  // the only window in which the position can be restored.
  if (snapshot_) return pos;
  // Keep the stacked pointers deletion-protected for the lifetime of the
  // savepoint (paper section 10.2): one extra signaling-lock count each.
  for (const auto& e : pos.stack_) {
    Status st = gist_->SignalLock(txn_, e.page);
    if (!st.ok()) {
      // Roll back the counts taken so far.
      for (const auto& f : pos.stack_) {
        if (&f == &e) break;
        gist_->SignalUnlock(txn_, f.page);
      }
      pos.gist_ = nullptr;
      return st;
    }
  }
  return pos;
}

Status GistCursor::Restore(SavedPosition pos) {
  GISTCR_CHECK(open_);
  GISTCR_CHECK(pos.gist_ == gist_ && pos.txn_id_ == txn_id_);
  // Release the locks of the CURRENT position's stack (snapshot cursors
  // hold none)...
  if (!snapshot_) {
    for (const auto& e : stack_) {
      gist_->SignalUnlock(txn_, e.page);
    }
  }
  // ...and adopt the snapshot's stack along with its retained lock counts.
  stack_ = std::move(pos.stack_);
  seen_.clear();
  seen_.insert(pos.seen_.begin(), pos.seen_.end());
  pending_ = std::move(pos.pending_);
  pos.gist_ = nullptr;  // ownership of the lock counts moved to the cursor
  return Status::OK();
}

}  // namespace gistcr
