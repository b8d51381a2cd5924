#ifndef GISTCR_GIST_CURSOR_H_
#define GISTCR_GIST_CURSOR_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "gist/gist.h"

namespace gistcr {

/// Incremental search cursor: the depth-first traversal of Figure 3
/// surfaced one qualifying entry at a time instead of as a complete result
/// set. This is the access pattern the paper's savepoint discussion
/// assumes (section 10.2): the cursor's position *is* its traversal stack,
/// so establishing a savepoint snapshots the stack (and keeps the
/// signaling locks of the stacked pointers alive), and rolling back to it
/// restores the position exactly.
///
/// Locking matches Search: result RIDs are S-locked (2PL), and at
/// repeatable read the search predicate is attached to each node as it is
/// visited — so the predicate lock range expands gradually with cursor
/// progress, one of the properties the hybrid scheme trades away relative
/// to key-range locking (section 4.3) but regains for unvisited subtrees.
///
/// Single-threaded use (one cursor per transaction thread); the cursor
/// holds no latches between Next() calls, only signaling locks on stacked
/// node pointers.
class GistCursor {
 public:
  /// An opaque saved position (paper section 10.2: "record the
  /// then-current stack"). Holding one keeps the signaling locks of its
  /// stacked pointers acquired, so the referenced nodes cannot be retired
  /// while a rollback could revive the position.
  class SavedPosition {
   public:
    SavedPosition() = default;
    ~SavedPosition();
    SavedPosition(SavedPosition&&) noexcept;
    SavedPosition& operator=(SavedPosition&&) noexcept;
    GISTCR_DISALLOW_COPY_AND_ASSIGN(SavedPosition);

   private:
    friend class GistCursor;
    void Release();

    Gist* gist_ = nullptr;
    TxnId txn_id_ = kInvalidTxnId;  ///< Id only: release must stay safe
                                    ///  even after the transaction object
                                    ///  is gone (locks are idempotently
                                    ///  released at end of transaction).
    /// Snapshot cursors hold no signaling locks (the active snapshot
    /// itself defers node retirement), so Release has nothing to drop.
    bool snapshot_ = false;
    std::vector<Gist::StackEntry> stack_;
    std::vector<uint64_t> seen_;
    std::deque<SearchResult> pending_;
  };

  /// The cursor borrows gist/txn; both must outlive it. \p query is the
  /// extension-encoded search predicate.
  GistCursor(Gist* gist, Transaction* txn, Slice query);
  ~GistCursor();
  GISTCR_DISALLOW_COPY_AND_ASSIGN(GistCursor);

  /// Positions at the root. Must be called once before Next().
  Status Open();

  /// Fetches the next qualifying entry. Sets *done=true (with no result)
  /// when the traversal is exhausted. Blocks on conflicting record locks
  /// exactly like Search.
  Status Next(SearchResult* out, bool* done);

  /// Snapshot the position for a savepoint (section 10.2). The snapshot
  /// pins the stacked nodes' signaling locks until released or restored.
  StatusOr<SavedPosition> Save();

  /// Rolls the cursor position back to \p pos (consumes it). Entries
  /// returned since the save will be returned again.
  Status Restore(SavedPosition pos);

 private:
  Status FillPending();

  Gist* gist_;
  Transaction* txn_;
  const TxnId txn_id_;  ///< For teardown after the transaction ended.
  /// Snapshot-read cursor (DESIGN.md section 14): traverses via the
  /// Visible() filter, takes no locks of any kind.
  const bool snapshot_;
  const std::string query_;
  const Gist::ReadSpec spec_;  ///< query slice points into query_
  bool open_ = false;
  std::vector<Gist::StackEntry> stack_;
  std::unordered_set<uint64_t> seen_;
  std::deque<SearchResult> pending_;
};

}  // namespace gistcr

#endif  // GISTCR_GIST_CURSOR_H_
