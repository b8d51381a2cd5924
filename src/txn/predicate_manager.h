#ifndef GISTCR_TXN_PREDICATE_MANAGER_H_
#define GISTCR_TXN_PREDICATE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "util/slice.h"
#include "util/status.h"

namespace gistcr {

/// Kind of a predicate attachment (paper sections 4.3, 8, 10.3):
///  - kSearch: a scan's search predicate, attached top-down to every node
///    the scan visits; held to end of transaction.
///  - kInsert: an insert operation's key, attached to its target leaf so
///    that later scans queue behind it (starvation freedom, section 10.3);
///    released when the insert operation finishes.
///  - kUniqueProbe: the "= key" predicates a unique-index insert leaves on
///    every node visited during its search phase (section 8); released when
///    the insert operation finishes.
enum class PredKind : uint8_t { kSearch = 0, kInsert = 1, kUniqueProbe = 2 };

/// One predicate attachment on one node.
struct PredAttachment {
  uint64_t id;       ///< Attachment id (FIFO order within the node list).
  TxnId txn;
  uint64_t op_id;    ///< Operation within the txn (for per-op release).
  PredKind kind;
  std::string pred;  ///< Extension-interpreted predicate bytes.
};

/// The predicate manager of paper section 10.3: per-node FIFO lists of
/// attached predicates, per-transaction attachment indexes, replication on
/// node split and percolation on BP expansion. Predicate *semantics* stay
/// with the access-method extension: every conflict test is a caller-
/// supplied function over the opaque predicate bytes (the same
/// consistent() used for tree navigation — paper section 6).
///
/// Also supports the tree-global mode of pure predicate locking
/// (section 4.2) for the C2 ablation benchmark: attachments on
/// kGlobalTable live in one list, and conflict checks scan all of it.
class PredicateManager {
 public:
  /// Pseudo node id for the tree-global list (pure predicate locking mode).
  static constexpr PageId kGlobalTable = 0xFFFFFFFEu;

  PredicateManager();
  GISTCR_DISALLOW_COPY_AND_ASSIGN(PredicateManager);

  /// Re-points the manager's pred.* counters at \p reg (null: process
  /// fallback): attaches, conflict_checks (calls that scanned a list),
  /// predicates_scanned (attachments examined in checks), replications and
  /// percolations. Call before concurrent use; the Database facade does so
  /// at init.
  void AttachMetrics(obs::MetricsRegistry* reg);

  using ConflictFn = std::function<bool(const PredAttachment&)>;

  /// Appends an attachment to \p node's FIFO list (idempotent for an
  /// identical (txn, op, kind, pred) already on the node). Returns its id.
  void Attach(PageId node, TxnId txn, uint64_t op_id, PredKind kind,
              Slice pred);

  /// Attaches and, atomically with the attachment, collects the distinct
  /// owner txns of attachments AHEAD of the new one for which
  /// \p conflicts returns true. FIFO position makes insert/scan queuing
  /// fair (section 10.3). Self-owned attachments never conflict.
  std::vector<TxnId> AttachAndFindConflicts(PageId node, TxnId txn,
                                            uint64_t op_id, PredKind kind,
                                            Slice pred,
                                            const ConflictFn& conflicts);

  /// Conflict check without attaching (pure-predicate-locking searches
  /// re-checking the global table).
  std::vector<TxnId> FindConflicts(PageId node, TxnId self,
                                   const ConflictFn& conflicts);

  /// Removes all attachments of (txn, op) — insert predicates and unique-
  /// probe predicates when the operation completes.
  void DetachOp(TxnId txn, uint64_t op_id);

  /// Removes all attachments of \p txn (end of transaction).
  void ReleaseTxn(TxnId txn);

  /// Node split: every attachment on \p orig whose predicate is consistent
  /// with the new sibling's BP (per \p consistent_with_new_bp) is
  /// replicated onto \p new_node (paper section 4.3 case 1).
  void ReplicateOnSplit(
      PageId orig, PageId new_node,
      const std::function<bool(const PredAttachment&)>& consistent_with_new_bp);

  /// BP expansion: attachments on \p parent consistent with the child's
  /// new BP but not its old BP are percolated down to \p child (paper
  /// section 4.3 case 2). \p should_percolate implements that test.
  void Percolate(
      PageId parent, PageId child,
      const std::function<bool(const PredAttachment&)>& should_percolate);

  /// All predicates currently attached to a node (tests/debugging).
  std::vector<PredAttachment> GetAttached(PageId node);

  /// Total number of attachments (tests / benchmarks).
  size_t TotalAttachments();

 private:
  void AttachLocked(PageId node, TxnId txn, uint64_t op_id, PredKind kind,
                    Slice pred) GISTCR_REQUIRES(mu_);

  obs::Counter* m_attaches_ = nullptr;
  obs::Counter* m_conflict_checks_ = nullptr;
  obs::Counter* m_predicates_scanned_ = nullptr;
  obs::Counter* m_replications_ = nullptr;
  obs::Counter* m_percolations_ = nullptr;

  Mutex mu_{GISTCR_LOCK_RANK(kPredicates, "preds.mu")};
  uint64_t next_id_ GISTCR_GUARDED_BY(mu_) = 1;
  std::unordered_map<PageId, std::list<PredAttachment>> by_node_
      GISTCR_GUARDED_BY(mu_);
  // txn -> nodes that may hold its attachments (superset; pruned on use).
  std::unordered_map<TxnId, std::vector<PageId>> by_txn_
      GISTCR_GUARDED_BY(mu_);
};

}  // namespace gistcr

#endif  // GISTCR_TXN_PREDICATE_MANAGER_H_
