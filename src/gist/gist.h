#ifndef GISTCR_GIST_GIST_H_
#define GISTCR_GIST_GIST_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "db/page_allocator.h"
#include "gist/extension.h"
#include "gist/node.h"
#include "gist/nsn.h"
#include "gist/tree_latch.h"
#include "storage/buffer_pool.h"
#include "txn/lock_manager.h"
#include "txn/predicate_manager.h"
#include "txn/transaction_manager.h"
#include "util/status.h"
#include "wal/log_payloads.h"

namespace gistcr {

/// Which concurrency protocol the tree runs (benchmark C1 / Figure 1):
///  - kLink:   the paper's protocol — NSNs + rightlinks, no latch coupling,
///             no latches across I/O or lock waits.
///  - kCoarse: baseline — a tree-wide latch held for the whole operation
///             (search shared, updates exclusive), standing in for the
///             subtree-locking protocols of [BS77]. The NSN machinery stays
///             on (it is what lets operations re-position after releasing
///             the tree latch to block on locks).
///  - kUnsafeNoLink: test-only — concurrent access *without* split
///             detection, reproducing the lost-key anomaly of Figure 1.
enum class ConcurrencyProtocol : uint8_t { kLink, kCoarse, kUnsafeNoLink };

/// Where search predicates live (benchmark C2):
///  - kHybrid: the paper's mechanism — predicates attached to visited
///    nodes; inserts check only their target leaf (section 4.3).
///  - kGlobal: pure predicate locking (section 4.2) — one tree-global
///    list checked before any traversal starts.
enum class PredicateMode : uint8_t { kHybrid, kGlobal };

struct GistOptions {
  uint32_t index_id = 1;
  ConcurrencyProtocol protocol = ConcurrencyProtocol::kLink;
  PredicateMode pred_mode = PredicateMode::kHybrid;
  /// Test hook: cap live entries per node to force splits with few keys
  /// (0 = page-capacity bound).
  uint16_t max_entries = 0;
};

/// Shared engine components a Gist operates on.
struct GistContext {
  BufferPool* pool = nullptr;
  LogManager* log = nullptr;
  TransactionManager* txns = nullptr;
  LockManager* locks = nullptr;
  PredicateManager* preds = nullptr;
  PageAllocator* alloc = nullptr;
  GlobalNsn* nsn = nullptr;
  /// Registry the tree's counters/histograms live in (null: process
  /// fallback registry).
  obs::MetricsRegistry* metrics = nullptr;
  /// Version store for snapshot reads (DESIGN.md section 14).
  MvccManager* mvcc = nullptr;
};

struct SearchResult {
  std::string key;
  Rid rid;
};

/// Injection points for deterministic interleaving tests (Figure 1 / 2
/// scenarios). All default to no-ops.
///
/// before_root_read and after_root_push fire in PushRoot, the root step of
/// every traversal: searches, cursors, deletes, and inserts. A test that
/// sets one and then writes from its own thread must clear it first or
/// guard it (fire once), or its own inserts run the hook too.
struct GistTestHooks {
  std::function<void(PageId node)> before_visit_node;
  std::function<void()> after_root_push;
  /// Fires in PushRoot between memorizing the global NSN and reading the
  /// root pointer: a root grow run here must leave an NSN above the
  /// memorized value on the old root, so the traversal follows its
  /// rightlink (the Delete and insert root-step regression tests pin that
  /// order).
  std::function<void()> before_root_read;
  /// Crash injection: returning non-OK after the split's page updates but
  /// before its NTA-End aborts the operation mid-structure-modification —
  /// the restart-recovery scenario of paper section 9.
  std::function<Status()> before_split_nta_end;
  /// Fires inside GrowRoot after the Root-Change record is logged and the
  /// new root is built, but before the meta page's root pointer moves.
  /// The meta page is X-latched across the whole window, so a concurrent
  /// traversal started here blocks on the root pointer instead of pairing
  /// a fresh memorized NSN with the stale root (the lost-key race the
  /// root-grow regression test pins).
  std::function<void()> during_root_grow;
};

/// Per-tree operation counters. These are views onto "gist.*" counters in
/// the owning registry (Database's, or the process fallback), so the same
/// numbers appear in Database::DumpMetrics(); obs::Counter keeps the old
/// std::atomic surface (load / fetch_add) so existing callers read them
/// unchanged.
struct GistStats {
  explicit GistStats(obs::MetricsRegistry* reg);

  obs::Counter& searches;
  obs::Counter& inserts;
  obs::Counter& deletes;
  obs::Counter& splits;
  obs::Counter& root_grows;
  obs::Counter& rightlink_follows;
  obs::Counter& predicate_waits;
  obs::Counter& rid_lock_waits;
  /// Leaves a read-committed search filtered without record locks, their
  /// page LSN below the Commit_LSN.
  obs::Counter& unlocked_leaf_visits;
  obs::Counter& gc_removed;
  obs::Counter& nodes_deleted;
};

/// A Generalized Search Tree with the paper's concurrency, isolation and
/// recovery protocols:
///   - search/insert/delete per Figures 3-4 (stack + memorized global NSN,
///     rightlink compensation, no latch coupling, no latches across I/O or
///     lock waits);
///   - hybrid repeatable-read locking: 2PL on data-record RIDs + node-
///     attached predicate locks with replication and percolation;
///   - logical deletes with deferred garbage collection, drain-technique
///     node deletion guarded by signaling locks;
///   - all structure modifications logged as nested top actions with the
///     Table 1 record set.
///
/// Thread-safe: any number of concurrent operations, one transaction per
/// thread at a time.
class Gist {
 public:
  Gist(const GistContext& ctx, const GistExtension* ext, GistOptions opts);
  GISTCR_DISALLOW_COPY_AND_ASSIGN(Gist);

  /// Creates the index: allocates and formats an empty root leaf and
  /// registers it on the meta page. Unlogged; the caller (Database) flushes
  /// before the index is used. InvalidArgument for id 0 or an id in use,
  /// NoSpace when the meta page's root table is full; either before
  /// anything is allocated or logged.
  Status Create();

  /// Opens an existing index (validates the root pointer).
  Status Open();

  /// SEARCH: all leaf entries consistent with \p query, S-locking result
  /// RIDs and (at repeatable read) attaching the search predicate top-down
  /// to every visited node. A snapshot transaction instead sees the
  /// entries visible to its snapshot and makes no lock-manager call.
  Status Search(Transaction* txn, Slice query,
                std::vector<SearchResult>* out);

  /// INSERT of (key, rid). X-locks the data record itself before touching
  /// the tree (paper section 6 step 1); callers take no lock first. Blocks
  /// on conflicting search predicates attached to the target leaf.
  /// InvalidArgument (nothing locked or logged) if CheckKey rejects \p key.
  Status Insert(Transaction* txn, Slice key, Rid rid) {
    return Write(txn, WriteKind::kInsert, key, rid);
  }

  /// Unique-index insert (section 8): search phase leaving "= key" probe
  /// predicates, then the regular insert. Returns DuplicateKey (repeatably,
  /// via the S lock on the existing record) if the key exists.
  Status InsertUnique(Transaction* txn, Slice key, Rid rid) {
    return Write(txn, WriteKind::kInsertUnique, key, rid);
  }

  /// DELETE: logical delete — the leaf entry is only marked (section 7);
  /// garbage collection removes it after the deleter commits. X-locks the
  /// data record itself, like Insert.
  Status Delete(Transaction* txn, Slice key, Rid rid) {
    return Write(txn, WriteKind::kDelete, key, rid);
  }

  /// InvalidArgument unless \p key fits a node and decodes as a key (or
  /// \p query as a query) of this tree's extension.
  Status CheckKey(Slice key) const;
  Status CheckQuery(Slice query) const;

  /// Maintenance sweep (section 7.1-7.2): removes committed-deleted leaf
  /// entries, shrinks parent BPs, and retires empty nodes via the drain
  /// technique. Runs in the caller's transaction (all actions are
  /// individually committed NTAs; the surrounding txn carries no undo).
  Status GarbageCollect(Transaction* txn, uint64_t* entries_removed,
                        uint64_t* nodes_deleted);

  /// Quiescent structural validation for tests: BP containment, level
  /// sanity, rightlink acyclicity, RID uniqueness among live leaf entries.
  Status CheckInvariants();

  /// Collects every (key, rid, del_txn) in the tree (tests).
  Status DumpEntries(std::vector<IndexEntry>* out);

  /// Tree height (tests/benchmarks).
  StatusOr<uint32_t> Height();

  PageId root_hint();
  uint32_t index_id() const { return opts_.index_id; }
  const GistExtension* extension() const { return ext_; }
  GistStats& stats() { return stats_; }
  GistTestHooks& test_hooks() { return hooks_; }
  const GistOptions& options() const { return opts_; }

  /// One traversal-stack entry (Figure 3): a node pointer plus the global
  /// counter value memorized when the pointer was read (or, on insert
  /// parent stacks, the node's NSN when visited). Public for GistCursor's
  /// saved positions.
  struct StackEntry {
    PageId page;
    Nsn nsn;
  };

 private:
  /// Create's body under the bootstrap transaction \p boot: allocates and
  /// formats the root leaf and registers it on the meta page.
  Status InstallRoot(Transaction* boot);

  // --- shared helpers -------------------------------------------------
  StatusOr<PageId> GetRoot();
  Status FetchLatched(PageId pid, bool exclusive, PageGuard* out);
  bool NodeIsFull(NodeView& node, const IndexEntry& e) const;
  bool LinkProtocol() const {
    return opts_.protocol != ConcurrencyProtocol::kUnsafeNoLink;
  }

  /// Consistency between a BP (or key) and an attached predicate.
  /// Search/probe attachments carry query-domain bytes; insert attachments
  /// carry the raw inserted key, wrapped into an equality query here.
  bool PredConsistentWithBp(Slice bp, const PredAttachment& a) const {
    if (a.kind == PredKind::kInsert) {
      return ext_->Consistent(bp, ext_->EqQuery(a.pred));
    }
    return ext_->Consistent(bp, a.pred);
  }

  /// Signaling-lock helpers (paper section 7.2).
  Status SignalLock(Transaction* txn, PageId node);
  void SignalUnlock(Transaction* txn, PageId node);

  /// kGlobal ablation (pure predicate locking, section 4.2): checks
  /// \p pred against the tree-global predicate list, waits out every
  /// conflicting owner, then registers it. An insert or delete key
  /// (PredKind::kInsert) conflicts with registered scans and probes
  /// consistent with it; a scan or probe with registered keys consistent
  /// with its query. No-op in kHybrid.
  Status RegisterGlobalPredicate(Transaction* txn, uint64_t op_id,
                                 PredKind kind, Slice pred);

  enum class WriteKind : uint8_t { kInsert, kInsertUnique, kDelete };

  /// The one write prologue behind Insert, InsertUnique and Delete: trace
  /// span, tree-stage scope and op counter, CheckKey, the data record's X
  /// lock (section 6 step 1) and the kGlobal registration. Then it runs
  /// the operation under the kCoarse tree latch: InsertCore (after the
  /// section 8 probe, for kInsertUnique) or DeleteCore.
  Status Write(Transaction* txn, WriteKind kind, Slice key, Rid rid);

  // --- search ----------------------------------------------------------
  /// Delete's leaf action (section 7): the live (key, value) to find, and
  /// where VisitNext reports the leaf it was found on and that leaf's NSN
  /// at the time (the delimiter for LatchEntryLeaf).
  struct EntryTarget {
    Slice key;
    uint64_t value;
    StackEntry found{kInvalidPageId, 0};
  };

  /// What a traversal asks of every node it visits; fixed for the whole
  /// traversal (one Search call, one unique probe, one GistCursor, or one
  /// Delete).
  struct ReadSpec {
    Slice query;
    /// Predicate kind attached by hybrid_attach: kSearch for scans,
    /// kUniqueProbe for unique-insert probes.
    PredKind attach_kind;
    /// Attach the predicate to every visited node (section 4.3).
    bool hybrid_attach;
    uint64_t op_id;
    /// Delete: instead of filtering leaves, look for this entry.
    EntryTarget* target = nullptr;
  };

  /// Core traversal shared by Search and unique probes. \p attach: the
  /// operation registers its predicate (repeatable-read scans, unique
  /// probes) — on every visited node in kHybrid mode, in the tree-global
  /// list in kGlobal mode.
  Status SearchInternal(Transaction* txn, Slice query, PredKind attach_kind,
                        bool attach, uint64_t op_id,
                        std::vector<SearchResult>* out);

  /// The Figure 3 traversal loop shared by SearchInternal and Delete:
  /// PushRoot, then VisitNext until the stack is empty or, for a Delete,
  /// spec.target is found. \p tree is the caller's kCoarse tree latch.
  Status Traverse(Transaction* txn, const ReadSpec& spec,
                  internal::TreeLatch* tree, std::vector<SearchResult>* out);

  /// The root step of every traversal (Traverse, GistCursor::Open and
  /// LocateLeaf): memorize the global NSN, read the root pointer, protect
  /// it with a signaling lock (not for snapshot reads; see VisitNext), and
  /// push it. The lint rule root-step-outside-pushroot keeps it the only
  /// function that both memorizes the NSN and reads the root.
  Status PushRoot(Transaction* txn, std::vector<StackEntry>* stack);

  /// Pops and visits one stack entry per Figure 3, shared by Traverse and
  /// GistCursor: S-latch the node, compensate for splits since the
  /// pointer was memorized (Figure 2), then push consistent children
  /// (internal node) or filter qualifying entries into \p out (leaf). A
  /// Delete's leaf visit instead looks for spec.target's live entry and,
  /// when it finds it, keeps the leaf's signaling lock for Delete to
  /// release after the mark.
  ///
  /// The transaction's isolation level picks the leaf filter: snapshot
  /// transactions read through FilterLeafSnapshot, everyone else through
  /// the 2PL FilterLeafLocked. Every stacked pointer of a 2PL reader
  /// carries a signaling lock until its visit (section 7.2); a snapshot
  /// reader takes none, because its snapshot, in the transaction table,
  /// defers all node retirement (TransactionManager::HasActiveSnapshots)
  /// from before it read any pointer. \p tree is the kCoarse tree latch,
  /// released around lock waits.
  Status VisitNext(Transaction* txn, const ReadSpec& spec,
                   std::vector<StackEntry>* stack,
                   std::unordered_set<uint64_t>* seen,
                   std::vector<SearchResult>* out, internal::TreeLatch* tree);

  /// 2PL leaf filter (sections 4.3, 5 and 10.3) on the S-latched leaf
  /// \p g: S-locks each qualifying record and, under hybrid_attach,
  /// attaches the predicate and queues behind conflicting inserts. A lock
  /// wait unlatches first and sets *rescan: the caller re-reads the leaf
  /// (`seen` keeps results unique). A read-committed search unlocks each
  /// record once it has checked its delete mark; a record it waited for
  /// is kept in \p waited, still locked, until the rescan has checked it.
  /// With no such record, it takes no record lock at all on a leaf whose
  /// page LSN is below TransactionManager::CommitLsn.
  Status FilterLeafLocked(Transaction* txn, const ReadSpec& spec,
                          PageGuard* g, std::unordered_set<uint64_t>* seen,
                          std::vector<SearchResult>* out,
                          internal::TreeLatch* tree,
                          std::optional<uint64_t>* waited, bool* rescan);

  /// MVCC leaf filter (DESIGN.md section 14.3): emits the entries the
  /// snapshot of \p txn can see. Makes zero lock-manager calls — the
  /// lock.acquires test asserts it, and tools/gistcr_lint.py checks every
  /// Snapshot-named function for predicate attaches and lock waits.
  Status FilterLeafSnapshot(Transaction* txn, Slice query,
                            const NodeView& leaf,
                            std::unordered_set<uint64_t>* seen,
                            std::vector<SearchResult>* out);

  /// Runs \p wait (a lock-manager wait) with neither the latch of \p g
  /// nor the kCoarse tree latch held, then re-acquires both: blocking
  /// under a latch could deadlock undetectably against the lock owner
  /// (section 5).
  Status WaitUnlatched(PageGuard* g, internal::TreeLatch* tree,
                       const std::function<Status()>& wait);

  friend class GistCursor;

  // --- insert ----------------------------------------------------------
  /// Figure 4 locateLeaf: PushRoot's root step, then a penalty descent
  /// with rightlink compensation; fills the ancestor stack (bottom =
  /// root-most, each node with its NSN as visited) and returns the leaf
  /// X-latched. Signaling locks are taken on every stacked node and the
  /// leaf; the caller releases stack locks at op end (the leaf lock is
  /// kept to end of transaction, section 7.2).
  Status LocateLeaf(Transaction* txn, Slice key,
                    std::vector<StackEntry>* stack, PageGuard* leaf);

  /// Figure 4 splitNode as one nested top action, splitting ancestors
  /// recursively as needed. \p node stays valid (original page, still
  /// X-latched) on return. \p ancestors: how many entries of \p stack
  /// lie on \p node's root path (its parent is stack[ancestors - 1]).
  Status SplitNode(Transaction* txn, PageGuard* node,
                   const std::vector<StackEntry>& stack, size_t ancestors);

  /// One split step inside an open NTA (no NtaBegin/End of its own).
  Status SplitNodeInNta(Transaction* txn, PageGuard* node,
                        const std::vector<StackEntry>& stack,
                        size_t ancestors);

  /// Root growth (B-link upward split) inside an open NTA.
  Status GrowRoot(Transaction* txn, PageGuard* root);

  /// The split plan both split steps share: allocates the right sibling
  /// and returns it X-latched in \p sib, and fills \p pl from PickSplit
  /// over the X-latched \p g's entries. The NSN is left to LogSplit.
  Status PlanSplit(Transaction* txn, PageGuard* g, PageGuard* sib,
                   SplitPayload* pl);

  /// The logged split both split steps share: takes the split's NSN
  /// (counter mode), appends the Split record, applies it to \p g and
  /// \p sib, and replicates predicates and signaling locks onto the
  /// sibling (sections 4.3 and 7.2). Call once the parent has room (or,
  /// for a root grow, the meta page is X-latched), so no reader can
  /// memorize the NSN and still miss the split.
  Status LogSplit(Transaction* txn, SplitPayload* pl, PageGuard* g,
                  PageGuard* sib);

  /// Figure 4 updateBP: recursive upward latching, top-down application on
  /// unwind, one Parent-Entry-Update per level, predicate percolation.
  Status UpdateBp(Transaction* txn, PageGuard* node, const std::string& bp,
                  const std::vector<StackEntry>& stack, size_t ancestors);

  /// The one parent search of the split and BP-update steps: X-latches
  /// stack[ancestors - 1], or the node of its rightlink chain now holding
  /// \p child's entry. With \p ancestors 0, \p out stays empty when
  /// \p child is the root (the caller's X latch on it holds off a grow).
  /// If the root grew during the descent, walks the tree instead.
  /// \p out_ancestors: the ancestors to pass on for the parent (0 when
  /// found by the walk).
  Status LatchParentForChild(const std::vector<StackEntry>& stack,
                             size_t ancestors, PageId child, PageGuard* out,
                             size_t* out_ancestors);

  /// LatchEntryLeaf (gist_apply.h) for the forward path, counting the
  /// rightlinks it follows as traversal restarts.
  Status LatchEntry(PageId start, Nsn nsn, Slice key, uint64_t value,
                    PageGuard* out);

  /// Opportunistic leaf GC (committed-deleted entries) to make room before
  /// splitting. Leaf is X-latched.
  Status LeafGc(Transaction* txn, PageGuard* leaf, uint64_t* removed);

  /// Insert's body (Figure 4 and section 6 steps 2-6), run by Write.
  Status InsertCore(Transaction* txn, Slice key, Rid rid, uint64_t op_id,
                    internal::TreeLatch* tree);

  /// Delete's body (section 7), run by Write.
  Status DeleteCore(Transaction* txn, Slice key, Rid rid, uint64_t op_id,
                    internal::TreeLatch* tree);

  /// Figure 4 rightlink-chain penalty chase: \p g holds a latched node
  /// whose NSN exceeds \p delimiter; on return \p g holds the chain node
  /// with the lowest insert penalty for \p key (latched in \p exclusive
  /// mode). Signaling locks of rejected chain nodes are released; the
  /// chosen node's is held.
  Status ChaseForPenalty(Transaction* txn, PageGuard* g, Nsn delimiter,
                         Slice key, bool exclusive);

  // --- maintenance -----------------------------------------------------
  /// The one node walker (GC's population snapshot, LatchParentForChild,
  /// DumpEntries): breadth-first over every node reachable from the root
  /// by child pointers and rightlinks, each S-latched alone while
  /// \p visit reads it. \p visit returns false to end the walk.
  Status WalkTree(const std::function<bool(PageId, const NodeView&)>& visit);

  Status TryDeleteChild(Transaction* txn, PageGuard* parent, PageId child,
                        bool* deleted);
  Status ShrinkChildBp(Transaction* txn, PageGuard* parent, PageGuard* child);

  // --- invariant checking ----------------------------------------------
  Status CheckNode(PageId pid, Slice parent_pred, uint32_t expected_level,
                   bool has_expected_level,
                   std::unordered_set<uint64_t>* rids,
                   std::unordered_set<PageId>* visited);

  GistContext ctx_;
  const GistExtension* ext_;
  GistOptions opts_;
  GistStats stats_;
  obs::Histogram* latch_wait_ns_;  ///< Per-acquisition latch wait time.
  GistTestHooks hooks_;

  /// kCoarse baseline: tree-wide latch.
  SharedMutex tree_latch_{GISTCR_LOCK_RANK(kTreeLatch, "gist.tree_latch")};
  /// One GarbageCollect sweep at a time (its rightlink-owner analysis
  /// assumes it is the only deleter).
  Mutex gc_mu_{GISTCR_LOCK_RANK(kGistGc, "gist.gc.mu")};
};

}  // namespace gistcr

#endif  // GISTCR_GIST_GIST_H_
