#ifndef GISTCR_DB_DATABASE_H_
#define GISTCR_DB_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/mutex.h"
#include "db/data_store.h"
#include "db/page_allocator.h"
#include "gist/gist.h"
#include "mvcc/mvcc_manager.h"
#include "obs/metrics.h"
#include "obs/slow_op_log.h"
#include "recovery/recovery_manager.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "txn/lock_manager.h"
#include "txn/predicate_manager.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace gistcr {

struct DatabaseOptions {
  std::string path;  ///< Base path: <path>.db, <path>.wal, <path>.ckpt.
  size_t buffer_pool_pages = 4096;
  NsnSource nsn_source = NsnSource::kLsn;
  /// fdatasync the log on commit/flush. Benchmarks measuring protocol
  /// scaling may disable it; anything testing durability must not.
  bool sync_commit = true;
  /// When non-zero, a background maintenance thread runs every this many
  /// milliseconds: fuzzy checkpoint (+ WAL space reclamation), a
  /// garbage-collection sweep over every open index (paper section 7.1:
  /// physical removal "performed as garbage collection by other
  /// operations" — here, a dedicated daemon, like PostgreSQL's vacuum)
  /// and a version-store prune.
  uint32_t maintenance_interval_ms = 0;
  /// When non-zero, a background writer thread runs every this many
  /// milliseconds, cleaning up to 1/8 of each shard's frames just ahead of
  /// its clock hand (BufferPool::WriteBackSome) so Fetch rarely has to
  /// write a dirty victim inline. Off by default: deterministic tests arm
  /// one-shot fault injection points that a concurrent writer could
  /// consume. Eviction always falls back to the synchronous write when the
  /// writer is behind (or disabled), so this is purely a latency
  /// optimization.
  uint32_t writer_interval_ms = 0;
};

/// The engine facade: wires disk, buffer pool, WAL, transactions, locks,
/// predicates, recovery and the heap data store; owns the GiST indexes.
///
/// Lifecycle:
///   auto db = Database::Create(opts);            // mkfs
///   db->CreateIndex(1, &ext);                    // register + format
///   ... workload ...
///   db->Checkpoint(); db.reset();                // clean shutdown
///   auto db2 = Database::Open(opts);             // restart recovery runs
///   db2->OpenIndex(1, &ext);
///
/// Crash testing: SimulateCrash() drops all volatile state (buffer pool
/// contents and the unflushed log tail) exactly as a power failure would;
/// the Database object is then dead and must be re-Opened.
class Database {
 public:
  ~Database();
  GISTCR_DISALLOW_COPY_AND_ASSIGN(Database);

  /// Creates a fresh database (truncating any existing files at the path).
  static StatusOr<std::unique_ptr<Database>> Create(
      const DatabaseOptions& opts);

  /// Opens an existing database with instant restart (DESIGN.md section
  /// 16): returns right after log analysis, while pages are redone on
  /// first touch or by background drainers and losers undo as ordinary
  /// aborts beside new work. Call WaitForRecovery for a drained database.
  static StatusOr<std::unique_ptr<Database>> Open(
      const DatabaseOptions& opts);

  /// Formats a new GiST index. The extension must outlive the Database.
  Status CreateIndex(uint32_t index_id, const GistExtension* ext,
                     GistOptions opts = GistOptions());

  /// Attaches to an index that exists on disk.
  Status OpenIndex(uint32_t index_id, const GistExtension* ext,
                   GistOptions opts = GistOptions());

  StatusOr<Gist*> GetIndex(uint32_t index_id);

  Transaction* Begin(IsolationLevel iso = IsolationLevel::kRepeatableRead);
  Status Commit(Transaction* txn);
  /// Only an active transaction (txns()->IsActive) may abort: one whose
  /// Commit returned an error is in doubt, and aborting it fails a check.
  Status Abort(Transaction* txn);

  /// Inserts a data record and indexes it: Gist::CheckKey, heap insert,
  /// then the GiST insertion, which X-locks the new Rid first (paper
  /// section 6 step 1). With \p unique a DuplicateKey rolls the heap insert
  /// back to a savepoint and leaves the transaction usable; the call
  /// leaves the transaction's savepoints as it found them.
  StatusOr<Rid> InsertRecord(Transaction* txn, Gist* index, Slice key,
                             Slice record, bool unique = false);

  /// Logically deletes the index entry and tombstones the data record.
  Status DeleteRecord(Transaction* txn, Gist* index, Slice key, Rid rid);

  /// Reads a data record. With \p txn (read committed or repeatable
  /// read) the read holds the rid's S lock: at read committed only across
  /// the read, which waits out an uncommitted writer and returns NotFound
  /// if its delete committed; at repeatable read until commit, usually a
  /// reentrant acquisition of the lock Search left. A snapshot \p txn
  /// takes no lock. Without \p txn nothing is locked: only for callers
  /// that already hold the rid's lock or run alone (tests, verification).
  StatusOr<std::string> ReadRecord(Rid rid, Transaction* txn = nullptr);

  /// Blocks until background instant recovery (loser undo + page drain)
  /// has finished and returns its status. Immediate OK for a database
  /// made by Create (or once recovery has drained). Tests use this to
  /// compare final states; normal operation never needs to wait.
  Status WaitForRecovery();

  /// Fuzzy checkpoint + master-pointer update.
  Status Checkpoint();

  /// Flush everything (clean shutdown aid).
  Status FlushAll();

  /// Drops all volatile state — simulates a crash. The object becomes
  /// unusable except for destruction; re-Open to recover.
  void SimulateCrash();

  /// One maintenance pass (what the background thread runs): checkpoint,
  /// reclaim WAL space, garbage-collect every open index. Callable
  /// directly when no daemon is configured. Refuses with Status::Aborted
  /// once PrepareShutdown() has been called.
  Status RunMaintenancePass();

  /// Shutdown latch: joins the background maintenance thread and prevents
  /// any further maintenance passes (and with them background checkpoints)
  /// from starting. The network server calls this when it begins draining
  /// sessions, so no checkpoint races the drain; explicit Checkpoint()
  /// calls still work — the drain sequence ends with one. Idempotent.
  void PrepareShutdown();

  /// Snapshot of every metric this instance's components recorded — all
  /// "gist.*", "bp.*", "wal.*", "lock.*", "pred.*", "txn.*" and
  /// "recovery.*" names (DESIGN.md "Observability" has the catalogue).
  /// Derived gauges (bp.hit_rate) are refreshed first. \p as_json selects
  /// machine-readable output; the default is an aligned text table.
  std::string DumpMetrics(bool as_json = false);

  /// Same metric snapshot in Prometheus text exposition format (names
  /// prefixed "gistcr_"; histograms with cumulative `le` buckets).
  std::string DumpMetricsPrometheus();

  /// Live introspection views (the kInspect wire surface), each a JSON
  /// object/array: "slow" (slow-op ring), "waitgraph" (lock-manager
  /// wait-for edges), "bp" (buffer-pool shard occupancy), "wal" (flusher
  /// queue depth), "recovery" (instant-restart drain progress).
  /// InvalidArgument for anything else.
  StatusOr<std::string> InspectJson(const std::string& what);

  /// Writes every buffered trace event as a chrome://tracing JSON array.
  Status ExportTrace(const std::string& path);

  // Component access (tests, benchmarks).
  BufferPool* pool() { return pool_.get(); }
  LogManager* log() { return &log_; }
  TransactionManager* txns() { return txns_.get(); }
  LockManager* locks() { return &locks_; }
  PredicateManager* preds() { return &preds_; }
  PageAllocator* allocator() { return alloc_.get(); }
  DataStore* data() { return data_.get(); }
  RecoveryManager* recovery() { return recovery_.get(); }
  MvccManager* mvcc() { return &mvcc_; }
  GlobalNsn* nsn() { return nsn_.get(); }
  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::SlowOpLog* slow_ops() { return &slow_ops_; }

 private:
  explicit Database(const DatabaseOptions& opts);

  Status InitCommon();
  Status ReadMasterPointer(Lsn* lsn);
  /// Names \p checkpoint in the master pointer, durably, unless a newer
  /// master or a reclaim past \p redo_floor got there first; then
  /// reclaims the log below the floor.
  Status WriteMasterPointer(Lsn checkpoint, Lsn redo_floor);
  GistContext MakeContext();

  /// Refreshes derived gauges (bp.hit_rate) so dumps are self-contained.
  void RefreshDerivedGauges();

  DatabaseOptions opts_;
  /// Declared before the components so it outlives everything that caches
  /// pointers into it.
  obs::MetricsRegistry metrics_;
  obs::SlowOpLog slow_ops_;
  /// Version store (DESIGN.md section 14).
  MvccManager mvcc_;
  DiskManager disk_;
  LogManager log_;
  std::unique_ptr<BufferPool> pool_;
  LockManager locks_;
  PredicateManager preds_;
  std::unique_ptr<TransactionManager> txns_;
  std::unique_ptr<GlobalNsn> nsn_;
  std::unique_ptr<PageAllocator> alloc_;
  std::unique_ptr<DataStore> data_;
  std::unique_ptr<RecoveryManager> recovery_;

  void StartMaintenance();
  void StopMaintenance();
  void StartWriter();
  void StopWriter();
  void StartRecovery();
  void StopRecovery();

  /// Orders master-pointer renames and the log reclaim after them
  /// (Checkpoint). Never held across an fsync.
  Mutex master_mu_{GISTCR_LOCK_RANK(kDbMaster, "db.master.mu")};
  /// The checkpoint the master pointer names. It only moves forward.
  Lsn master_lsn_ GISTCR_GUARDED_BY(master_mu_) = kInvalidLsn;

  Mutex indexes_mu_{GISTCR_LOCK_RANK(kDbIndexes, "db.indexes.mu")};
  std::unordered_map<uint32_t, std::unique_ptr<Gist>> indexes_
      GISTCR_GUARDED_BY(indexes_mu_);

  std::thread maint_thread_;
  Mutex maint_mu_{GISTCR_LOCK_RANK(kDbMaintenance, "db.maint.mu")};
  CondVar maint_cv_;
  bool maint_stop_ GISTCR_GUARDED_BY(maint_mu_) = false;

  std::thread writer_thread_;
  Mutex writer_mu_{GISTCR_LOCK_RANK(kDbWriter, "db.writer.mu")};
  CondVar writer_cv_;
  bool writer_stop_ GISTCR_GUARDED_BY(writer_mu_) = false;

  /// Background instant-recovery thread (loser undo + page drain).
  std::thread recovery_thread_ GISTCR_GUARDED_BY(recovery_mu_);
  Mutex recovery_mu_{GISTCR_LOCK_RANK(kDbRecovery, "db.recovery.mu")};
  CondVar recovery_cv_;
  /// Starts true so WaitForRecovery is a no-op after Create.
  bool recovery_done_ GISTCR_GUARDED_BY(recovery_mu_) = true;
  Status recovery_status_ GISTCR_GUARDED_BY(recovery_mu_);
  std::atomic<bool> recovery_stop_{false};
  /// One-way latch; set by PrepareShutdown (see above).
  std::atomic<bool> shutting_down_{false};

  bool crashed_ = false;
};

}  // namespace gistcr

#endif  // GISTCR_DB_DATABASE_H_
