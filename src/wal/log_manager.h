#ifndef GISTCR_WAL_LOG_MANAGER_H_
#define GISTCR_WAL_LOG_MANAGER_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "wal/log_record.h"

namespace gistcr {

/// Append-only write-ahead log. LSNs are byte offsets of record starts in
/// the log file (the file begins with an 8-byte magic, so LSN 0 stays the
/// invalid sentinel). Offsets make LSNs monotonically increasing, which is
/// what lets them double as the tree-global NSN counter (paper section
/// 10.1): `last_lsn()` *is* the global counter value a descending operation
/// memorizes.
///
/// Thread-safe. The write pipeline is split in two so no appender ever sits
/// behind an in-flight fdatasync (DESIGN.md section 11):
///
///  - **Append path** (any thread): takes `mu_`, extends the in-memory tail
///    buffer, assigns the LSN, returns. The mutex is only ever held for
///    memory operations — never across disk I/O.
///  - **Flusher thread** (one per open log, started by Open): woken when a
///    caller needs durability, it swaps the tail buffer out under `mu_`,
///    releases the mutex, pwrites + fdatasyncs the batch, then re-takes the
///    mutex to advance durable_lsn() and broadcast to waiters. One fsync
///    retires every record (and so every commit) appended before it — true
///    group commit.
///  - **Readers** (restart's analysis and replay, rollback): records below
///    the durable end are read from the file without the mutex (Scan,
///    ReadRecord); only the in-memory tail is read under it.
///
/// Flush(lsn) is the waiter side of the handshake: it records the request,
/// wakes the flusher, and blocks until durable_lsn() covers the target or
/// the log stops.
///
/// **Fail-stop.** The first failed pwrite or fdatasync, or a DiscardTail,
/// stops the log until the next Open: Append and every Flush past
/// durable_lsn() return that first status, the flusher cuts no batch, and
/// Close writes nothing. Nothing is retried: what the file holds at the
/// next Open (a failed batch whose pwrite landed included) is the log,
/// and the restart decides every transaction from it alone (DESIGN.md
/// section 11.1).
class LogManager {
 public:
  LogManager();
  ~LogManager();
  GISTCR_DISALLOW_COPY_AND_ASSIGN(LogManager);

  /// Re-points the log's metrics at \p reg (null: process fallback). Call
  /// before concurrent use; the Database facade does so at init.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Opens (creating if absent) the log file, positions at its end, and
  /// starts the flusher thread. Scans backwards-compatible: an existing
  /// file is validated lazily by Scan during recovery, which cuts a torn
  /// tail off with CutTail.
  Status Open(const std::string& path);

  /// Stops the flusher, drains the tail buffer best-effort unless the log
  /// has stopped, and closes the file. Idempotent; Open may be called
  /// again afterwards.
  void Close();

  /// Appends \p rec, assigning rec->lsn. Does not flush; the record
  /// becomes durable when a later Flush covers its LSN. Returns the
  /// log's stop status, appending nothing, once the log has stopped.
  ///
  /// \p on_lsn, when set, runs with the new LSN before the mutex is
  /// released, so it happens before any flush batch that can contain the
  /// record is cut: no durable_lsn() covers the record until it returns.
  /// The commit path stamps its MVCC versions there (DESIGN.md section
  /// 14.2). It runs under wal.mu and may touch memory only: no I/O, no
  /// log call, no lock ranked at or below kWal.
  Status Append(LogRecord* rec,
                const std::function<void(Lsn)>& on_lsn = nullptr);

  /// Blocks until the log is durable up to and including \p lsn
  /// (kInvalidLsn: everything appended so far). Many concurrent callers
  /// are retired by one fdatasync. A target durable_lsn() already covers
  /// is OK even on a stopped log; any other returns the stop status once
  /// the log stops. InvalidArgument for a target past last_lsn(), which
  /// no record can cover.
  Status Flush(Lsn lsn);
  Status FlushAll() { return Flush(kInvalidLsn); }

  /// LSN of the most recently appended record — the paper's "global NSN"
  /// counter value (section 10.1).
  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_acquire); }
  Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  /// LSN the next appended record will get: every record appended from
  /// now on lies at or above it, and it is always a record boundary.
  /// (last_lsn() is no record start right after Open, when it is the
  /// durable end.) Lock-free.
  Lsn next_lsn() const { return next_lsn_.load(std::memory_order_acquire); }

  /// Reads the record at \p lsn and sets rec->lsn. A record below the
  /// durable end is read from the file without the mutex: one pread of a
  /// kReadPrefix-byte prefix into a per-thread buffer, and a second only
  /// for a longer record. Decoding reuses rec->payload's capacity, so a
  /// caller that reuses one LogRecord allocates nothing per record. A
  /// record at or above the durable end is decoded from the in-memory tail
  /// under the mutex. NotFound past the log end; Corruption for bytes that
  /// hold no whole record.
  ///
  /// Durable bytes never change: a batch becomes durable only after its
  /// pwrite and fdatasync succeed, and reclaim punches only below the
  /// redo floor, at or above which every restart and rollback read lies.
  /// Must not run concurrently with Close.
  Status ReadRecord(Lsn lsn, LogRecord* rec);

  /// Iterates durable+buffered records with from <= lsn <= upto, in LSN
  /// order (\p from kInvalidLsn: from the log start; \p upto kInvalidLsn:
  /// to the log end). The callback may return false to stop; the record it
  /// gets is valid only during the call.
  ///
  /// The one sequential reader: up to the durable end it saw when called,
  /// the scan preads kScanChunk-byte chunks without the mutex (the buffer
  /// sized to the bytes read, a record longer than a chunk read whole) and
  /// decodes each record in place into one reused LogRecord; then it goes
  /// on record by record through whatever lies beyond (ReadRecord). It
  /// stops quietly at the first torn or corrupt record — a short header,
  /// an implausible length, a body that runs past the end, a CRC failure:
  /// the crash-truncated tail. Instant restart bounds its analysis at the
  /// log end it saw, so redo planning stays confined to that window while
  /// new user appends extend the log concurrently.
  Status Scan(Lsn from, Lsn upto,
              const std::function<bool(const LogRecord&)>& fn);

  /// Cuts the file at \p end, the end of the last whole record restart's
  /// analysis read, so torn bytes above it cannot hide the records
  /// appended after them from the next restart: ftruncate + fdatasync
  /// without the mutex, then next_lsn() starts at \p end, and durable_lsn()
  /// and last_lsn() at the byte below it, as after Open. Call after Open
  /// and before anything is appended; \p end must not pass the file's end.
  Status CutTail(Lsn end);

  /// First valid LSN in the log (just past the file magic).
  static constexpr Lsn kFirstLsn = 8;
  /// Bytes a durable ReadRecord reads first; most records fit.
  static constexpr size_t kReadPrefix = 1024;
  /// Bytes a Scan reads from the durable file at a time.
  static constexpr size_t kScanChunk = 1u << 20;

  /// Total bytes appended so far (for benchmarks measuring log volume).
  uint64_t TotalBytes() const;

  /// Simulates a crash: stops the log (Aborted) and drops the unflushed
  /// tail buffer. Records with LSN beyond durable_lsn() are lost, exactly
  /// as after a power failure. A flush already in flight is allowed to
  /// land first (a power cut may or may not persist a write the kernel
  /// already accepted). Nothing is appended again until Close and Open,
  /// which resume at the durable end.
  void DiscardTail();

  /// When disabled, flushes write to the OS but skip fdatasync. Benchmarks
  /// measuring protocol scaling (not commit durability) turn this off so
  /// fsync latency does not dominate; correctness-under-crash tests keep
  /// it on (the default).
  void SetSyncOnFlush(bool sync) {
    sync_on_flush_.store(sync, std::memory_order_relaxed);
  }

  /// Reclaims the disk space of records below \p lsn by punching a hole in
  /// the file (LSNs stay byte offsets, so nothing else changes). The caller
  /// must guarantee no record below \p lsn can ever be needed again —
  /// i.e., \p lsn <= min(checkpoint LSN, every DPT rec_lsn, every active
  /// transaction's first_lsn) — and must not run two reclaims at once, or
  /// one concurrently with Close. Best effort: returns the bytes
  /// reclaimed, 0 if the filesystem does not support hole punching.
  StatusOr<uint64_t> ReclaimBefore(Lsn lsn);

  /// Lowest LSN still readable (everything below was reclaimed).
  Lsn reclaimed_before() const {
    return reclaimed_before_.load(std::memory_order_acquire);
  }

  /// Point-in-time view of the flusher pipeline, for the introspection
  /// surface (kInspect "wal").
  struct FlusherStats {
    uint64_t tail_bytes = 0;      ///< unflushed tail buffer
    uint64_t inflight_bytes = 0;  ///< batch currently being written
    uint64_t pending_records = 0;
    uint64_t pending_commits = 0;
    bool flush_in_flight = false;
    uint64_t last_flush_ns = 0;   ///< duration of the last batch write+sync
    Lsn durable_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
  };
  FlusherStats GetFlusherStats() const;

 private:
  /// One batch handed from the appender state to an unlocked I/O section.
  /// The data pointer aims into flushing_, which no thread mutates while
  /// the flush is in flight (flush_in_flight_ brackets it).
  struct BatchIo {
    int fd = -1;
    const char* data = nullptr;
    size_t size = 0;
    Lsn base = kInvalidLsn;  ///< file offset of the batch's first byte
    Lsn last = kInvalidLsn;  ///< LSN of the batch's final record
  };

  /// Flusher thread body: sleep until a flush is wanted, batch, write.
  void FlusherLoop();

  /// Cuts everything appended so far into flushing_ as the next batch.
  BatchIo CutBatchLocked() GISTCR_REQUIRES(mu_);

  /// The write path both the flusher and Close's final drain run, with
  /// mu_ released: pwrite the batch at its offset, fdatasync it (when sync
  /// is on). \p flusher marks the flusher's
  /// own call, the only one that checks the wal.* crash points and
  /// injected sync faults; *\p io_ns gets the write+sync time.
  Status WriteBatch(const BatchIo& io, bool flusher, uint64_t* io_ns);

  /// Publishes a written batch as durable, or after a failed write stops
  /// the log with \p st (the batch stays in flushing_, readable, and is
  /// never retried); wakes the waiters either way.
  void FinishBatchLocked(const BatchIo& io, const Status& st)
      GISTCR_REQUIRES(mu_);

  /// True when the flusher has work: someone requested durability beyond
  /// durable_lsn(), or the tail buffer outgrew the flush-ahead cap.
  /// Always false once the log has stopped.
  bool WantsFlushLocked() const GISTCR_REQUIRES(mu_);

  /// Locates \p lsn in flushing_ or buffer_ and decodes it. NotFound past
  /// the tail end.
  Status ReadBufferedLocked(Lsn lsn, LogRecord* rec) GISTCR_REQUIRES(mu_);

  /// Publishes \p end as the file's durable end and the next LSN (Open,
  /// CutTail).
  void SetEndLocked(Lsn end) GISTCR_REQUIRES(mu_);

  /// Flush-ahead cap: appenders beyond this much unflushed tail wake the
  /// flusher even with no durability waiter, bounding tail-buffer memory.
  static constexpr size_t kFlushAheadBytes = 8u << 20;

  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_append_bytes_ = nullptr;
  obs::Counter* m_flushes_ = nullptr;
  obs::Counter* m_flusher_wakeups_ = nullptr;
  obs::Counter* m_flusher_errors_ = nullptr;
  obs::Histogram* m_fsync_ns_ = nullptr;
  obs::Histogram* m_batch_records_ = nullptr;
  obs::Histogram* m_batch_commits_ = nullptr;
  obs::Histogram* m_batch_bytes_ = nullptr;
  obs::Histogram* m_flush_wait_ns_ = nullptr;

  mutable Mutex mu_{GISTCR_LOCK_RANK(kWal, "wal.mu")};
  /// Broadcast by the flusher after every attempt (success or failure) and
  /// by Close; Flush waiters and DiscardTail sleep on it.
  CondVar durable_cv_;
  /// Signalled when WantsFlushLocked may have become true; the flusher
  /// sleeps on it.
  CondVar work_cv_;

  std::string path_ GISTCR_GUARDED_BY(mu_);
  /// Unflushed tail past flushing_; first byte is at LSN
  /// durable_end_ + flushing_.size().
  std::string buffer_ GISTCR_GUARDED_BY(mu_);
  /// Batch the flusher is currently writing (empty when idle), or the
  /// batch whose write failed; starts at LSN durable_end_. Readable under
  /// mu_ while the flusher's I/O is in flight — the flusher only reads it
  /// outside the mutex and only clears it with the mutex held.
  std::string flushing_ GISTCR_GUARDED_BY(mu_);
  /// Highest LSN any Flush call asked to make durable.
  Lsn requested_lsn_ GISTCR_GUARDED_BY(mu_) = kInvalidLsn;
  /// Appends (and Commit-record appends) since the last flush batch cut.
  uint64_t pending_records_ GISTCR_GUARDED_BY(mu_) = 0;
  uint64_t pending_commits_ GISTCR_GUARDED_BY(mu_) = 0;
  /// Records/commits in the in-flight batch.
  uint64_t inflight_records_ GISTCR_GUARDED_BY(mu_) = 0;
  uint64_t inflight_commits_ GISTCR_GUARDED_BY(mu_) = 0;
  bool flush_in_flight_ GISTCR_GUARDED_BY(mu_) = false;
  /// Write+fsync duration of the most recent successful batch; Flush
  /// waiters use it to split their wait into fsync vs. queueing shares
  /// when attributing request stages (DESIGN.md section 12).
  uint64_t last_flush_ns_ GISTCR_GUARDED_BY(mu_) = 0;
  /// Not OK once the log has stopped (the class comment's fail-stop): the
  /// first failed batch write or DiscardTail sets it, Open clears it.
  Status stop_status_ GISTCR_GUARDED_BY(mu_);
  bool flusher_stop_ GISTCR_GUARDED_BY(mu_) = false;

  std::thread flusher_thread_;  ///< set in Open, joined in Close

  /// The log file and its durable size, the LSN of the first byte of
  /// flushing_ (or of buffer_ when no flush is in flight). Both are written
  /// only under mu_ (Open, Close, FinishBatchLocked, CutTail) and read
  /// lock-free by durable reads, which never run concurrently with Close:
  /// an acquire load of durable_end_ covers bytes whose pwrite and
  /// fdatasync returned before it was published.
  std::atomic<int> fd_{-1};
  std::atomic<Lsn> durable_end_{0};
  std::atomic<Lsn> last_lsn_{kInvalidLsn};
  std::atomic<Lsn> durable_lsn_{kInvalidLsn};
  /// Written only under mu_, read lock-free by next_lsn(): a
  /// transaction's first AppendTxnLog reads it just before its append,
  /// and must not take the mutex that append takes again.
  std::atomic<Lsn> next_lsn_{kFirstLsn};
  std::atomic<bool> sync_on_flush_{true};
  std::atomic<Lsn> reclaimed_before_{LogManager::kFirstLsn};
};

}  // namespace gistcr

#endif  // GISTCR_WAL_LOG_MANAGER_H_
