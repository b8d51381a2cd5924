#include "db/database.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "db/meta_page.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

namespace {

/// fsync()s the directory holding \p file, so a rename into it is
/// durable.
Status SyncDirOf(const std::string& file) {
  const size_t slash = file.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : file.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError("open " + dir);
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced ? Status::OK() : Status::IOError("fsync " + dir);
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
}

}  // namespace

Database::Database(const DatabaseOptions& opts) : opts_(opts) {}

Database::~Database() {
  // Clean shutdown: no crash artifact wanted from here on.
  obs::FlightRecorder::Global().Disarm();
  // Background threads drain before the final flush so no writer pass or
  // checkpoint races the shutdown I/O. Recovery first: it behaves like a
  // user thread (aborts, page fetches) and needs the others alive.
  StopRecovery();
  StopWriter();
  StopMaintenance();
  if (!crashed_) {
    (void)FlushAll();
  }
  indexes_.clear();
  log_.Close();
  disk_.Close();
}

GistContext Database::MakeContext() {
  GistContext ctx;
  ctx.pool = pool_.get();
  ctx.log = &log_;
  ctx.txns = txns_.get();
  ctx.locks = &locks_;
  ctx.preds = &preds_;
  ctx.alloc = alloc_.get();
  ctx.nsn = nsn_.get();
  ctx.metrics = &metrics_;
  ctx.mvcc = &mvcc_;
  return ctx;
}

Status Database::InitCommon() {
  // A floor on the frame count: concurrent structure modifications pin up
  // to ~2*height+4 frames each; starving them mid-modification is not a
  // recoverable condition (rollback itself needs frames). Restart's
  // drainers pin one frame each and at most a sixteenth of a shard in all
  // (RecoveryManager::RunInstantBackground): four at this floor.
  if (opts_.buffer_pool_pages < 64) {
    return Status::InvalidArgument("buffer_pool_pages must be >= 64");
  }
  GISTCR_RETURN_IF_ERROR(disk_.Open(opts_.path + ".db"));
  // The log's metrics must be re-pointed before Open: Open starts the
  // flusher thread, which reads the cached metric pointers from then on.
  disk_.AttachMetrics(&metrics_);
  log_.AttachMetrics(&metrics_);
  mvcc_.AttachMetrics(&metrics_);
  GISTCR_RETURN_IF_ERROR(log_.Open(opts_.path + ".wal"));
  log_.SetSyncOnFlush(opts_.sync_commit);
  pool_ = std::make_unique<BufferPool>(
      &disk_, opts_.buffer_pool_pages,
      [this](Lsn lsn) { return log_.Flush(lsn); });
  txns_ =
      std::make_unique<TransactionManager>(&log_, &locks_, &preds_, &mvcc_);
  nsn_ = std::make_unique<GlobalNsn>(opts_.nsn_source, &log_);
  alloc_ = std::make_unique<PageAllocator>(pool_.get(), txns_.get());
  data_ = std::make_unique<DataStore>(pool_.get(), txns_.get(), alloc_.get());
  recovery_ = std::make_unique<RecoveryManager>(pool_.get(), &log_,
                                               txns_.get(), nsn_.get(), &mvcc_);
  txns_->SetUndoApplier(recovery_.get());
  // Re-point every remaining component at this instance's registry (they
  // start on the process fallback). Done before any of *their* worker
  // threads exist, so the cached metric pointers are safely published.
  locks_.AttachMetrics(&metrics_);
  preds_.AttachMetrics(&metrics_);
  pool_->AttachMetrics(&metrics_);
  txns_->AttachMetrics(&metrics_);
  recovery_->AttachMetrics(&metrics_);
  if constexpr (kFaultInjectionCompiled) {
    FaultInjector::Global().AttachMetrics(&metrics_);
  }
  // Crash flight recorder: armed for the life of this instance; a fatal
  // crash point (and, in gistcr_serverd, a fatal signal) dumps to
  // <path>.flight.
  obs::FlightRecorder::Global().Arm(opts_.path + ".flight", &metrics_,
                                    &slow_ops_);
  return Status::OK();
}

void Database::RefreshDerivedGauges() {
  const uint64_t hits = metrics_.GetCounter("bp.hits")->value();
  const uint64_t misses = metrics_.GetCounter("bp.misses")->value();
  const uint64_t accesses = hits + misses;
  metrics_.GetGauge("bp.hit_rate")
      ->Set(accesses == 0
                ? 0.0
                : static_cast<double>(hits) / static_cast<double>(accesses));
}

std::string Database::DumpMetrics(bool as_json) {
  // Refresh derived gauges so a dump is self-contained.
  RefreshDerivedGauges();
  std::string out;
  if (as_json) {
    metrics_.DumpJson(&out);
  } else {
    metrics_.DumpText(&out);
  }
  return out;
}

std::string Database::DumpMetricsPrometheus() {
  RefreshDerivedGauges();
  std::string out;
  metrics_.DumpPrometheus(&out);
  return out;
}

StatusOr<std::string> Database::InspectJson(const std::string& what) {
  std::string out;
  if (what == "slow") {
    return slow_ops_.DumpJson();
  }
  if (what == "waitgraph") {
    out = "{\"edges\":[";
    bool first = true;
    for (const auto& [waiter, holder] : locks_.WaitEdges()) {
      AppendF(&out, "%s{\"waiter\":%" PRIu64 ",\"holder\":%" PRIu64 "}",
              first ? "" : ",", waiter, holder);
      first = false;
    }
    out.append("]}\n");
    return out;
  }
  if (what == "bp") {
    out = "{\"shards\":[";
    size_t frames = 0, resident = 0, dirty = 0, pinned = 0;
    uint64_t evictions = 0;
    bool first = true;
    for (const auto& s : pool_->ShardOccupancy()) {
      AppendF(&out,
              "%s{\"frames\":%zu,\"resident\":%zu,\"dirty\":%zu,"
              "\"pinned\":%zu,\"evictions\":%" PRIu64 "}",
              first ? "" : ",", s.frames, s.resident, s.dirty, s.pinned,
              s.evictions);
      first = false;
      frames += s.frames;
      resident += s.resident;
      dirty += s.dirty;
      pinned += s.pinned;
      evictions += s.evictions;
    }
    AppendF(&out,
            "],\"frames\":%zu,\"resident\":%zu,\"dirty\":%zu,"
            "\"pinned\":%zu,\"evictions\":%" PRIu64 "}\n",
            frames, resident, dirty, pinned, evictions);
    return out;
  }
  if (what == "recovery") {
    AppendF(&out, "{\"instant_active\":%s,\"pages_pending\":%zu}\n",
            recovery_->InstantActive() ? "true" : "false",
            recovery_->PendingPageCount());
    return out;
  }
  if (what == "wal") {
    const LogManager::FlusherStats s = log_.GetFlusherStats();
    AppendF(&out,
            "{\"tail_bytes\":%" PRIu64 ",\"inflight_bytes\":%" PRIu64
            ",\"pending_records\":%" PRIu64 ",\"pending_commits\":%" PRIu64
            ",\"flush_in_flight\":%s,\"last_flush_ns\":%" PRIu64
            ",\"durable_lsn\":%" PRIu64 ",\"last_lsn\":%" PRIu64 "}\n",
            s.tail_bytes, s.inflight_bytes, s.pending_records,
            s.pending_commits, s.flush_in_flight ? "true" : "false",
            s.last_flush_ns, s.durable_lsn, s.last_lsn);
    return out;
  }
  return Status::InvalidArgument("unknown inspect view: " + what);
}

Status Database::ExportTrace(const std::string& path) {
  return obs::Tracer::Global().ExportJson(path);
}

StatusOr<std::unique_ptr<Database>> Database::Create(
    const DatabaseOptions& opts) {
  // Truncate any previous incarnation.
  std::remove((opts.path + ".db").c_str());
  std::remove((opts.path + ".wal").c_str());
  std::remove((opts.path + ".ckpt").c_str());
  std::remove((opts.path + ".flight").c_str());

  std::unique_ptr<Database> db(new Database(opts));
  GISTCR_RETURN_IF_ERROR(db->InitCommon());

  // Format the meta page and the allocation bitmaps (mkfs; flushed below,
  // so restart recovery never needs to reconstruct them from scratch).
  // Nothing is logged: the heap allocates its first page on first insert.
  {
    auto frame_or = db->pool_->NewPage(MetaView::kMetaPageId);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(db->pool_.get(), frame_or.value());
    guard.WLatch();
    MetaView meta(guard.view().data());
    meta.Format(PageAllocator::kNumBitmapPages);
    guard.frame()->MarkDirty(kInvalidLsn + 1);
  }
  GISTCR_RETURN_IF_ERROR(db->alloc_->FormatFresh());

  GISTCR_RETURN_IF_ERROR(db->FlushAll());
  db->StartMaintenance();
  db->StartWriter();
  return db;
}

StatusOr<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& opts) {
  std::unique_ptr<Database> db(new Database(opts));
  GISTCR_RETURN_IF_ERROR(db->InitCommon());
  const uint64_t t0 = obs::NowNanos();

  Lsn ckpt = kInvalidLsn;
  GISTCR_RETURN_IF_ERROR(db->ReadMasterPointer(&ckpt));
  {
    MutexLock l(db->master_mu_);
    db->master_lsn_ = ckpt;
  }
  // Log-only analysis: builds the per-page redo plans, re-acquires the
  // losers' locks and arms the buffer-pool hook. No page is redone yet;
  // everything after this point may touch pages (triggering their inline
  // redo) but never has to wait for the whole log.
  GISTCR_RETURN_IF_ERROR(db->recovery_->StartInstant(ckpt));

  // An image whose meta page lacks the magic is not a database. Reading
  // the meta page inline-redoes just that page.
  {
    auto frame_or = db->pool_->Fetch(MetaView::kMetaPageId);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(db->pool_.get(), frame_or.value());
    guard.RLatch();
    if (!MetaView(guard.view().data()).valid()) {
      return Status::Corruption("bad meta page");
    }
  }
  db->metrics_.GetGauge("recovery.time_to_open_ns")
      ->Set(static_cast<double>(obs::NowNanos() - t0));
  db->StartMaintenance();
  db->StartWriter();
  db->StartRecovery();
  return db;
}

Status Database::RunMaintenancePass() {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return Status::Aborted("database shutting down");
  }
  GISTCR_RETURN_IF_ERROR(Checkpoint());
  std::vector<Gist*> gists;
  {
    MutexLock l(indexes_mu_);
    for (auto& [id, g] : indexes_) {
      (void)id;
      gists.push_back(g.get());
    }
  }
  for (Gist* gist : gists) {
    Transaction* txn = Begin(IsolationLevel::kReadCommitted);
    uint64_t removed = 0, nodes = 0;
    Status st = gist->GarbageCollect(txn, &removed, &nodes);
    if (st.ok()) {
      st = Commit(txn);
      if (!st.ok()) continue;
    } else {
      (void)Abort(txn);  // contention; the next pass retries
    }
  }
  // Version-store GC (DESIGN.md section 14): prune version records no
  // active snapshot can reach.
  (void)mvcc_.Prune(txns_->SnapshotHorizon());
  return Status::OK();
}

void Database::PrepareShutdown() {
  shutting_down_.store(true, std::memory_order_release);
  StopRecovery();
  StopMaintenance();
  StopWriter();
}

void Database::StartMaintenance() {
  if (opts_.maintenance_interval_ms == 0) return;
  if (shutting_down_.load(std::memory_order_acquire)) return;
  {
    MutexLock l(maint_mu_);
    maint_stop_ = false;
  }
  maint_thread_ = std::thread([this] {
    MutexLock l(maint_mu_);
    while (!maint_stop_) {
      (void)maint_cv_.WaitFor(
          maint_mu_, std::chrono::milliseconds(opts_.maintenance_interval_ms));
      if (maint_stop_) break;
      l.Unlock();
      (void)RunMaintenancePass();  // best effort
      l.Lock();
    }
  });
}

void Database::StopMaintenance() {
  {
    MutexLock l(maint_mu_);
    if (!maint_thread_.joinable()) return;
    maint_stop_ = true;
    maint_cv_.NotifyAll();
  }
  maint_thread_.join();
}

void Database::StartWriter() {
  if (opts_.writer_interval_ms == 0) return;
  if (shutting_down_.load(std::memory_order_acquire)) return;
  {
    MutexLock l(writer_mu_);
    writer_stop_ = false;
  }
  writer_thread_ = std::thread([this] {
    obs::Counter* passes = metrics_.GetCounter("writer.passes");
    obs::Counter* pages = metrics_.GetCounter("writer.pages_written");
    obs::Counter* errors = metrics_.GetCounter("writer.errors");
    obs::Histogram* pass_ns = metrics_.GetHistogram("writer.pass_ns");
    // Dirty pages cleaned per shard per pass: 1/8 of a shard's frames.
    const size_t budget =
        std::max<size_t>(1, pool_->num_frames() / pool_->num_shards() / 8);
    MutexLock l(writer_mu_);
    while (!writer_stop_) {
      (void)writer_cv_.WaitFor(
          writer_mu_, std::chrono::milliseconds(opts_.writer_interval_ms));
      if (writer_stop_) break;
      l.Unlock();
      {
        GISTCR_TRACE_SCOPE("writer.pass");
        const uint64_t t0 = obs::NowNanos();
        auto n_or = pool_->WriteBackSome(budget);
        if (n_or.ok()) {
          pages->Add(n_or.value());
        } else {
          // Best effort: eviction's synchronous fallback surfaces the
          // error to the operation that actually needs the page.
          errors->Add(1);
        }
        passes->Add(1);
        pass_ns->Record(obs::NowNanos() - t0);
      }
      l.Lock();
    }
  });
}

void Database::StopWriter() {
  {
    MutexLock l(writer_mu_);
    if (!writer_thread_.joinable()) return;
    writer_stop_ = true;
    writer_cv_.NotifyAll();
  }
  writer_thread_.join();
}

void Database::StartRecovery() {
  MutexLock l(recovery_mu_);
  recovery_done_ = false;
  recovery_status_ = Status::OK();
  recovery_stop_.store(false, std::memory_order_release);
  recovery_thread_ = std::thread([this] {
    Status st = recovery_->RunInstantBackground(recovery_stop_);
    MutexLock ll(recovery_mu_);
    recovery_done_ = true;
    recovery_status_ = st;
    recovery_cv_.NotifyAll();
  });
}

void Database::StopRecovery() {
  recovery_stop_.store(true, std::memory_order_release);
  std::thread t;
  {
    MutexLock l(recovery_mu_);
    if (!recovery_thread_.joinable()) return;
    t = std::move(recovery_thread_);
  }
  t.join();
}

Status Database::WaitForRecovery() {
  MutexLock l(recovery_mu_);
  while (!recovery_done_) {
    recovery_cv_.Wait(recovery_mu_);
  }
  return recovery_status_;
}

Status Database::CreateIndex(uint32_t index_id, const GistExtension* ext,
                             GistOptions opts) {
  opts.index_id = index_id;
  auto gist = std::make_unique<Gist>(MakeContext(), ext, opts);
  GISTCR_RETURN_IF_ERROR(gist->Create());
  GISTCR_RETURN_IF_ERROR(FlushAll());  // make the formatted root durable
  MutexLock l(indexes_mu_);
  indexes_[index_id] = std::move(gist);
  return Status::OK();
}

Status Database::OpenIndex(uint32_t index_id, const GistExtension* ext,
                           GistOptions opts) {
  opts.index_id = index_id;
  auto gist = std::make_unique<Gist>(MakeContext(), ext, opts);
  GISTCR_RETURN_IF_ERROR(gist->Open());
  MutexLock l(indexes_mu_);
  indexes_[index_id] = std::move(gist);
  return Status::OK();
}

StatusOr<Gist*> Database::GetIndex(uint32_t index_id) {
  MutexLock l(indexes_mu_);
  auto it = indexes_.find(index_id);
  if (it == indexes_.end()) {
    return Status::NotFound("index " + std::to_string(index_id));
  }
  return it->second.get();
}

Transaction* Database::Begin(IsolationLevel iso) { return txns_->Begin(iso); }
Status Database::Commit(Transaction* txn) { return txns_->Commit(txn); }
Status Database::Abort(Transaction* txn) { return txns_->Abort(txn); }

StatusOr<std::string> Database::ReadRecord(Rid rid, Transaction* txn) {
  if (txn == nullptr || txn->is_snapshot()) return data_->Read(rid);
  const LockName record{LockSpace::kRecord, rid.Pack()};
  GISTCR_RETURN_IF_ERROR(
      locks_.Lock(txn->id(), record, LockMode::kShared, /*wait=*/true));
  auto rec_or = data_->Read(rid);
  if (txn->isolation() == IsolationLevel::kReadCommitted) {
    locks_.Unlock(txn->id(), record);
  }
  return rec_or;
}

StatusOr<Rid> Database::InsertRecord(Transaction* txn, Gist* index, Slice key,
                                     Slice record, bool unique) {
  if (txn->is_snapshot()) {
    return Status::InvalidArgument("snapshot transactions are read-only");
  }
  // Reject the key before the heap insert, which a rejected index insert
  // would otherwise leave behind in a transaction that goes on to commit.
  GISTCR_RETURN_IF_ERROR(index->CheckKey(key));
  // A unique insert rolls its heap insert back to a savepoint on a
  // duplicate, and pops that savepoint again on every return.
  if (unique) {
    GISTCR_RETURN_IF_ERROR(txns_->Savepoint(txn, "__insert_record"));
  }
  auto rid_or = data_->Insert(txn, record);
  Status st = rid_or.status();
  // The index operation X-locks the record before it touches the tree
  // (paper section 6, phase 1); so does Delete below.
  if (st.ok()) {
    st = unique ? index->InsertUnique(txn, key, rid_or.value())
                : index->Insert(txn, key, rid_or.value());
  }
  if (st.IsDuplicateKey()) {
    // The transaction stays usable and the duplicate error is repeatable
    // (S lock on the existing record).
    const Status undo = txns_->RollbackToSavepoint(txn, "__insert_record");
    if (!undo.ok()) st = undo;
  }
  if (unique) txn->savepoints().pop_back();
  GISTCR_RETURN_IF_ERROR(st);
  return rid_or;
}

Status Database::DeleteRecord(Transaction* txn, Gist* index, Slice key,
                              Rid rid) {
  if (txn->is_snapshot()) {
    return Status::InvalidArgument("snapshot transactions are read-only");
  }
  GISTCR_RETURN_IF_ERROR(index->Delete(txn, key, rid));
  return data_->Delete(txn, rid);
}

Status Database::Checkpoint() {
  auto lsns_or = recovery_->Checkpoint();
  GISTCR_RETURN_IF_ERROR(lsns_or.status());
  // Checkpoint record durable but the master pointer still names the
  // previous one: restart must work from the older (valid) checkpoint.
  GISTCR_CRASHPOINT("ckpt.before_master_update");
  return WriteMasterPointer(lsns_or.value().checkpoint,
                            lsns_or.value().redo_floor);
}

Status Database::FlushAll() {
  GISTCR_RETURN_IF_ERROR(log_.FlushAll());
  return pool_->FlushAll();
}

void Database::SimulateCrash() {
  // The writer must stop before volatile state is dropped: a pass holding
  // pins during DiscardAll would trip its no-pins invariant. Recovery
  // first for the same reason (it pins pages while replaying plans).
  StopRecovery();
  StopWriter();
  StopMaintenance();
  pool_->DisarmRecoveryHook();
  log_.DiscardTail();
  pool_->DiscardAll();
  crashed_ = true;
}

Status Database::ReadMasterPointer(Lsn* lsn) {
  *lsn = kInvalidLsn;
  FILE* f = std::fopen((opts_.path + ".ckpt").c_str(), "r");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::OK();  // no checkpoint yet
    return Status::IOError("open master pointer");
  }
  // WriteMasterPointer renames exactly one LSN and a newline into place.
  // Anything else is damage: restarting from the log head instead would
  // stop at the first reclaimed hole and silently skip the rest.
  char buf[32];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  char* end = buf;
  errno = 0;
  const unsigned long long v =
      std::isdigit(static_cast<unsigned char>(buf[0]))
          ? std::strtoull(buf, &end, 10)
          : 0;
  const bool one_lsn =
      v != kInvalidLsn && errno == 0 &&
      (std::strcmp(end, "") == 0 || std::strcmp(end, "\n") == 0);
  if (!one_lsn) {
    return Status::Corruption("master pointer holds no checkpoint LSN");
  }
  *lsn = static_cast<Lsn>(v);
  return Status::OK();
}

Status Database::WriteMasterPointer(Lsn checkpoint, Lsn redo_floor) {
  // Checkpoints may overlap: the maintenance thread, the server's
  // checkpoint opcode and embedded callers each take one. So the master
  // moves only forward, and never to a floor that reclaim has passed. A
  // checkpoint that loses either race is redundant, not wrong: the master
  // already names a newer one whose floor is still readable. Each
  // checkpoint writes its own temporary file; master_mu_ orders the
  // renames and the reclaims, and no fsync runs under it.
  const std::string master = opts_.path + ".ckpt";
  const std::string tmp = master + "." + std::to_string(checkpoint) + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return Status::IOError("open master pointer");
  std::fprintf(f, "%llu\n", static_cast<unsigned long long>(checkpoint));
  const bool written = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!written) {
    std::remove(tmp.c_str());
    return Status::IOError("write master pointer");
  }
  {
    MutexLock l(master_mu_);
    if (checkpoint <= master_lsn_ || redo_floor < log_.reclaimed_before()) {
      std::remove(tmp.c_str());
      return Status::OK();
    }
    if (std::rename(tmp.c_str(), master.c_str()) != 0) {
      std::remove(tmp.c_str());
      return Status::IOError("rename master pointer");
    }
    master_lsn_ = checkpoint;
  }
  GISTCR_RETURN_IF_ERROR(SyncDirOf(master));
  // With the master pointer durable, everything below the redo floor it
  // names is dead weight: restart scans up from exactly there, and the
  // floor lies at or below every active transaction's first LSN, so no
  // undo backchain reaches below it either. A newer master may have
  // replaced ours meanwhile, with a floor below ours; then reclaim is its
  // job, after its own rename is durable.
  MutexLock l(master_mu_);
  if (master_lsn_ == checkpoint) {
    (void)log_.ReclaimBefore(redo_floor);  // best effort
  }
  return Status::OK();
}

}  // namespace gistcr
