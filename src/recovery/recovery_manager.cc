#include "recovery/recovery_manager.h"

#include <algorithm>
#include <map>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "db/data_store.h"
#include "gist/gist_apply.h"
#include "gist/node.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

namespace {

Status FetchX(BufferPool* pool, PageId pid, PageGuard* out) {
  auto frame_or = pool->Fetch(pid);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  *out = PageGuard(pool, frame_or.value());
  out->WLatch();
  return Status::OK();
}

/// The single page a CLR's redo mutates, the one UndoRecord latched when
/// it appended the CLR: for a leaf entry, the leaf the entry was found on
/// (override_page); otherwise the page the compensated record names. So
/// kClr decomposes to exactly one page in instant-restart plans.
PageId ClrTargetPage(const ClrPayload& clr) {
  switch (clr.compensated_type) {
    case LogRecordType::kAddLeafEntry:
    case LogRecordType::kMarkLeafEntry: {
      if (clr.override_page != kInvalidPageId) return clr.override_page;
      EntryOpPayload pl;
      return pl.DecodeFrom(clr.original) ? pl.page : kInvalidPageId;
    }
    case LogRecordType::kSplit: {
      SplitPayload pl;
      return pl.DecodeFrom(clr.original) ? pl.orig_page : kInvalidPageId;
    }
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete: {
      EntryOpPayload pl;
      return pl.DecodeFrom(clr.original) ? pl.page : kInvalidPageId;
    }
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage: {
      PageAllocPayload pl;
      if (!pl.DecodeFrom(clr.original)) return kInvalidPageId;
      return PageAllocator::BitmapPageFor(pl.target_page);
    }
    case LogRecordType::kRightlinkUpdate: {
      RightlinkUpdatePayload pl;
      return pl.DecodeFrom(clr.original) ? pl.page : kInvalidPageId;
    }
    case LogRecordType::kRootChange: {
      RootChangePayload pl;
      return pl.DecodeFrom(clr.original) ? pl.meta_page : kInvalidPageId;
    }
    case LogRecordType::kHeapInsert:
    case LogRecordType::kHeapDelete: {
      HeapOpPayload pl;
      return pl.DecodeFrom(clr.original) ? pl.page : kInvalidPageId;
    }
    default:
      return kInvalidPageId;
  }
}

/// Appends the ids of every page whose image \p rec's redo mutates —
/// the per-page decomposition restart plans and redoes with. Must name
/// exactly the pages the record's applier accepts (gist/gist_apply.h).
///
/// Reads only the fixed leading fields of each payload (every layout in
/// log_payloads.h puts its page ids first, before any variable-length
/// data). Analysis calls this once per scanned record, and a full
/// DecodeFrom — entry lists, predicate strings — would dominate the
/// instant open. CLRs are the one exception (the target page depends on
/// the compensated payload) and are rare enough to decode fully.
void PagesOfRecord(const LogRecord& rec, std::vector<PageId>* out) {
  const char* p = rec.payload.data();
  const size_t n = rec.payload.size();
  switch (rec.type) {
    case LogRecordType::kSplit:  // {orig_page, new_page, ...}
      if (n >= 8) {
        out->push_back(DecodeFixed32(p));
        out->push_back(DecodeFixed32(p + 4));
      }
      return;
    case LogRecordType::kRootChange:  // {meta_page, index_id, old, new, ...}
      if (n >= 16) {
        out->push_back(DecodeFixed32(p + 12));  // new_root
        out->push_back(DecodeFixed32(p));       // meta_page
      }
      return;
    case LogRecordType::kParentEntryUpdate:  // {child_page, parent_page, ...}
      if (n >= 8) {
        out->push_back(DecodeFixed32(p));
        const PageId parent = DecodeFixed32(p + 4);
        if (parent != kInvalidPageId) out->push_back(parent);
      }
      return;
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete:
    case LogRecordType::kAddLeafEntry:
    case LogRecordType::kMarkLeafEntry:
    case LogRecordType::kGarbageCollection:  // all: {page, ...}
    case LogRecordType::kRightlinkUpdate:
    case LogRecordType::kHeapInsert:
    case LogRecordType::kHeapDelete:
      if (n >= 4) out->push_back(DecodeFixed32(p));
      return;
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage:  // {target_page, bitmap_page}
      if (n >= 4) {
        out->push_back(PageAllocator::BitmapPageFor(DecodeFixed32(p)));
      }
      return;
    case LogRecordType::kClr: {
      ClrPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return;
      const PageId pid = ClrTargetPage(pl);
      if (pid != kInvalidPageId) out->push_back(pid);
      return;
    }
    default:
      return;  // txn control, NTA-End, checkpoint: no page
  }
}

/// One item of a loser's undo footprint (see FootprintOf).
struct FootItem {
  Lsn lsn;
  uint64_t rid;  // packed
};

/// Decodes the rid a leaf or heap content record wrote: undoing \p rec
/// rewrites it, so its lock is re-acquired before the database opens.
/// False for records with no footprint. Like PagesOfRecord it reads only
/// fixed leading payload fields.
bool FootprintOf(const LogRecord& rec, FootItem* out) {
  const char* p = rec.payload.data();
  const size_t n = rec.payload.size();
  switch (rec.type) {
    case LogRecordType::kAddLeafEntry:
    case LogRecordType::kMarkLeafEntry: {
      // EntryOpPayload: page(4) nsn(8) keylen(4) key value(8) ...
      if (n < 16) return false;
      const uint32_t klen = DecodeFixed32(p + 12);
      if (n < 16 + static_cast<size_t>(klen) + 8) return false;
      *out = {rec.lsn, DecodeFixed64(p + 16 + klen)};
      return true;
    }
    case LogRecordType::kHeapInsert:
    case LogRecordType::kHeapDelete: {  // HeapOpPayload: page(4) slot(2) ...
      if (n < 6) return false;
      Rid rid;
      rid.page_id = DecodeFixed32(p);
      rid.slot = DecodeFixed16(p + 4);
      *out = {rec.lsn, rid.Pack()};
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

void RecoveryManager::AttachMetrics(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  m_analyzed_ = reg->GetCounter("recovery.records_analyzed");
  m_redone_ = reg->GetCounter("recovery.records_redone");
  m_losers_ = reg->GetCounter("recovery.loser_txns");
  m_undone_ = reg->GetCounter("recovery.records_undone");
  m_checkpoints_ = reg->GetCounter("recovery.checkpoints");
  m_analysis_ns_ = reg->GetHistogram("recovery.analysis_ns");
  m_redo_ns_ = reg->GetHistogram("recovery.redo_ns");
  m_undo_ns_ = reg->GetHistogram("recovery.undo_ns");
  m_checkpoint_ns_ = reg->GetHistogram("recovery.checkpoint_ns");
  gate_.AttachMetrics(reg);
}

// ---------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------

StatusOr<RecoveryManager::CheckpointLsns> RecoveryManager::Checkpoint() {
  GISTCR_TRACE_SCOPE("recovery.checkpoint");
  const uint64_t t0 = obs::NowNanos();
  // The redo floor: the lowest LSN a restart from this checkpoint may need.
  // Fuzzy: every snapshot below races new work, so the floor takes the
  // lowest of three bounds, each covering what the others can miss —
  //  - the log end before any snapshot: everything appended later lies
  //    at or above it;
  //  - every active transaction's first LSN: an update is appended before
  //    its frame is marked dirty (sometimes across I/O), so the dirty-page
  //    table below can miss it, but its transaction is still active and
  //    began at or below it. This also keeps every loser's backchain
  //    inside the analysis span and every live rollback's readable;
  //  - every dirty page's rec_lsn, counting each page whose
  //    instant-restart plan has not been replayed yet: its disk image
  //    predates its plan even when no frame is dirty. Pending pages are
  //    read first. A replay marks its frame dirty before the page leaves
  //    the gate, so a page that leaves between the two reads is dirty
  //    when the dirty-page table is walked, or already written back. In
  //    the other order such a page can slip past both reads.
  CheckpointPayload pl;
  pl.redo_floor = log_->next_lsn();
  auto lower = [&pl](Lsn lsn) {
    if (lsn != kInvalidLsn) pl.redo_floor = std::min(pl.redo_floor, lsn);
  };
  lower(txns_->OldestActiveFirstLsn());
  lower(gate_.OldestPendingRecLsn());
  GISTCR_CRASHPOINT("ckpt.between_snapshots");
  for (const auto& [pid, rec_lsn] : pool_->DirtyPageTable()) lower(rec_lsn);
  pl.next_txn_id = txns_->NextTxnIdForCheckpoint();
  pl.nsn_counter = nsn_->CounterValue();
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(log_->Append(&rec));
  GISTCR_RETURN_IF_ERROR(log_->Flush(rec.lsn));
  m_checkpoint_ns_->Record(obs::NowNanos() - t0);
  m_checkpoints_->Add(1);
  return CheckpointLsns{rec.lsn, pl.redo_floor};
}

// ---------------------------------------------------------------------
// Instant restart (DESIGN.md section 16)
// ---------------------------------------------------------------------

Status RecoveryManager::StartInstant(Lsn checkpoint_lsn) {
  GISTCR_TRACE_SCOPE("recovery.start_instant");
  const uint64_t t0 = obs::NowNanos();

  // --- Analysis (log-only; no page is touched in this whole function) ---
  Lsn redo_start = LogManager::kFirstLsn;
  TxnId max_txn = 0;

  if (checkpoint_lsn != kInvalidLsn) {
    LogRecord ckpt;
    GISTCR_RETURN_IF_ERROR(log_->ReadRecord(checkpoint_lsn, &ckpt));
    if (ckpt.type != LogRecordType::kCheckpoint) {
      return Corrupt("master pointer does not reference a checkpoint");
    }
    CheckpointPayload pl;
    if (!pl.DecodeFrom(ckpt.payload)) return Corrupt("bad checkpoint");
    if (pl.redo_floor < LogManager::kFirstLsn ||
        pl.redo_floor > checkpoint_lsn) {
      return Corrupt("checkpoint redo floor out of range");
    }
    redo_start = pl.redo_floor;
    nsn_->EnsureAtLeast(pl.nsn_counter);
    max_txn = std::max(max_txn, pl.next_txn_id - 1);
  }

  // One bounded scan over [redo_start, end-of-log] builds everything at
  // once: the ATT (the floor lies at or below the first record of every
  // transaction active at the checkpoint, so the scan sees each one start
  // and, for winners, finish), the NSN floor, the per-page redo plans and
  // the losers' undo footprints.
  const Lsn end_lsn = log_->last_lsn();
  // Hash-mapped plans with a last-page memo: the scan visits every record
  // in the redo span, and heap appends arrive in long same-page runs, so
  // most records hit the memo instead of the hash. (unordered_map keeps
  // references stable across inserts, so the memo survives growth.)
  std::unordered_map<PageId, std::vector<Lsn>> plans;
  plans.reserve(4096);
  std::vector<Lsn>* memo_plan = nullptr;
  PageId memo_pid = kInvalidPageId;
  std::vector<PageId> pages_scratch;
  // The ATT, with each transaction's undo footprint collected forward:
  // the checkpoint's floor lies at or below every then-active
  // transaction's first record, so each loser's whole backchain passes
  // through this scan — gather the rids it wrote as we go (winners drop
  // out at Commit/End) instead of re-reading each loser's chain with one
  // random log read per record. CLR/NtaEnd truncation mirrors the
  // undo_next jumps Abort will take: items above undo_next are already
  // compensated or absorbed by a committed NTA, exactly the records undo
  // will never revisit.
  struct AttEntry {
    Lsn first = kInvalidLsn;  // the first record the scan saw
    Lsn last = kInvalidLsn;
    bool whole = false;       // the scan saw the chain start
    std::vector<FootItem> footprint;
  };
  std::map<TxnId, AttEntry> att;
  bool reached_checkpoint = false;
  Lsn whole_end = redo_start;  // end of the last whole record read
  Status scan_st = log_->Scan(redo_start, end_lsn, [&](
                                       const LogRecord& rec) {
    reached_checkpoint |= rec.lsn == checkpoint_lsn;
    whole_end = rec.lsn + rec.SerializedSize();
    m_analyzed_->Add(1);
    if (rec.txn_id != kInvalidTxnId) {
      max_txn = std::max(max_txn, rec.txn_id);
      switch (rec.type) {
        case LogRecordType::kCommit:
        case LogRecordType::kEnd:
          att.erase(rec.txn_id);
          break;
        default: {
          AttEntry& e = att[rec.txn_id];
          if (e.first == kInvalidLsn) {
            e.first = rec.lsn;
            e.whole = rec.prev_lsn == kInvalidLsn;
          }
          e.last = rec.lsn;
          if (rec.type == LogRecordType::kClr ||
              rec.type == LogRecordType::kNtaEnd) {
            while (!e.footprint.empty() &&
                   (rec.undo_next == kInvalidLsn ||
                    e.footprint.back().lsn > rec.undo_next)) {
              e.footprint.pop_back();
            }
          } else {
            FootItem item;
            if (FootprintOf(rec, &item)) e.footprint.push_back(item);
          }
          break;
        }
      }
    }
    if (rec.type == LogRecordType::kSplit) {
      SplitPayload pl;
      if (pl.DecodeFrom(rec.payload) && pl.new_nsn != 0) {
        nsn_->EnsureAtLeast(pl.new_nsn);
      }
    }
    pages_scratch.clear();
    PagesOfRecord(rec, &pages_scratch);
    for (PageId pid : pages_scratch) {
      if (pid != memo_pid) {
        memo_plan = &plans[pid];
        memo_pid = pid;
      }
      memo_plan->push_back(rec.lsn);
    }
    return true;
  });
  GISTCR_RETURN_IF_ERROR(scan_st);
  // The scan stops quietly at the first unreadable record, taking it for
  // the crash-torn tail. The master checkpoint was durable before the
  // crash, so a scan that ends below it hit a hole inside the redo span:
  // going on would drop redo and misjudge winners as losers.
  if (checkpoint_lsn != kInvalidLsn && !reached_checkpoint) {
    return Corrupt("log unreadable between redo start and checkpoint");
  }
  // Above the checkpoint, torn bytes end the log: cut them before anything
  // is appended. Left in place, they would end the next restart's scan
  // below every record appended after them, and the durable LSN Open took
  // from the file size would let a new commit's Flush return unsynced.
  if (whole_end < log_->next_lsn()) {
    GISTCR_RETURN_IF_ERROR(log_->CutTail(whole_end));
  }
  txns_->SetNextTxnId(max_txn + 1);
  GISTCR_CRASHPOINT("recovery.after_analysis");

  // --- Losers: locks ------------------------------------------------------
  // Re-acquire each loser's lock footprint before the database opens —
  // its uncommitted effects stay blocking for new transactions exactly as
  // live 2PL had them.
  losers_.clear();
  for (const auto& [id, loser] : att) {
    m_losers_->Add(1);
    if (!loser.whole) {
      return Corrupt("loser backchain reaches below the redo floor");
    }
    GISTCR_RETURN_IF_ERROR(txns_->locks()->Lock(
        id, LockName{LockSpace::kTxn, id}, LockMode::kExclusive));
    for (const FootItem& item : loser.footprint) {
      GISTCR_RETURN_IF_ERROR(txns_->locks()->Lock(
          id, LockName{LockSpace::kRecord, item.rid}, LockMode::kExclusive));
    }
    losers_.push_back(txns_->ResurrectForUndo(id, loser.first, loser.last));
  }
  txns_->SetRecoveryUndoActive(true);

  // --- Arm the gate: the database opens for business now. ----------------
  gate_.Arm(std::move(plans),
            [this](PageId pid, const std::vector<Lsn>& plan) {
              return ReplayPagePlan(pid, plan);
            });
  pool_->SetRecoveryHook(
      [this](PageId pid) {
        return gate_.EnsureRecovered(pid, /*inline_caller=*/true);
      },
      [this](PageId pid) { gate_.CancelPage(pid); });
  pool_->ArmRecoveryHook();
  m_analysis_ns_->Record(obs::NowNanos() - t0);

  // --- Before open: roll back every nested top action a loser left open.
  // Its pages (a split's new sibling, a page it freed or allocated) must
  // not take new work that the background undo would then take away.
  // Newest record first across all losers, as ARIES undo goes: one
  // loser's split may have moved an entry another's open split installed.
  std::vector<std::pair<Lsn, Transaction*>> heads;
  for (Transaction* txn : losers_) heads.emplace_back(txn->last_lsn(), txn);
  for (;;) {
    auto newest = std::max_element(heads.begin(), heads.end());
    if (newest == heads.end() || newest->first == kInvalidLsn) break;
    GISTCR_RETURN_IF_ERROR(
        UndoUnfinishedNtaStep(newest->second, &newest->first));
  }
  return Status::OK();
}

Status RecoveryManager::UndoUnfinishedNtaStep(Transaction* txn, Lsn* next) {
  // The open action is the head of the backchain, back to the last
  // content record, NTA-End or chain start; CLRs jump over what an earlier
  // rollback already compensated.
  LogRecord rec;
  GISTCR_RETURN_IF_ERROR(log_->ReadRecord(*next, &rec));
  switch (rec.type) {
    case LogRecordType::kClr:
      *next = rec.undo_next;
      return Status::OK();
    case LogRecordType::kAbort:
    case LogRecordType::kParentEntryUpdate:  // redo-only
      *next = rec.prev_lsn;
      return Status::OK();
    case LogRecordType::kSplit:
    case LogRecordType::kRootChange:
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete:
    case LogRecordType::kRightlinkUpdate:
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage:
    case LogRecordType::kGarbageCollection:
      *next = rec.prev_lsn;
      return UndoRecord(txn, rec);
    default:  // content, NTA-End or an older build's Begin: no action is open
      *next = kInvalidLsn;
      return Status::OK();
  }
}

Status RecoveryManager::RunInstantBackground(const std::atomic<bool>& stop) {
  GISTCR_TRACE_SCOPE("recovery.instant_background");
  // --- Undo of losers: ordinary aborting transactions through the normal
  // lock/latch protocol, concurrent with new work.
  uint64_t phase_t0 = obs::NowNanos();
  Status st;
  std::vector<Transaction*> losers;
  losers.swap(losers_);
  for (Transaction* txn : losers) {
    if (stop.load(std::memory_order_acquire)) {
      return Status::Aborted("recovery interrupted");
    }
    st = FaultInjector::Global().CheckCrashPoint("instant.undo");
    if (st.ok()) st = txns_->Abort(txn);
    if (!st.ok()) return st;  // stay armed: losers keep their locks
  }
  // Loser effects are fully retracted: snapshot reads no longer risk
  // seeing un-retracted versions.
  txns_->SetRecoveryUndoActive(false);
  m_undo_ns_->Record(obs::NowNanos() - phase_t0);

  // --- Drain: replay still-pending pages oldest-recLSN first, so the
  // log-reclaim floor rises steadily even if nothing touches them. Redo is
  // page-oriented and an applier touches only the page it was handed, so
  // one drainer per hardware thread takes pages off the shared list; the
  // gate lets each page replay once, whoever claims it (section 16.3).
  phase_t0 = obs::NowNanos();
  const std::vector<PageId> order = gate_.PendingInOrder();
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};
  Status drain_st;  // written once, by the drainer that sets `failed`
  auto drain = [&] {
    while (!stop.load(std::memory_order_acquire) && !failed.load()) {
      const size_t i = cursor++;
      if (i >= order.size()) return;
      Status s = gate_.EnsureRecovered(order[i], /*inline_caller=*/false);
      if (!s.ok()) {
        if (!failed.exchange(true)) drain_st = s;
        return;
      }
    }
  };
  // Each drainer keeps one frame pinned while it replays. The drain may pin
  // at most a sixteenth of one shard, so the structure modifications running
  // beside it keep the frames the pool's floor sized for them: four
  // drainers at the 64-frame floor (Database::InitCommon).
  const size_t drainers = std::min(
      {std::max<size_t>(1, std::thread::hardware_concurrency()), order.size(),
       std::max<size_t>(1, pool_->num_frames() / pool_->num_shards() / 16)});
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < drainers; i++) {
    try {
      helpers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // no thread to spare: fewer drainers share the list
    }
  }
  drain();
  for (std::thread& t : helpers) t.join();
  if (!drain_st.ok()) return drain_st;  // stay armed: the pages stay pending
  // A drainer that saw `stop` quit before claiming its next page.
  if (cursor.load() < order.size()) {
    return Status::Aborted("recovery interrupted");
  }
  m_redo_ns_->Record(obs::NowNanos() - phase_t0);

  pool_->DisarmRecoveryHook();
  gate_.Disarm();
  return Status::OK();
}

Status RecoveryManager::ReplayPagePlan(PageId pid,
                                       const std::vector<Lsn>& plan) {
  GISTCR_TRACE_SCOPE("recovery.replay_page");
  // One fetch and one X latch for the whole plan. The page is claimed in
  // the gate (kRedoing), so every other fetcher waits there, not on this
  // latch. Hoisted page-LSN test: everything at or below the on-disk page
  // LSN already reached this page before the crash. Skipping it here
  // saves one log read per pre-flushed record — for hot pages (root,
  // bitmap) the plan spans the whole redo interval but the page was
  // written back moments before the crash, so nearly all of it prunes
  // away. A fresh or never-flushed page reads page_lsn 0 and keeps its
  // full plan.
  PageGuard g;
  GISTCR_RETURN_IF_ERROR(FetchX(pool_, pid, &g));
  LogRecord rec;  // reused: the log reads allocate nothing per record
  for (auto it = std::upper_bound(plan.begin(), plan.end(),
                                  g.view().page_lsn());
       it != plan.end(); ++it) {
    GISTCR_RETURN_IF_ERROR(log_->ReadRecord(*it, &rec));
    if (g.view().page_lsn() < rec.lsn) {
      GISTCR_RETURN_IF_ERROR(ApplyRedo(rec, &g));
    }
    m_redone_->Add(1);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Redo (page-oriented, page-LSN test)
// ---------------------------------------------------------------------

Status RecoveryManager::RedoRecord(const LogRecord& rec) {
  std::vector<PageId> pages;
  PagesOfRecord(rec, &pages);
  for (PageId pid : pages) {
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchX(pool_, pid, &g));
    if (g.view().page_lsn() < rec.lsn) {
      GISTCR_RETURN_IF_ERROR(ApplyRedo(rec, &g));
    }
  }
  return Status::OK();
}

Status RecoveryManager::ApplyRedo(const LogRecord& rec, PageGuard* g) {
  const Lsn lsn = rec.lsn;
  switch (rec.type) {
    case LogRecordType::kSplit: {
      SplitPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("split payload");
      return ApplySplit(pl, lsn, g);
    }
    case LogRecordType::kRootChange: {
      RootChangePayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("rootchange payload");
      return ApplyRootChange(pl, lsn, g);
    }
    case LogRecordType::kParentEntryUpdate: {
      ParentEntryUpdatePayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("peu payload");
      return ApplyParentEntryUpdate(pl, lsn, g);
    }
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("entryop payload");
      return ApplyInternalEntry(rec.type, pl, lsn, g);
    }
    case LogRecordType::kAddLeafEntry: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("addleaf payload");
      return ApplyAddLeafEntry(pl, lsn, g);
    }
    case LogRecordType::kMarkLeafEntry: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("markleaf payload");
      return ApplyMarkLeafEntry(pl, rec.txn_id, lsn, g);
    }
    case LogRecordType::kGarbageCollection: {
      GarbageCollectionPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("gc payload");
      return ApplyGarbageCollection(pl, lsn, g);
    }
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage: {
      PageAllocPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("alloc payload");
      return PageAllocator::ApplyBit(
          pl.target_page, rec.type == LogRecordType::kGetPage, lsn, g);
    }
    case LogRecordType::kRightlinkUpdate: {
      RightlinkUpdatePayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("rightlink payload");
      return ApplyRightlinkUpdate(pl, lsn, g);
    }
    case LogRecordType::kHeapInsert: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("heap payload");
      return DataStore::ApplyInsert(pl, lsn, g);
    }
    case LogRecordType::kHeapDelete: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("heap payload");
      return DataStore::ApplyDeleteMark(pl, true, lsn, g);
    }
    case LogRecordType::kClr: {
      ClrPayload pl;
      if (!pl.DecodeFrom(rec.payload)) return Corrupt("clr payload");
      return ApplyUndo(pl, lsn, g);
    }
    default:
      return Corrupt("redo: record has no page");
  }
}

// ---------------------------------------------------------------------
// Undo (Table 1 right column); shared by live rollback and restart
// ---------------------------------------------------------------------

Status RecoveryManager::ApplyUndo(const ClrPayload& clr, Lsn lsn,
                                  PageGuard* g) {
  const Slice original(clr.original);
  switch (clr.compensated_type) {
    case LogRecordType::kAddLeafEntry:
    case LogRecordType::kMarkLeafEntry: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("undo leaf payload");
      if (clr.compensated_type == LogRecordType::kAddLeafEntry) {
        return ApplyUndoAddLeafEntry(pl, lsn, g);
      }
      return ApplyMarkLeafEntry(pl, kInvalidTxnId, lsn, g);
    }
    case LogRecordType::kSplit: {
      SplitPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("undo split payload");
      return ApplyUndoSplit(pl, lsn, g);
    }
    case LogRecordType::kInternalEntryAdd:
    case LogRecordType::kInternalEntryUpdate:
    case LogRecordType::kInternalEntryDelete: {
      EntryOpPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("undo entry payload");
      return ApplyUndoInternalEntry(clr.compensated_type, pl, lsn, g);
    }
    case LogRecordType::kGetPage:
    case LogRecordType::kFreePage: {
      PageAllocPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("undo alloc payload");
      return PageAllocator::ApplyBit(
          pl.target_page,
          clr.compensated_type == LogRecordType::kFreePage, lsn, g);
    }
    case LogRecordType::kRightlinkUpdate: {
      RightlinkUpdatePayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("undo rl payload");
      return ApplyUndoRightlinkUpdate(pl, lsn, g);
    }
    case LogRecordType::kRootChange: {
      RootChangePayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("undo root payload");
      return ApplyUndoRootChange(pl, lsn, g);
    }
    case LogRecordType::kHeapInsert:
    case LogRecordType::kHeapDelete: {
      HeapOpPayload pl;
      if (!pl.DecodeFrom(original)) return Corrupt("undo heap payload");
      return DataStore::ApplyDeleteMark(
          pl, clr.compensated_type == LogRecordType::kHeapInsert, lsn, g);
    }
    default:
      return Corrupt("clr: uncompensatable type");
  }
}

Status RecoveryManager::UndoRecord(Transaction* txn, const LogRecord& rec) {
  // Fires once per record rolled back — crash-during-undo coverage (the
  // CLR chain must let a second restart skip already-compensated work).
  GISTCR_CRASHPOINT("recovery.mid_undo");
  // Redo-only records (Table 1): nothing to undo, no CLR.
  if (rec.type == LogRecordType::kParentEntryUpdate ||
      rec.type == LogRecordType::kGarbageCollection) {
    return Status::OK();
  }
  m_undone_->Add(1);

  ClrPayload clr;
  clr.compensated_type = rec.type;
  clr.override_page = kInvalidPageId;
  clr.original = rec.payload;

  // X-latch the one page the undo changes, then append the CLR under that
  // latch and apply it: a writer that slipped onto the page between the
  // append and the latch would have its newer page LSN overwritten by the
  // CLR's. Leaf content is undone logically (section 9.2): the entry may
  // have moved right with a split, so chase the NSN-guided rightlink chain
  // to its current leaf, and log that leaf as override_page.
  const bool leaf = rec.type == LogRecordType::kAddLeafEntry ||
                    rec.type == LogRecordType::kMarkLeafEntry;
  EntryOpPayload leaf_pl;
  PageGuard g;
  if (leaf) {
    if (!leaf_pl.DecodeFrom(rec.payload)) return Corrupt("undo payload");
    uint32_t hops = 0;
    GISTCR_RETURN_IF_ERROR(LatchEntryLeaf(pool_, leaf_pl.page, leaf_pl.nsn,
                                          leaf_pl.entry.key,
                                          leaf_pl.entry.value, &g, &hops));
    clr.override_page = g.page_id();
  } else {
    const PageId pid = ClrTargetPage(clr);
    if (pid == kInvalidPageId) return Corrupt("undo: record has no page");
    GISTCR_RETURN_IF_ERROR(FetchX(pool_, pid, &g));
  }
  LogRecord crec;
  crec.type = LogRecordType::kClr;
  crec.undo_next = rec.prev_lsn;
  clr.EncodeTo(&crec.payload);
  GISTCR_RETURN_IF_ERROR(txns_->AppendTxnLog(txn, &crec));
  GISTCR_RETURN_IF_ERROR(ApplyUndo(clr, crec.lsn, &g));
  g.Drop();

  // Page first, version record second: while the aborted entry is still
  // on the leaf its pending version record must exist, or a concurrent
  // snapshot scan finds no chain, treats the entry as ancient and emits
  // the dirty insert. Once the entry is off the page (latch dropped,
  // frame version bumped) the record is unreachable and safe to retract.
  if (rec.type == LogRecordType::kAddLeafEntry) {
    mvcc_->UndoInsert(leaf_pl.entry.value, rec.txn_id);
  } else if (rec.type == LogRecordType::kMarkLeafEntry) {
    mvcc_->UndoDelete(leaf_pl.entry.value, rec.txn_id);
  }
  return Status::OK();
}

}  // namespace gistcr
