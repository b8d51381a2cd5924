#include "gist/gist.h"

#include "db/meta_page.h"
#include "gist/tree_latch.h"
#include "obs/op_context.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

using internal::TreeLatch;

GistStats::GistStats(obs::MetricsRegistry* reg)
    : searches(*reg->GetCounter("gist.searches")),
      inserts(*reg->GetCounter("gist.inserts")),
      deletes(*reg->GetCounter("gist.deletes")),
      splits(*reg->GetCounter("gist.splits")),
      root_grows(*reg->GetCounter("gist.root_grows")),
      rightlink_follows(*reg->GetCounter("gist.rightlink_follows")),
      predicate_waits(*reg->GetCounter("gist.predicate_waits")),
      rid_lock_waits(*reg->GetCounter("gist.rid_lock_waits")),
      unlocked_leaf_visits(*reg->GetCounter("gist.unlocked_leaf_visits")),
      gc_removed(*reg->GetCounter("gist.gc_removed")),
      nodes_deleted(*reg->GetCounter("gist.nodes_deleted")) {}

Gist::Gist(const GistContext& ctx, const GistExtension* ext, GistOptions opts)
    : ctx_(ctx),
      ext_(ext),
      opts_(opts),
      stats_(obs::MetricsRegistry::OrFallback(ctx.metrics)),
      latch_wait_ns_(obs::MetricsRegistry::OrFallback(ctx.metrics)
                         ->GetHistogram("gist.latch_wait_ns")) {
  GISTCR_CHECK(ctx_.pool != nullptr && ctx_.txns != nullptr &&
               ctx_.locks != nullptr && ctx_.preds != nullptr &&
               ctx_.alloc != nullptr && ctx_.nsn != nullptr);
}

Status Gist::Create() {
  // Refuse an id the meta page cannot register before anything is
  // allocated or logged: 0 marks a free slot of the root table.
  if (opts_.index_id == 0) {
    return Status::InvalidArgument("index id 0 is reserved");
  }
  {
    auto frame_or = ctx_.pool->Fetch(MetaView::kMetaPageId);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(ctx_.pool, frame_or.value());
    guard.RLatch();
    MetaView meta(guard.view().data());
    if (meta.GetRoot(opts_.index_id) != kInvalidPageId) {
      return Status::InvalidArgument("index " +
                                     std::to_string(opts_.index_id) +
                                     " already exists");
    }
    if (!meta.HasFreeSlot()) {
      return Status::NoSpace("index root table is full");
    }
  }
  // Index creation is unlogged: it runs at database-creation time and the
  // caller flushes before the first logged operation (see Database).
  // Allocate the root without logging by reserving through a throwaway
  // transaction would log; instead use the allocator's bitmap directly via
  // a bootstrap transaction whose records are harmless to redo. Every
  // error ends it, so no failed create holds down the redo floor.
  Transaction* boot = ctx_.txns->Begin(IsolationLevel::kReadCommitted);
  Status st = InstallRoot(boot);
  if (!st.ok()) {
    (void)ctx_.txns->Abort(boot);
    return st;
  }
  return ctx_.txns->Commit(boot);
}

Status Gist::InstallRoot(Transaction* boot) {
  auto pid_or = ctx_.alloc->Allocate(boot);
  GISTCR_RETURN_IF_ERROR(pid_or.status());
  const PageId root = pid_or.value();
  {
    auto frame_or = ctx_.pool->NewPage(root);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(ctx_.pool, frame_or.value());
    guard.WLatch();
    NodeView node(guard.view().data());
    node.Init(root, /*level=*/0);
    // Unlogged index creation (see Create): the root and the meta page
    // carry the bootstrap's last LSN and are flushed before first use.
    // gistcr-lint: allow(page-lsn-outside-apply)
    guard.view().set_page_lsn(boot->last_lsn());
    guard.frame()->MarkDirty(boot->last_lsn());
  }
  auto frame_or = ctx_.pool->Fetch(MetaView::kMetaPageId);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(ctx_.pool, frame_or.value());
  guard.WLatch();
  MetaView meta(guard.view().data());
  GISTCR_CHECK(meta.GetRoot(opts_.index_id) == kInvalidPageId);
  meta.SetRoot(opts_.index_id, root);
  // Unlogged, like the root above. gistcr-lint: allow(page-lsn-outside-apply)
  guard.view().set_page_lsn(boot->last_lsn());
  guard.frame()->MarkDirty(boot->last_lsn());
  return Status::OK();
}

Status Gist::Open() {
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  if (root_or.value() == kInvalidPageId) {
    return Status::NotFound("index " + std::to_string(opts_.index_id));
  }
  return Status::OK();
}

StatusOr<PageId> Gist::GetRoot() {
  auto frame_or = ctx_.pool->Fetch(MetaView::kMetaPageId);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(ctx_.pool, frame_or.value());
  guard.RLatch();
  MetaView meta(guard.view().data());
  if (!meta.valid()) return Status::Corruption("bad meta page");
  return meta.GetRoot(opts_.index_id);
}

PageId Gist::root_hint() {
  auto r = GetRoot();
  return r.ok() ? r.value() : kInvalidPageId;
}

Status Gist::FetchLatched(PageId pid, bool exclusive, PageGuard* out) {
  auto frame_or = ctx_.pool->Fetch(pid);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  *out = PageGuard(ctx_.pool, frame_or.value());
  // Every acquisition is recorded (uncontended ones land in the low
  // buckets), so the histogram doubles as a latch-traffic count and the
  // tail quantifies contention.
  const uint64_t t0 = obs::NowNanos();
  if (exclusive) {
    out->WLatch();
  } else {
    out->RLatch();
  }
  const uint64_t waited = obs::NowNanos() - t0;
  latch_wait_ns_->Record(waited);
  obs::AddStage(obs::Stage::kLatch, waited);
  return Status::OK();
}

bool Gist::NodeIsFull(NodeView& node, const IndexEntry& e) const {
  if (opts_.max_entries != 0 && node.count() >= opts_.max_entries) {
    return true;
  }
  return !node.HasSpaceFor(e);
}

Status Gist::SignalLock(Transaction* txn, PageId node) {
  return ctx_.locks->Lock(txn->id(), LockName{LockSpace::kNode, node},
                          LockMode::kShared, /*wait=*/true);
}

void Gist::SignalUnlock(Transaction* txn, PageId node) {
  ctx_.locks->Unlock(txn->id(), LockName{LockSpace::kNode, node});
}

Status Gist::RegisterGlobalPredicate(Transaction* txn, uint64_t op_id,
                                     PredKind kind, Slice pred) {
  if (opts_.pred_mode != PredicateMode::kGlobal) return Status::OK();
  const bool is_key = kind == PredKind::kInsert;
  for (;;) {
    auto conflicts = ctx_.preds->FindConflicts(
        PredicateManager::kGlobalTable, txn->id(),
        [&](const PredAttachment& a) {
          if (is_key) {
            return a.kind != PredKind::kInsert &&
                   ext_->Consistent(pred, a.pred);
          }
          return a.kind == PredKind::kInsert &&
                 ext_->Consistent(a.pred, pred);
        });
    if (conflicts.empty()) {
      ctx_.preds->Attach(PredicateManager::kGlobalTable, txn->id(), op_id,
                         kind, pred);
      return Status::OK();
    }
    stats_.predicate_waits.Add(1);
    for (TxnId owner : conflicts) {
      GISTCR_RETURN_IF_ERROR(ctx_.locks->WaitForTxn(txn->id(), owner));
    }
  }
}

Status Gist::CheckKey(Slice key) const {
  if (key.size() > NodeView::kMaxKeySize) {
    return Status::InvalidArgument("key too large");
  }
  if (!ext_->ValidKey(key)) {
    return Status::InvalidArgument("key does not decode");
  }
  return Status::OK();
}

Status Gist::CheckQuery(Slice query) const {
  if (!ext_->ValidQuery(query)) {
    return Status::InvalidArgument("query does not decode");
  }
  return Status::OK();
}

Status Gist::Write(Transaction* txn, WriteKind kind, Slice key, Rid rid) {
  const bool del = kind == WriteKind::kDelete;
  GISTCR_TRACE_SCOPE(del ? "gist.delete" : "gist.insert");
  obs::TreeScope tree_scope;
  (del ? stats_.deletes : stats_.inserts).Add(1);
  const uint64_t op_id = txn->NextOpId();
  GISTCR_RETURN_IF_ERROR(CheckKey(key));

  // Section 6 step 1: the data record is X-locked before the tree is
  // touched. Taken here, once, for every caller.
  GISTCR_RETURN_IF_ERROR(
      ctx_.locks->Lock(txn->id(), LockName{LockSpace::kRecord, rid.Pack()},
                       LockMode::kExclusive, /*wait=*/true));

  // Pure predicate locking (ablation): register the key in the global
  // table, after waiting out conflicting scans (section 4.2).
  GISTCR_RETURN_IF_ERROR(
      RegisterGlobalPredicate(txn, op_id, PredKind::kInsert, key));

  if (kind == WriteKind::kInsertUnique) {
    // Search phase (section 8): S-lock any existing duplicate's data
    // record so the error is repeatable; leave "= key" probe predicates on
    // every visited node so racing unique inserts of the same value
    // deadlock rather than both succeeding. InsertCore's DetachOp drops
    // the probes with its own insert predicate (they share the op id).
    std::vector<SearchResult> results;
    GISTCR_RETURN_IF_ERROR(SearchInternal(txn, ext_->EqQuery(key),
                                          PredKind::kUniqueProbe,
                                          /*attach=*/true, op_id, &results));
    for (const SearchResult& r : results) {
      if (!ext_->KeyEquals(r.key, key)) continue;
      ctx_.preds->DetachOp(txn->id(), op_id);
      return Status::DuplicateKey("unique index " +
                                  std::to_string(opts_.index_id));
    }
  }

  TreeLatch tree(&tree_latch_, /*exclusive=*/true,
                 opts_.protocol == ConcurrencyProtocol::kCoarse);
  return del ? DeleteCore(txn, key, rid, op_id, &tree)
             : InsertCore(txn, key, rid, op_id, &tree);
}

Status Gist::Search(Transaction* txn, Slice query,
                    std::vector<SearchResult>* out) {
  GISTCR_TRACE_SCOPE("gist.search");
  obs::TreeScope tree_scope;
  stats_.searches.Add(1);
  const bool attach =
      txn->isolation() == IsolationLevel::kRepeatableRead;
  return SearchInternal(txn, query, PredKind::kSearch, attach,
                        txn->NextOpId(), out);
}

Status Gist::SearchInternal(Transaction* txn, Slice query,
                            PredKind attach_kind, bool attach,
                            uint64_t op_id, std::vector<SearchResult>* out) {
  GISTCR_RETURN_IF_ERROR(CheckQuery(query));
  // Pure predicate locking (section 4.2, ablation mode): one tree-global
  // check-then-register step before the traversal starts.
  if (attach) {
    GISTCR_RETURN_IF_ERROR(
        RegisterGlobalPredicate(txn, op_id, attach_kind, query));
  }
  const ReadSpec spec{query, attach_kind,
                      attach && opts_.pred_mode == PredicateMode::kHybrid,
                      op_id};

  TreeLatch tree(&tree_latch_, /*exclusive=*/false,
                 opts_.protocol == ConcurrencyProtocol::kCoarse);
  return Traverse(txn, spec, &tree, out);
}

Status Gist::Traverse(Transaction* txn, const ReadSpec& spec, TreeLatch* tree,
                      std::vector<SearchResult>* out) {
  std::vector<StackEntry> stack;
  GISTCR_RETURN_IF_ERROR(PushRoot(txn, &stack));
  std::unordered_set<uint64_t> seen;
  while (!stack.empty()) {
    GISTCR_RETURN_IF_ERROR(VisitNext(txn, spec, &stack, &seen, out, tree));
    if (spec.target != nullptr && spec.target->found.page != kInvalidPageId) {
      // Delete found its entry: the pointers still stacked are not
      // visited, so their signaling locks go now.
      for (const StackEntry& e : stack) SignalUnlock(txn, e.page);
      break;
    }
  }
  return Status::OK();
}

Status Gist::PushRoot(Transaction* txn, std::vector<StackEntry>* stack) {
  // Memorize the counter BEFORE reading the root pointer: a root grow in
  // the window between a read-then-memorize pair would assign the old
  // root's new sibling an NSN below the memorized value, making the split
  // undetectable (Figure 3's memorize-then-read order applies to the root
  // pointer like any other). An older memorized value is always safe — at
  // worst it costs an extra rightlink check.
  const Nsn root_mem = ctx_.nsn->Current();
  if (hooks_.before_root_read) hooks_.before_root_read();
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  const PageId root = root_or.value();
  if (root == kInvalidPageId) return Status::NotFound("index has no root");
  if (txn->is_snapshot()) {
    ctx_.mvcc->CountSnapshotRead();
  } else {
    GISTCR_RETURN_IF_ERROR(SignalLock(txn, root));
  }
  stack->push_back({root, root_mem});
  if (hooks_.after_root_push) hooks_.after_root_push();
  return Status::OK();
}

Status Gist::VisitNext(Transaction* txn, const ReadSpec& spec,
                       std::vector<StackEntry>* stack,
                       std::unordered_set<uint64_t>* seen,
                       std::vector<SearchResult>* out, TreeLatch* tree) {
  const StackEntry e = stack->back();
  stack->pop_back();
  if (hooks_.before_visit_node) hooks_.before_visit_node(e.page);
  const bool snapshot = txn->is_snapshot();
  PageGuard g;
  GISTCR_RETURN_IF_ERROR(FetchLatched(e.page, /*exclusive=*/false, &g));
  std::optional<uint64_t> waited;  // see FilterLeafLocked

  for (;;) {
    NodeView node(g.view().data());
    // Split detection (Figure 2): the node split after the pointer was
    // memorized; its right sibling(s) must also be examined, with the
    // same memorized counter value. Re-run after every lock wait, which
    // is where a leaf can split under a waiting reader.
    if (LinkProtocol() && node.nsn() > e.nsn &&
        node.rightlink() != kInvalidPageId) {
      const PageId right = node.rightlink();
      bool already = false;
      for (const auto& s : *stack) {
        if (s.page == right && s.nsn == e.nsn) already = true;
      }
      if (!already) {
        if (!snapshot) GISTCR_RETURN_IF_ERROR(SignalLock(txn, right));
        stack->push_back({right, e.nsn});
        stats_.rightlink_follows.Add(1);
        obs::BumpRestarts();
      }
    }

    if (!node.is_leaf()) {
      const Nsn cur = ctx_.nsn->Current();  // memorize before reading ptrs
      const uint16_t n = node.count();
      for (uint16_t i = 0; i < n; i++) {
        if (!ext_->Consistent(node.entry_key(i), spec.query)) continue;
        const PageId child = static_cast<PageId>(node.entry_value(i));
        if (!snapshot) GISTCR_RETURN_IF_ERROR(SignalLock(txn, child));
        stack->push_back({child, cur});
      }
      if (spec.hybrid_attach) {
        ctx_.preds->Attach(e.page, txn->id(), spec.op_id, spec.attach_kind,
                           spec.query);
      }
      break;
    }

    if (spec.target != nullptr) {
      // Delete (section 7): find the live (key, rid); no record locks and
      // no predicate attach. Found: the leaf keeps its signaling lock, so
      // it cannot be retired before Delete latches it again to mark.
      const int idx =
          node.FindByKeyValue(spec.target->key, spec.target->value);
      if (idx >= 0 && node.entry_del_txn(static_cast<uint16_t>(idx)) ==
                          kInvalidTxnId) {
        spec.target->found = {e.page, node.nsn()};
        return Status::OK();
      }
      break;
    }
    if (snapshot) {
      GISTCR_RETURN_IF_ERROR(
          FilterLeafSnapshot(txn, spec.query, node, seen, out));
      break;
    }
    bool rescan = false;
    GISTCR_RETURN_IF_ERROR(FilterLeafLocked(txn, spec, &g, seen, out, tree,
                                            &waited, &rescan));
    if (!rescan) break;
  }

  g.Drop();
  // Visited: the signaling lock protecting this stacked pointer can go
  // (section 7.2).
  if (!snapshot) SignalUnlock(txn, e.page);
  return Status::OK();
}

Status Gist::FilterLeafLocked(Transaction* txn, const ReadSpec& spec,
                              PageGuard* g,
                              std::unordered_set<uint64_t>* seen,
                              std::vector<SearchResult>* out, TreeLatch* tree,
                              std::optional<uint64_t>* waited,
                              bool* rescan) {
  // Degree 2: a read-committed search holds each record lock only while
  // it checks the record. Unique probes keep theirs, so that a duplicate
  // error repeats.
  const bool short_locks =
      txn->isolation() == IsolationLevel::kReadCommitted &&
      spec.attach_kind == PredKind::kSearch;
  NodeView node(g->view().data());
  // Commit_LSN (DESIGN.md section 6): no active writer has touched a leaf
  // last updated below it, so each entry's mark is committed and a short
  // S lock would wait for nothing. Read under this visit's latch, so a
  // rescan after a wait tests again.
  const bool committed = short_locks && !waited->has_value() &&
                         g->view().page_lsn() < ctx_.txns->CommitLsn();
  if (committed) stats_.unlocked_leaf_visits.Add(1);
  // A record lock waited for is kept until the rescan checks its entry,
  // so that a stream of writers cannot take it back first and starve the
  // reader. It goes once checked, before another wait, or when the entry
  // has left this leaf (moved right by a split, or collected); a later
  // visit then locks it afresh.
  auto drop_waited = [&] {
    if (!waited->has_value()) return;
    ctx_.locks->Unlock(txn->id(), LockName{LockSpace::kRecord, **waited});
    waited->reset();
  };
  const uint16_t n = node.count();
  for (uint16_t i = 0; i < n; i++) {
    if (!ext_->Consistent(node.entry_key(i), spec.query)) continue;
    if (node.entry_del_txn(i) == txn->id()) continue;  // own logical delete
    const uint64_t rid = node.entry_value(i);
    if (seen->count(rid) != 0) continue;
    const LockName record{LockSpace::kRecord, rid};
    if (!committed) {
      Status st = ctx_.locks->Lock(txn->id(), record, LockMode::kShared,
                                   /*wait=*/false);
      if (st.IsBusy()) {
        stats_.rid_lock_waits.Add(1);
        *rescan = true;
        drop_waited();
        return WaitUnlatched(g, tree, [&] {
          GISTCR_RETURN_IF_ERROR(ctx_.locks->Lock(txn->id(), record,
                                                  LockMode::kShared,
                                                  /*wait=*/true));
          if (short_locks) *waited = rid;
          return Status::OK();
        });
      }
      GISTCR_RETURN_IF_ERROR(st);
    }
    // Still marked once we hold the S lock (or on a committed leaf): the
    // deleter committed; the entry is logically gone.
    const bool live = node.entry_del_txn(i) == kInvalidTxnId;
    if (short_locks && !committed) {
      // Unlock drops one acquisition: a lock this transaction took for
      // its own write stays held.
      ctx_.locks->Unlock(txn->id(), record);
      if (*waited == rid) drop_waited();
    }
    if (!live) continue;
    seen->insert(rid);
    out->push_back({node.entry_key(i).ToString(), Rid::Unpack(rid)});
  }
  drop_waited();
  if (!spec.hybrid_attach) return Status::OK();

  // Attach the search predicate; FIFO fairness (section 10.3): block
  // behind conflicting insert predicates attached ahead of us, then
  // rescan (the insert's entry is now visible).
  auto conflicts = ctx_.preds->AttachAndFindConflicts(
      g->page_id(), txn->id(), spec.op_id, spec.attach_kind, spec.query,
      [&](const PredAttachment& a) {
        return a.kind == PredKind::kInsert &&
               ext_->Consistent(a.pred, spec.query);
      });
  if (conflicts.empty()) return Status::OK();
  stats_.predicate_waits.Add(1);
  *rescan = true;
  return WaitUnlatched(g, tree, [&] {
    for (TxnId owner : conflicts) {
      GISTCR_RETURN_IF_ERROR(ctx_.locks->WaitForTxn(txn->id(), owner));
    }
    return Status::OK();
  });
}

Status Gist::FilterLeafSnapshot(Transaction* txn, Slice query,
                                const NodeView& leaf,
                                std::unordered_set<uint64_t>* seen,
                                std::vector<SearchResult>* out) {
  GISTCR_CRASHPOINT("search.mvcc_visibility");
  const Lsn snap = txn->snapshot_lsn();
  const uint16_t n = leaf.count();
  for (uint16_t i = 0; i < n; i++) {
    if (!ext_->Consistent(leaf.entry_key(i), query)) continue;
    const uint64_t rid = leaf.entry_value(i);
    if (seen->count(rid) != 0) continue;
    if (!ctx_.mvcc->Visible(rid, leaf.entry_del_txn(i), snap)) continue;
    seen->insert(rid);
    out->push_back({leaf.entry_key(i).ToString(), Rid::Unpack(rid)});
  }
  return Status::OK();
}

Status Gist::WaitUnlatched(PageGuard* g, TreeLatch* tree,
                           const std::function<Status()>& wait) {
  g->Unlatch();
  tree->Release();
  GISTCR_RETURN_IF_ERROR(wait());
  tree->Acquire();
  g->RLatch();
  return Status::OK();
}

}  // namespace gistcr
