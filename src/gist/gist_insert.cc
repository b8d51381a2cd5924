#include <algorithm>
#include <limits>

#include "db/meta_page.h"
#include "gist/gist.h"
#include "gist/gist_apply.h"
#include "gist/tree_latch.h"
#include "obs/op_context.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

using internal::TreeLatch;

namespace {

double NodePenalty(const GistExtension* ext, NodeView& node, Slice key) {
  Slice bp = node.bp();
  if (bp.empty()) return std::numeric_limits<double>::max();
  return ext->Penalty(bp, key);
}

}  // namespace

// ---------------------------------------------------------------------
// Descent (Figure 4, locateLeaf)
// ---------------------------------------------------------------------

Status Gist::ChaseForPenalty(Transaction* txn, PageGuard* g, Nsn delimiter,
                             Slice key, bool exclusive) {
  // Hand-over-hand, strictly left-to-right: hold the best candidate and
  // the walker; pick the chain node with the lowest insert penalty.
  stats_.rightlink_follows.Add(1);
  obs::BumpRestarts();
  PageGuard best = std::move(*g);
  NodeView best_node(best.view().data());
  double best_pen = NodePenalty(ext_, best_node, key);
  Nsn cur_nsn = best_node.nsn();
  PageId next = best_node.rightlink();
  PageGuard walker;  // trails `best` or sits right of it

  while (cur_nsn > delimiter && next != kInvalidPageId) {
    GISTCR_RETURN_IF_ERROR(SignalLock(txn, next));
    PageGuard cand;
    // B-link rightward chase: latch coupling onto the right sibling while
    // the current node stays latched is the paper's deadlock-free order
    // (left-to-right only). gistcr-lint: allow(io-under-latch)
    GISTCR_RETURN_IF_ERROR(FetchLatched(next, exclusive, &cand));
    NodeView cn(cand.view().data());
    const double pen = NodePenalty(ext_, cn, key);
    cur_nsn = cn.nsn();
    const PageId after = cn.rightlink();
    if (pen < best_pen) {
      const PageId old_best = best.page_id();
      best.Drop();
      SignalUnlock(txn, old_best);
      best = std::move(cand);
      best_pen = pen;
    } else {
      // Keep `cand` latched as the walker only long enough to read its
      // rightlink (done above); release it now.
      const PageId cpid = cand.page_id();
      cand.Drop();
      SignalUnlock(txn, cpid);
    }
    next = after;
  }
  *g = std::move(best);
  return Status::OK();
}

Status Gist::LocateLeaf(Transaction* txn, Slice key,
                        std::vector<StackEntry>* stack, PageGuard* leaf) {
  // The root step every traversal takes: PushRoot memorizes the NSN
  // before it reads the root pointer. Its one entry starts the descent;
  // the parent stack instead records each node with its NSN as visited.
  std::vector<StackEntry> root;
  GISTCR_RETURN_IF_ERROR(PushRoot(txn, &root));
  PageId p = root[0].page;
  Nsn p_nsn = root[0].nsn;
  int known_level = -1;  // unknown until the first latch

  for (;;) {
    const bool expect_leaf = known_level == 0;
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchLatched(p, /*exclusive=*/expect_leaf, &g));
    {
      NodeView node(g.view().data());
      if (known_level < 0 && node.is_leaf()) {
        // Root is a leaf: we latched S, need X. Re-latch; the NSN chase
        // below compensates for any split in the window.
        g.Unlatch();
        g.WLatch();
      }
    }
    NodeView node(g.view().data());
    if (LinkProtocol() && node.nsn() > p_nsn) {
      // Missed split: pick the lowest-penalty node in the rightlink chain
      // delimited by the memorized counter (Figure 4).
      GISTCR_RETURN_IF_ERROR(
          ChaseForPenalty(txn, &g, p_nsn, key, node.is_leaf()));
    }
    NodeView cur(g.view().data());
    if (cur.is_leaf()) {
      *leaf = std::move(g);
      return Status::OK();
    }
    // Internal: record on the parent stack with its NSN as of this visit.
    stack->push_back({g.page_id(), cur.nsn()});
    const uint16_t n = cur.count();
    if (n == 0) return Status::Corruption("empty internal node");
    uint16_t best = 0;
    double best_pen = std::numeric_limits<double>::max();
    for (uint16_t i = 0; i < n; i++) {
      const double pen = ext_->Penalty(cur.entry_key(i), key);
      if (pen < best_pen) {
        best_pen = pen;
        best = i;
      }
    }
    const PageId child = static_cast<PageId>(cur.entry_value(best));
    known_level = cur.level() - 1;
    const Nsn next_nsn = ctx_.nsn->Current();  // memorize before unlatching
    GISTCR_RETURN_IF_ERROR(SignalLock(txn, child));
    g.Drop();
    p = child;
    p_nsn = next_nsn;
  }
}

// ---------------------------------------------------------------------
// Parent location
// ---------------------------------------------------------------------

Status Gist::LatchParentForChild(const std::vector<StackEntry>& stack,
                                 size_t ancestors, PageId child,
                                 PageGuard* out, size_t* out_ancestors) {
  PageId pid = kInvalidPageId;
  if (ancestors > 0) {
    pid = stack[ancestors - 1].page;
    *out_ancestors = ancestors - 1;
  } else {
    // No stacked parent: the child is the root, unless the root grew
    // since the descent read it.
    auto root_or = GetRoot();
    GISTCR_RETURN_IF_ERROR(root_or.status());
    if (root_or.value() == child) return Status::OK();
  }
  for (int attempt = 0; attempt < 16; attempt++) {
    // The node at pid, or the node of its rightlink chain that took the
    // child's entry when it split after the entry was seen there.
    while (pid != kInvalidPageId) {
      PageGuard g;
      GISTCR_RETURN_IF_ERROR(FetchLatched(pid, /*exclusive=*/true, &g));
      NodeView node(g.view().data());
      const bool is_node =
          PageView(g.view().data()).page_type() == PageType::kGistNode;
      if (is_node && node.FindByValue(child) >= 0) {
        *out = std::move(g);
        return Status::OK();
      }
      pid = is_node ? node.rightlink() : kInvalidPageId;
    }
    // The entry is not where the stack (or the last walk) saw it: the
    // root grew past this level during the descent. Walk the tree for it.
    *out_ancestors = 0;
    GISTCR_RETURN_IF_ERROR(WalkTree([&](PageId p, const NodeView& node) {
      if (!node.is_leaf() && node.FindByValue(child) >= 0) pid = p;
      return pid == kInvalidPageId;
    }));
  }
  return Status::Corruption("parent of node not found");
}

// ---------------------------------------------------------------------
// Split (Figure 4, splitNode) — one nested top action
// ---------------------------------------------------------------------

Status Gist::SplitNode(Transaction* txn, PageGuard* node,
                       const std::vector<StackEntry>& stack,
                       size_t ancestors) {
  GISTCR_TRACE_SCOPE("gist.split");
  const Lsn nta = ctx_.txns->NtaBegin(txn);
  GISTCR_RETURN_IF_ERROR(SplitNodeInNta(txn, node, stack, ancestors));
  if (hooks_.before_split_nta_end) {
    GISTCR_RETURN_IF_ERROR(hooks_.before_split_nta_end());
  }
  // Full split applied and logged; the NTA-End that commits it is not.
  // Recovery must roll the whole split back (or forward via redo + undo of
  // the open NTA), never leave a half-installed sibling.
  GISTCR_CRASHPOINT("split.before_nta_commit");
  return ctx_.txns->NtaEnd(txn, nta);
}

Status Gist::PlanSplit(Transaction* txn, PageGuard* g, PageGuard* sib,
                       SplitPayload* pl) {
  auto pid_or = ctx_.alloc->Allocate(txn);
  GISTCR_RETURN_IF_ERROR(pid_or.status());
  // Fresh-page materialization (no disk read, never contended) under the
  // caller's split latches — the NTA must install the sibling atomically.
  auto frame_or = ctx_.pool->NewPage(pid_or.value());
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  *sib = PageGuard(ctx_.pool, frame_or.value());
  sib->WLatch();

  const NodeView node(g->view().data());
  std::vector<IndexEntry> entries = node.GetAllEntries(true);
  GISTCR_CHECK(entries.size() >= 2);
  std::vector<bool> to_right;
  ext_->PickSplit(entries, &to_right);
  GISTCR_CHECK(to_right.size() == entries.size());
  pl->orig_page = g->page_id();
  pl->new_page = sib->page_id();
  pl->level = node.level();
  pl->old_nsn = node.nsn();
  pl->old_rightlink = node.rightlink();  // kInvalidPageId for a root
  std::vector<IndexEntry> kept;
  for (size_t i = 0; i < entries.size(); i++) {
    (to_right[i] ? pl->moved : kept).push_back(std::move(entries[i]));
  }
  GISTCR_CHECK(!pl->moved.empty() && !kept.empty());
  pl->orig_bp_before = node.bp().ToString();
  pl->orig_bp_after = ext_->UnionAll(kept, Slice());
  pl->new_bp = ext_->UnionAll(pl->moved, Slice());
  return Status::OK();
}

Status Gist::LogSplit(Transaction* txn, SplitPayload* pl, PageGuard* g,
                      PageGuard* sib) {
  // The NSN: a dedicated counter bumps here, after the caller closed the
  // windows in which a reader could memorize it and still miss the split;
  // LSN mode uses the split record's own LSN (encoded as 0; ApplySplit
  // substitutes it).
  pl->new_nsn = ctx_.nsn->source() == NsnSource::kCounter
                    ? ctx_.nsn->BumpCounter()
                    : 0;
  LogRecord rec;
  rec.type = LogRecordType::kSplit;
  pl->EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &rec));
  // Split record logged, neither page touched yet (redo must reconstruct
  // both halves from the record alone).
  GISTCR_CRASHPOINT("split.after_log_append");
  GISTCR_RETURN_IF_ERROR(ApplySplit(*pl, rec.lsn, g));
  GISTCR_RETURN_IF_ERROR(ApplySplit(*pl, rec.lsn, sib));

  // Hybrid locking bookkeeping (section 4.3 case 1): predicates consistent
  // with the new sibling's BP are replicated there; signaling locks are
  // copied so indirectly referenced nodes stay deletion-protected
  // (section 7.2).
  const Slice new_bp(pl->new_bp);
  ctx_.preds->ReplicateOnSplit(pl->orig_page, pl->new_page,
                               [&](const PredAttachment& a) {
                                 return PredConsistentWithBp(new_bp, a);
                               });
  ctx_.locks->ReplicateSharedHolders(
      LockName{LockSpace::kNode, pl->orig_page},
      LockName{LockSpace::kNode, pl->new_page});
  return Status::OK();
}

Status Gist::SplitNodeInNta(Transaction* txn, PageGuard* g,
                            const std::vector<StackEntry>& stack,
                            size_t ancestors) {
  stats_.splits.Add(1);
  const PageId orig_pid = g->page_id();
  PageGuard parent;
  size_t parent_ancestors = 0;
  GISTCR_RETURN_IF_ERROR(LatchParentForChild(stack, ancestors, orig_pid,
                                             &parent, &parent_ancestors));
  // The root grows upward instead of splitting sideways (a root has no
  // rightlink to inherit).
  if (!parent.valid()) return GrowRoot(txn, g);

  PageGuard ng;
  SplitPayload pl;
  GISTCR_RETURN_IF_ERROR(PlanSplit(txn, g, &ng, &pl));

  // Make room in the parent BEFORE this split takes its NSN. A reader of
  // our parent entry must either memorize a counter value below the new
  // NSN (and so follow the rightlink) or find the new sibling's entry
  // beside ours; the parent's X latch, held from before the NSN to the
  // install, guarantees that. A parent split run after the NSN would
  // break it: it releases the parent sibling it creates, which may carry
  // our entry but not the new one, and a reader passing through it would
  // lose the moved keys.
  IndexEntry parent_entry;
  parent_entry.key = pl.new_bp;
  parent_entry.value = pl.new_page;
  for (;;) {
    NodeView pn(parent.view().data());
    if (!NodeIsFull(pn, parent_entry)) break;
    GISTCR_RETURN_IF_ERROR(
        SplitNodeInNta(txn, &parent, stack, parent_ancestors));
    // Our entry may have moved to the parent's new sibling: search again.
    parent.Drop();
    GISTCR_RETURN_IF_ERROR(LatchParentForChild(stack, ancestors, orig_pid,
                                               &parent, &parent_ancestors));
    GISTCR_CHECK(parent.valid());
  }

  GISTCR_RETURN_IF_ERROR(LogSplit(txn, &pl, g, &ng));

  // Both halves written and chained; the parent has no entry for the new
  // sibling yet (reachable only via the rightlink — the B-link invariant
  // recovery relies on).
  GISTCR_CRASHPOINT("split.before_parent_install");

  // Install the new sibling's parent entry and refresh the original's.
  {
    LogRecord add;
    add.type = LogRecordType::kInternalEntryAdd;
    EntryOpPayload ap;
    ap.page = parent.page_id();
    ap.entry = parent_entry;
    ap.EncodeTo(&add.payload);
    GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &add));
    GISTCR_RETURN_IF_ERROR(ApplyInternalEntry(add.type, ap, add.lsn, &parent));

    NodeView pn(parent.view().data());
    const int idx = pn.FindByValue(orig_pid);
    GISTCR_CHECK(idx >= 0);
    LogRecord upd;
    upd.type = LogRecordType::kInternalEntryUpdate;
    EntryOpPayload up;
    up.page = parent.page_id();
    up.entry.key = pl.orig_bp_after;
    up.entry.value = orig_pid;
    up.old_bp = pn.entry_key(static_cast<uint16_t>(idx)).ToString();
    up.EncodeTo(&upd.payload);
    GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &upd));
    GISTCR_RETURN_IF_ERROR(ApplyInternalEntry(upd.type, up, upd.lsn, &parent));
  }
  return Status::OK();
}

Status Gist::GrowRoot(Transaction* txn, PageGuard* g) {
  stats_.root_grows.Add(1);
  const PageId old_root = g->page_id();

  // Split the root's content sideways first (ordinary Split record; the
  // old root keeps its page id and gains a rightlink to the sibling), then
  // hang both under a brand-new root and move the meta pointer up.
  PageGuard sg;
  SplitPayload pl;
  GISTCR_RETURN_IF_ERROR(PlanSplit(txn, g, &sg, &pl));

  // Allocate and latch the new root before any record is logged, so the
  // meta page can be latched next (kNodeLatch < kMetaLatch) and held
  // across the whole growth.
  auto root_or = ctx_.alloc->Allocate(txn);
  GISTCR_RETURN_IF_ERROR(root_or.status());
  const PageId new_root = root_or.value();
  // GrowRoot: fresh root page materialized while both halves of the old
  // root stay latched (no disk read, no contention on an unpublished
  // page). gistcr-lint: allow(io-under-latch)
  auto root_frame_or = ctx_.pool->NewPage(new_root);
  GISTCR_RETURN_IF_ERROR(root_frame_or.status());
  PageGuard rg(ctx_.pool, root_frame_or.value());
  rg.WLatch();

  // X-latch the meta page BEFORE the split takes its NSN (the Split
  // record's LSN, or the counter bump in LogSplit). Readers memorize the
  // global counter and then read the root pointer from the meta page; if
  // the NSN were assigned while the meta page was still readable, a
  // reader could memorize a counter >= the new NSN yet still descend via
  // the stale root pointer — the strict `nsn > memorized` test at the
  // shrunken old root would then hide the moved keys and the reader would
  // never follow the rightlink. Holding the meta latch from before the
  // NSN to after SetRoot closes that window: any root-pointer read
  // completing after the NSN also sees the new root.
  //
  // The meta page is pinned hot (page 0, touched by every tree open);
  // fetching it under the node latches cannot block on real I/O, and
  // node(350) -> meta(400) is rank-increasing.
  // gistcr-lint: allow(io-under-latch)
  auto meta_or = ctx_.pool->Fetch(MetaView::kMetaPageId);
  GISTCR_RETURN_IF_ERROR(meta_or.status());
  PageGuard mg(ctx_.pool, meta_or.value());
  mg.WLatch();

  GISTCR_RETURN_IF_ERROR(LogSplit(txn, &pl, g, &sg));

  // New root above both.
  RootChangePayload rp;
  rp.meta_page = MetaView::kMetaPageId;
  rp.index_id = opts_.index_id;
  rp.old_root = old_root;
  rp.new_root = new_root;
  rp.new_root_level = static_cast<uint16_t>(pl.level + 1);
  rp.root_entries.push_back({pl.orig_bp_after, old_root, kInvalidTxnId});
  rp.root_entries.push_back({pl.new_bp, pl.new_page, kInvalidTxnId});
  rp.root_bp = ext_->Union(pl.orig_bp_after, pl.new_bp);

  LogRecord rrec;
  rrec.type = LogRecordType::kRootChange;
  rp.EncodeTo(&rrec.payload);
  GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &rrec));
  GISTCR_RETURN_IF_ERROR(ApplyRootChange(rp, rrec.lsn, &rg));

  // New root built and logged; the meta page still points at the old root
  // but has been X-latched since before the Split record was appended.
  GISTCR_CRASHPOINT("root.before_meta_update");
  if (hooks_.during_root_grow) hooks_.during_root_grow();
  return ApplyRootChange(rp, rrec.lsn, &mg);
}

// ---------------------------------------------------------------------
// BP propagation (Figure 4, updateBP)
// ---------------------------------------------------------------------

Status Gist::UpdateBp(Transaction* txn, PageGuard* g, const std::string& bp,
                      const std::vector<StackEntry>& stack,
                      size_t ancestors) {
  NodeView node(g->view().data());
  if (node.bp() == Slice(bp)) return Status::OK();
  const std::string old_bp = node.bp().ToString();
  const PageId pid = g->page_id();

  PageGuard parent;
  size_t parent_ancestors = 0;
  GISTCR_RETURN_IF_ERROR(
      LatchParentForChild(stack, ancestors, pid, &parent, &parent_ancestors));
  if (parent.valid()) {
    // Recurse upward first (latches climb; updates apply on unwind, i.e.
    // top-down, which is what makes per-level atomic actions loggable in
    // order — paper sections 6 and 9).
    NodeView pn(parent.view().data());
    GISTCR_RETURN_IF_ERROR(UpdateBp(txn, &parent, ext_->Union(pn.bp(), bp),
                                    stack, parent_ancestors));
  }

  // Apply this level: one redo-only Parent-Entry-Update covering the
  // child's own BP and its slot in the parent (the root has none).
  LogRecord rec;
  rec.type = LogRecordType::kParentEntryUpdate;
  ParentEntryUpdatePayload pp;
  pp.child_page = pid;
  pp.parent_page = parent.valid() ? parent.page_id() : kInvalidPageId;
  pp.child_value = pid;
  pp.new_bp = bp;
  pp.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &rec));
  if (!parent.valid()) return ApplyParentEntryUpdate(pp, rec.lsn, g);
  GISTCR_RETURN_IF_ERROR(ApplyParentEntryUpdate(pp, rec.lsn, &parent));
  GISTCR_RETURN_IF_ERROR(ApplyParentEntryUpdate(pp, rec.lsn, g));

  // Percolation (section 4.3 case 2): predicates on the parent that are
  // consistent with the child's expanded BP but were not with the old one
  // must come down to the child.
  Slice new_bp_slice(bp);
  Slice old_bp_slice(old_bp);
  ctx_.preds->Percolate(parent.page_id(), pid, [&](const PredAttachment& a) {
    if (a.kind == PredKind::kInsert) return false;  // leaf-only kind
    return ext_->Consistent(new_bp_slice, a.pred) &&
           (old_bp_slice.empty() ||
            !ext_->Consistent(old_bp_slice, a.pred));
  });
  return Status::OK();
}

// ---------------------------------------------------------------------
// Insert driver (paper section 6)
// ---------------------------------------------------------------------

Status Gist::LatchEntry(PageId start, Nsn nsn, Slice key, uint64_t value,
                        PageGuard* out) {
  uint32_t hops = 0;
  const Status st = LatchEntryLeaf(ctx_.pool, start, nsn, key, value, out,
                                   &hops);
  for (uint32_t i = 0; i < hops; i++) obs::BumpRestarts();
  stats_.rightlink_follows.Add(hops);
  return st;
}

Status Gist::LeafGc(Transaction* txn, PageGuard* leaf, uint64_t* removed) {
  NodeView node(leaf->view().data());
  // Marks are logged before they are applied, and applied under the leaf
  // X latch held here: a leaf last updated below the Commit_LSN carries
  // no mark of an active transaction.
  const bool all_committed =
      leaf->view().page_lsn() < ctx_.txns->CommitLsn();
  GarbageCollectionPayload pl;
  pl.page = leaf->page_id();
  Lsn horizon = kInvalidLsn;  // read once, at the first candidate
  for (uint16_t i = 0; i < node.count(); i++) {
    const TxnId d = node.entry_del_txn(i);
    if (d == kInvalidTxnId) continue;
    // Commit_LSN fast path (section 7.1 footnote 11): if the page was last
    // touched below the Commit_LSN, every mark on it belongs to a
    // terminated transaction. Snapshot readers extend the entry's lifetime
    // past the deleter's commit: physical removal must also wait until no
    // active snapshot can still see it (section 14).
    if (all_committed || !ctx_.txns->IsActive(d)) {
      if (horizon == kInvalidLsn) horizon = ctx_.txns->SnapshotHorizon();
      if (!ctx_.mvcc->SafeToReclaim(node.entry_value(i), d, horizon)) {
        continue;
      }
      pl.removed.push_back(node.GetEntry(i));
    }
  }
  if (pl.removed.empty()) return Status::OK();

  const Lsn nta = ctx_.txns->NtaBegin(txn);
  LogRecord rec;
  rec.type = LogRecordType::kGarbageCollection;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &rec));
  GISTCR_RETURN_IF_ERROR(ApplyGarbageCollection(pl, rec.lsn, leaf));
  // GC removal applied and logged; the NTA-End committing it is not.
  GISTCR_CRASHPOINT("gc.before_nta_end");
  GISTCR_RETURN_IF_ERROR(ctx_.txns->NtaEnd(txn, nta));
  *removed += pl.removed.size();
  stats_.gc_removed.Add(pl.removed.size());
  return Status::OK();
}

Status Gist::InsertCore(Transaction* txn, Slice key, Rid rid, uint64_t op_id,
                        TreeLatch* tree) {
  std::vector<StackEntry> stack;
  std::vector<PageId> extra_signal_locks;  // non-final leaves visited
  PageGuard leaf;
  GISTCR_RETURN_IF_ERROR(LocateLeaf(txn, key, &stack, &leaf));

  IndexEntry entry;
  entry.key = key.ToString();
  entry.value = rid.Pack();

  // Phase 3: make room — first by collecting committed-deleted entries,
  // then by splitting (possibly recursively).
  {
    NodeView node(leaf.view().data());
    if (NodeIsFull(node, entry)) {
      uint64_t removed = 0;
      GISTCR_RETURN_IF_ERROR(LeafGc(txn, &leaf, &removed));
    }
  }
  for (int guard = 0; guard < 64; guard++) {
    NodeView node(leaf.view().data());
    if (!NodeIsFull(node, entry)) break;
    if (node.count() < 2) {
      return Status::InvalidArgument("entry does not fit on an empty node");
    }
    GISTCR_RETURN_IF_ERROR(SplitNode(txn, &leaf, stack, stack.size()));
    // The split distributed only the pre-existing entries (Figure 4); the
    // new key belongs on whichever side has the lower insert penalty —
    // the same placement [HNP95]'s split-with-new-entry produces, and what
    // the paper's Split record ("newly inserted key and which page it
    // belongs on") encodes. Hop right when the fresh sibling wins;
    // otherwise the original leaf (which now has room) takes it.
    NodeView after(leaf.view().data());
    if (after.rightlink() != kInvalidPageId) {
      const double here = ext_->Penalty(after.bp(), key);
      PageGuard sib;
      GISTCR_RETURN_IF_ERROR(SignalLock(txn, after.rightlink()));
      // Post-split sibling hop: rightward latch coupling onto the freshly
      // split-off sibling. gistcr-lint: allow(io-under-latch)
      GISTCR_RETURN_IF_ERROR(FetchLatched(after.rightlink(),
                                          /*exclusive=*/true, &sib));
      NodeView sn(sib.view().data());
      const double there = ext_->Penalty(sn.bp(), key);
      if (!NodeIsFull(sn, entry) && there < here) {
        const PageId old = leaf.page_id();
        leaf.Drop();
        extra_signal_locks.push_back(old);  // release at end of operation
        leaf = std::move(sib);
      } else {
        const PageId spid = sib.page_id();
        sib.Drop();
        SignalUnlock(txn, spid);
      }
    }
  }
  {
    NodeView node(leaf.view().data());
    if (NodeIsFull(node, entry)) {
      return Status::NoSpace("leaf still full after splits");
    }
  }

  // Phase 4: expand BPs along the path so the new key is visible from the
  // root (top-down application with percolation).
  {
    NodeView node(leaf.view().data());
    if (node.bp().empty() || !ext_->Contains(node.bp(), key)) {
      const std::string union_bp = ext_->Union(node.bp(), key);
      GISTCR_RETURN_IF_ERROR(
          UpdateBp(txn, &leaf, union_bp, stack, stack.size()));
    }
  }

  // Phase 5: the content change itself, logged in the transaction (this is
  // what rollback logically undoes).
  {
    NodeView node(leaf.view().data());
    // Leaf chosen and room made (splits/BP updates possibly durable via
    // their NTAs), but the Add-Leaf-Entry is not yet logged.
    GISTCR_CRASHPOINT("insert.before_leaf_log");
    LogRecord rec;
    rec.type = LogRecordType::kAddLeafEntry;
    EntryOpPayload pl;
    pl.page = leaf.page_id();
    pl.nsn = node.nsn();
    pl.entry = entry;
    pl.EncodeTo(&rec.payload);
    GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &rec));
    GISTCR_RETURN_IF_ERROR(ApplyAddLeafEntry(pl, rec.lsn, &leaf));
    // Version-store shadow of the Add-Leaf-Entry (DESIGN.md section 14):
    // a pending record commit-stamping later makes the entry visible to
    // snapshots; rollback clears it via RecoveryManager::UndoRecord.
    ctx_.mvcc->NoteInsert(entry.value, txn);
    // Entry applied and logged inside a still-running transaction.
    GISTCR_CRASHPOINT("insert.after_leaf_apply");
  }

  // Phase 6: check the predicates attached to the leaf; block until
  // conflicting scan transactions terminate. Our own insert predicate is
  // attached first so later scans queue fairly behind us (section 10.3).
  if (opts_.pred_mode == PredicateMode::kHybrid) {
    for (;;) {
      NodeView node(leaf.view().data());
      auto conflicts = ctx_.preds->AttachAndFindConflicts(
          leaf.page_id(), txn->id(), op_id, PredKind::kInsert, key,
          [&](const PredAttachment& a) {
            return a.kind != PredKind::kInsert &&
                   ext_->Consistent(key, a.pred);
          });
      if (conflicts.empty()) break;
      stats_.predicate_waits.Add(1);
      const PageId lpid = leaf.page_id();
      const Nsn mem = node.nsn();
      leaf.Drop();
      tree->Release();
      for (TxnId owner : conflicts) {
        GISTCR_RETURN_IF_ERROR(ctx_.locks->WaitForTxn(txn->id(), owner));
      }
      tree->Acquire();
      GISTCR_RETURN_IF_ERROR(LatchEntry(lpid, mem, key, rid.Pack(), &leaf));
      // Loop: re-check the predicate list of wherever the entry lives now.
    }
  }

  const PageId final_leaf = leaf.page_id();
  leaf.Drop();

  // Release ancestor signaling locks; the target leaf's stays until end of
  // transaction (section 7.2: it anchors the recovery-relevant link chain).
  for (const StackEntry& se : stack) {
    if (se.page != final_leaf) SignalUnlock(txn, se.page);
  }
  for (PageId pid : extra_signal_locks) {
    if (pid != final_leaf) SignalUnlock(txn, pid);
  }
  // Drop the insert predicate: once the insert has finished, later scans
  // serialize against the physically present entry's record lock.
  ctx_.preds->DetachOp(txn->id(), op_id);
  return Status::OK();
}

}  // namespace gistcr
