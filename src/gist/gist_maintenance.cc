#include <algorithm>
#include <deque>

#include "db/meta_page.h"
#include "gist/gist.h"
#include "gist/gist_apply.h"
#include "gist/tree_latch.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

using internal::TreeLatch;

// ---------------------------------------------------------------------
// Garbage collection sweep + node deletion (paper sections 7.1-7.2)
// ---------------------------------------------------------------------

Status Gist::ShrinkChildBp(Transaction* txn, PageGuard* parent,
                           PageGuard* child) {
  NodeView cn(child->view().data());
  std::vector<IndexEntry> entries = cn.GetAllEntries(true);
  if (entries.empty()) return Status::OK();
  const std::string actual = ext_->UnionAll(entries, Slice());
  NodeView pn(parent->view().data());
  const int idx = pn.FindByValue(child->page_id());
  if (idx < 0) return Status::OK();  // migrated; next sweep catches it
  if (pn.entry_key(static_cast<uint16_t>(idx)) == Slice(actual) &&
      cn.bp() == Slice(actual)) {
    return Status::OK();
  }
  // Never widen here: shrinking is only sound because the union covers all
  // physically present entries (including logically deleted ones — their
  // paths must survive until GC, section 7).
  LogRecord rec;
  rec.type = LogRecordType::kParentEntryUpdate;
  ParentEntryUpdatePayload pl;
  pl.child_page = child->page_id();
  pl.parent_page = parent->page_id();
  pl.child_value = child->page_id();
  pl.new_bp = actual;
  pl.EncodeTo(&rec.payload);
  GISTCR_RETURN_IF_ERROR(ctx_.txns->AppendTxnLog(txn, &rec));
  GISTCR_RETURN_IF_ERROR(ApplyParentEntryUpdate(pl, rec.lsn, parent));
  return ApplyParentEntryUpdate(pl, rec.lsn, child);
}

Status Gist::TryDeleteChild(Transaction* txn, PageGuard* parent,
                            PageId child, bool* deleted) {
  *deleted = false;
  // Snapshot traversals stack node pointers WITHOUT signaling locks, so
  // the drain check below cannot see them; instead retirement is deferred
  // wholesale while any snapshot is active. Checked under the parent's X
  // latch (held by the GC sweep): a snapshot registered after this check
  // must traverse through the latched parent and will find the entry
  // already removed — it can never stack a pointer to the victim.
  if (ctx_.txns->HasActiveSnapshots()) {
    ctx_.mvcc->CountRetireDeferred();
    return Status::OK();
  }
  NodeView pn(parent->view().data());

  // Refuse to delete the root.
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  if (child == root_or.value()) return Status::OK();

  PageGuard cg;
  {
    auto frame_or = ctx_.pool->Fetch(child);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    cg = PageGuard(ctx_.pool, frame_or.value());
    if (!cg.TryWLatch()) return Status::OK();  // contended; skip
  }
  NodeView cn(cg.view().data());
  if (PageView(cg.view().data()).page_type() != PageType::kGistNode ||
      cn.count() != 0) {
    return Status::OK();
  }

  // Find the unique rightlink owner (the node `child` split from, or the
  // node rewired to it by an earlier deletion): walk the rightlink chains
  // hanging off this parent's other entries. If the owner lives under a
  // different parent we conservatively skip (drain technique stays safe).
  PageGuard owner;
  bool owner_found = false;
  for (uint16_t j = 0; j < pn.count() && !owner_found; j++) {
    PageId cur = static_cast<PageId>(pn.entry_value(j));
    if (cur == child) continue;
    int chain_guard = 0;
    while (cur != kInvalidPageId && chain_guard++ < 256) {
      if (cur == child) break;
      // GC chain walk uses try-latches only (bails on contention), so
      // fetching the next link under the previous latch cannot deadlock.
      // gistcr-lint: allow(io-under-latch)
      auto fo = ctx_.pool->Fetch(cur);
      GISTCR_RETURN_IF_ERROR(fo.status());
      PageGuard g(ctx_.pool, fo.value());
      if (!g.TryWLatch()) break;  // contended; give up on this chain
      if (PageView(g.view().data()).page_type() != PageType::kGistNode) {
        break;
      }
      NodeView nv(g.view().data());
      if (nv.rightlink() == child) {
        owner = std::move(g);
        owner_found = true;
        break;
      }
      cur = nv.rightlink();
    }
  }
  // A node that was never split into (no inbound rightlink) can also be
  // deleted — but only if we can prove no inbound link exists. The chain
  // walk above cannot prove a negative cheaply, so we require an owner
  // *or* that the child itself has never been linked to: conservatively,
  // only delete when we found the owner, or when no other entry's chain
  // can reach it AND the child has no rightlink history we must preserve.
  if (!owner_found) {
    // Safe case: the child's NSN is 0 (never split) and no owner was found
    // under this parent. An inbound rightlink to it could still exist from
    // a node under another parent only if that node once split into this
    // child — impossible if this child was created fresh (split targets
    // are fresh pages; their creators are their chain predecessors, which
    // start under the same parent entry set we just walked). Still, the
    // creator's entry may have migrated to another parent, so we only
    // proceed when the child has never been split (NSN==0 under a fresh
    // counter is not reliable with LSN NSNs) — skip instead.
    return Status::OK();
  }

  // Drain check (section 7.2): an X signaling lock succeeds only when no
  // traversal holds a stacked pointer to the node.
  Status lock_st =
      ctx_.locks->Lock(txn->id(), LockName{LockSpace::kNode, child},
                       LockMode::kExclusive, /*wait=*/false);
  if (!lock_st.ok()) return Status::OK();  // drain not complete; retry later

  const Lsn nta = ctx_.txns->NtaBegin(txn);
  Status st = Status::OK();

  // 1. Remove the parent entry.
  const int idx = pn.FindByValue(child);
  GISTCR_CHECK(idx >= 0);
  {
    LogRecord rec;
    rec.type = LogRecordType::kInternalEntryDelete;
    EntryOpPayload pl;
    pl.page = parent->page_id();
    pl.entry = pn.GetEntry(static_cast<uint16_t>(idx));
    pl.EncodeTo(&rec.payload);
    st = ctx_.txns->AppendTxnLog(txn, &rec);
    if (st.ok()) st = ApplyInternalEntry(rec.type, pl, rec.lsn, parent);
  }
  // 2. Rewire the owner's rightlink around the victim.
  // Parent entry removed, chain still routed through the victim; the open
  // NTA must undo the removal if we die here.
  if constexpr (kFaultInjectionCompiled) {
    if (st.ok()) {
      st = FaultInjector::Global().CheckCrashPoint(
          "gc.node_delete.before_rightlink_rewire");
    }
  }
  if (st.ok()) {
    LogRecord rec;
    rec.type = LogRecordType::kRightlinkUpdate;
    RightlinkUpdatePayload pl;
    pl.page = owner.page_id();
    pl.old_rightlink = child;
    pl.new_rightlink = cn.rightlink();
    pl.EncodeTo(&rec.payload);
    st = ctx_.txns->AppendTxnLog(txn, &rec);
    if (st.ok()) st = ApplyRightlinkUpdate(pl, rec.lsn, &owner);
  }
  // 3. Return the page to the allocator.
  if (st.ok()) {
    st = ctx_.alloc->Free(txn, child);
  }
  if (st.ok()) {
    // Advisory: mark the frame's content free so stale readers bail.
    cg.view().set_page_type(PageType::kFree);
    cg.frame()->MarkDirty(txn->last_lsn());
    st = ctx_.txns->NtaEnd(txn, nta);
  }
  ctx_.locks->Unlock(txn->id(), LockName{LockSpace::kNode, child});
  if (st.ok()) {
    *deleted = true;
    stats_.nodes_deleted.Add(1);
  }
  return st;
}

Status Gist::GarbageCollect(Transaction* txn, uint64_t* entries_removed,
                            uint64_t* nodes_deleted) {
  GISTCR_TRACE_SCOPE("gist.gc");
  uint64_t removed = 0, deleted = 0;
  MutexLock gc_guard(gc_mu_);
  TreeLatch tree(&tree_latch_, /*exclusive=*/true,
                 opts_.protocol == ConcurrencyProtocol::kCoarse);

  // Phase A: snapshot the node population.
  std::vector<std::pair<PageId, uint16_t>> internals;  // (pid, level)
  std::vector<PageId> leaves;
  GISTCR_RETURN_IF_ERROR(WalkTree([&](PageId pid, const NodeView& node) {
    if (node.is_leaf()) {
      leaves.push_back(pid);
    } else {
      internals.emplace_back(pid, node.level());
    }
    return true;
  }));

  // Phase B: collect committed-deleted leaf entries.
  for (PageId pid : leaves) {
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchLatched(pid, /*exclusive=*/true, &g));
    if (PageView(g.view().data()).page_type() != PageType::kGistNode) {
      continue;
    }
    NodeView node(g.view().data());
    if (!node.is_leaf()) continue;
    GISTCR_RETURN_IF_ERROR(LeafGc(txn, &g, &removed));
  }

  // Phase C: bottom-up BP shrink and empty-node deletion (level 1 parents
  // first so higher levels see shrunken child BPs).
  std::sort(internals.begin(), internals.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [pid, level] : internals) {
    (void)level;
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchLatched(pid, /*exclusive=*/true, &g));
    if (PageView(g.view().data()).page_type() != PageType::kGistNode) {
      continue;
    }
    uint16_t i = 0;
    for (;;) {
      NodeView pn(g.view().data());
      if (pn.is_leaf() || i >= pn.count()) break;
      const PageId child = static_cast<PageId>(pn.entry_value(i));
      bool child_deleted = false;
      {
        // Downward parent→child fetch in GC; the child is only try-latched
        // below, so holding the parent latch here cannot deadlock.
        // gistcr-lint: allow(io-under-latch)
        auto fo = ctx_.pool->Fetch(child);
        GISTCR_RETURN_IF_ERROR(fo.status());
        PageGuard cg(ctx_.pool, fo.value());
        if (cg.TryWLatch()) {
          if (PageView(cg.view().data()).page_type() == PageType::kGistNode) {
            NodeView cn(cg.view().data());
            if (cn.count() == 0) {
              cg.Drop();  // TryDeleteChild re-latches
              GISTCR_RETURN_IF_ERROR(
                  TryDeleteChild(txn, &g, child, &child_deleted));
            } else {
              GISTCR_RETURN_IF_ERROR(ShrinkChildBp(txn, &g, &cg));
            }
          }
        }
      }
      if (!child_deleted) i++;
      if (child_deleted) deleted++;
    }
  }

  if (entries_removed != nullptr) *entries_removed = removed;
  if (nodes_deleted != nullptr) *nodes_deleted = deleted;
  return Status::OK();
}

// ---------------------------------------------------------------------
// Introspection / validation
// ---------------------------------------------------------------------

Status Gist::CheckNode(PageId pid, Slice parent_pred, uint32_t expected_level,
                       bool has_expected_level,
                       std::unordered_set<uint64_t>* rids,
                       std::unordered_set<PageId>* visited) {
  if (!visited->insert(pid).second) {
    return Status::Corruption("node reachable twice: " + std::to_string(pid));
  }
  PageGuard g;
  GISTCR_RETURN_IF_ERROR(FetchLatched(pid, /*exclusive=*/false, &g));
  if (PageView(g.view().data()).page_type() != PageType::kGistNode) {
    return Status::Corruption("non-node page in tree: " + std::to_string(pid));
  }
  NodeView node(g.view().data());
  if (has_expected_level && node.level() != expected_level) {
    return Status::Corruption("level mismatch at " + std::to_string(pid));
  }
  if (!parent_pred.empty()) {
    if (node.count() > 0 && !ext_->Contains(parent_pred, node.bp())) {
      return Status::Corruption("parent pred does not contain child BP at " +
                                std::to_string(pid));
    }
  }
  std::vector<IndexEntry> entries = node.GetAllEntries(true);
  Slice bp = node.bp();
  for (const IndexEntry& e : entries) {
    if (!ext_->Contains(bp, e.key)) {
      return Status::Corruption("BP does not contain entry at " +
                                std::to_string(pid));
    }
  }
  if (node.is_leaf()) {
    for (const IndexEntry& e : entries) {
      if (e.del_txn != kInvalidTxnId) continue;
      if (!rids->insert(e.value).second) {
        return Status::Corruption("duplicate rid " + std::to_string(e.value));
      }
    }
    return Status::OK();
  }
  const uint16_t level = node.level();
  std::string own_bp = bp.ToString();
  g.Drop();
  for (const IndexEntry& e : entries) {
    GISTCR_RETURN_IF_ERROR(CheckNode(static_cast<PageId>(e.value), e.key,
                                     level - 1, true, rids, visited));
  }
  return Status::OK();
}

Status Gist::CheckInvariants() {
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  if (root_or.value() == kInvalidPageId) {
    return Status::NotFound("index has no root");
  }
  std::unordered_set<uint64_t> rids;
  std::unordered_set<PageId> visited;
  return CheckNode(root_or.value(), Slice(), 0, false, &rids, &visited);
}

Status Gist::WalkTree(
    const std::function<bool(PageId, const NodeView&)>& visit) {
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  if (root_or.value() == kInvalidPageId) {
    return Status::NotFound("index has no root");
  }
  std::deque<PageId> frontier{root_or.value()};
  std::unordered_set<PageId> visited;
  while (!frontier.empty()) {
    const PageId pid = frontier.front();
    frontier.pop_front();
    if (!visited.insert(pid).second) continue;
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchLatched(pid, /*exclusive=*/false, &g));
    // A node retired since its pointer was read: skip it.
    if (PageView(g.view().data()).page_type() != PageType::kGistNode) {
      continue;
    }
    const NodeView node(g.view().data());
    if (!visit(pid, node)) return Status::OK();
    if (node.rightlink() != kInvalidPageId) {
      frontier.push_back(node.rightlink());
    }
    if (node.is_leaf()) continue;
    for (uint16_t i = 0; i < node.count(); i++) {
      frontier.push_back(static_cast<PageId>(node.entry_value(i)));
    }
  }
  return Status::OK();
}

Status Gist::DumpEntries(std::vector<IndexEntry>* out) {
  return WalkTree([out](PageId, const NodeView& node) {
    if (node.is_leaf()) {
      for (IndexEntry& e : node.GetAllEntries(true)) {
        out->push_back(std::move(e));
      }
    }
    return true;
  });
}

StatusOr<uint32_t> Gist::Height() {
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  PageId pid = root_or.value();
  if (pid == kInvalidPageId) return Status::NotFound("no root");
  uint32_t h = 1;
  for (;;) {
    PageGuard g;
    GISTCR_RETURN_IF_ERROR(FetchLatched(pid, /*exclusive=*/false, &g));
    NodeView node(g.view().data());
    if (node.is_leaf()) return h;
    if (node.count() == 0) return Status::Corruption("empty internal node");
    pid = static_cast<PageId>(node.entry_value(0));
    h++;
  }
}

}  // namespace gistcr
