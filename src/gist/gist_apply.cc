#include "gist/gist_apply.h"

#include <string>

#include "db/meta_page.h"
#include "gist/node.h"

namespace gistcr {

namespace {

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("apply: ") + what);
}

Status RemoveByKeyValue(NodeView* node, const IndexEntry& e,
                        const char* what) {
  const int idx = node->FindByKeyValue(e.key, e.value);
  if (idx < 0) return Corrupt(what);
  node->RemoveEntry(static_cast<uint16_t>(idx));
  return Status::OK();
}

}  // namespace

Status ApplySplit(const SplitPayload& pl, Lsn lsn, PageGuard* g) {
  NodeView node(g->view().data());
  if (g->page_id() == pl.orig_page) {
    for (const IndexEntry& m : pl.moved) {
      GISTCR_RETURN_IF_ERROR(
          RemoveByKeyValue(&node, m, "split: moved entry missing"));
    }
    GISTCR_RETURN_IF_ERROR(node.SetBp(pl.orig_bp_after));
    // Under LSN NSNs the record logs 0: the split's NSN is its own LSN.
    node.SetLinks(pl.new_nsn != 0 ? pl.new_nsn : lsn, pl.new_page);
  } else if (g->page_id() == pl.new_page) {
    node.Init(pl.new_page, pl.level);
    for (const IndexEntry& m : pl.moved) {
      GISTCR_RETURN_IF_ERROR(node.InsertEntry(m));
    }
    GISTCR_RETURN_IF_ERROR(node.SetBp(pl.new_bp));
    node.SetLinks(pl.old_nsn, pl.old_rightlink);
  } else {
    return Corrupt("split: page not in record");
  }
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyRootChange(const RootChangePayload& pl, Lsn lsn, PageGuard* g) {
  if (g->page_id() == pl.meta_page) {
    MetaView(g->view().data()).SetRoot(pl.index_id, pl.new_root);
  } else if (g->page_id() == pl.new_root) {
    NodeView node(g->view().data());
    node.Init(pl.new_root, pl.new_root_level);
    for (const IndexEntry& e : pl.root_entries) {
      GISTCR_RETURN_IF_ERROR(node.InsertEntry(e));
    }
    GISTCR_RETURN_IF_ERROR(node.SetBp(pl.root_bp));
  } else {
    return Corrupt("root change: page not in record");
  }
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyParentEntryUpdate(const ParentEntryUpdatePayload& pl, Lsn lsn,
                              PageGuard* g) {
  NodeView node(g->view().data());
  if (g->page_id() == pl.child_page) {
    GISTCR_RETURN_IF_ERROR(node.SetBp(pl.new_bp));
  } else if (g->page_id() == pl.parent_page) {
    const int idx = node.FindByValue(pl.child_value);
    if (idx < 0) return Corrupt("parent entry update: entry missing");
    GISTCR_RETURN_IF_ERROR(
        node.SetEntryKey(static_cast<uint16_t>(idx), pl.new_bp));
  } else {
    return Corrupt("parent entry update: page not in record");
  }
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyInternalEntry(LogRecordType type, const EntryOpPayload& pl,
                          Lsn lsn, PageGuard* g) {
  NodeView node(g->view().data());
  if (type == LogRecordType::kInternalEntryAdd) {
    GISTCR_RETURN_IF_ERROR(node.InsertEntry(pl.entry));
  } else {
    const int idx = node.FindByValue(pl.entry.value);
    if (idx < 0) return Corrupt("internal entry: entry missing");
    if (type == LogRecordType::kInternalEntryUpdate) {
      GISTCR_RETURN_IF_ERROR(
          node.SetEntryKey(static_cast<uint16_t>(idx), pl.entry.key));
    } else {
      node.RemoveEntry(static_cast<uint16_t>(idx));
    }
  }
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyAddLeafEntry(const EntryOpPayload& pl, Lsn lsn, PageGuard* g) {
  GISTCR_RETURN_IF_ERROR(NodeView(g->view().data()).InsertEntry(pl.entry));
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyMarkLeafEntry(const EntryOpPayload& pl, TxnId del_txn, Lsn lsn,
                          PageGuard* g) {
  NodeView node(g->view().data());
  const int idx = node.FindByKeyValue(pl.entry.key, pl.entry.value);
  if (idx < 0) return Corrupt("mark leaf entry: entry missing");
  node.set_entry_del_txn(static_cast<uint16_t>(idx), del_txn);
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyGarbageCollection(const GarbageCollectionPayload& pl, Lsn lsn,
                              PageGuard* g) {
  NodeView node(g->view().data());
  for (const IndexEntry& e : pl.removed) {
    GISTCR_RETURN_IF_ERROR(
        RemoveByKeyValue(&node, e, "garbage collection: entry missing"));
  }
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyRightlinkUpdate(const RightlinkUpdatePayload& pl, Lsn lsn,
                            PageGuard* g) {
  // Node deletion rewires the victim's one inbound link, which the record
  // names.
  if (g->view().page_type() != PageType::kGistNode) {
    return Corrupt("rightlink update: not a GiST node");
  }
  if (!NodeView(g->view().data())
           .SwapRightlink(pl.old_rightlink, pl.new_rightlink)) {
    return Corrupt("rightlink update: link moved");
  }
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyUndoSplit(const SplitPayload& pl, Lsn lsn, PageGuard* g) {
  NodeView node(g->view().data());
  for (const IndexEntry& m : pl.moved) {
    GISTCR_RETURN_IF_ERROR(node.InsertEntry(m));
  }
  GISTCR_RETURN_IF_ERROR(node.SetBp(pl.orig_bp_before));
  node.SetLinks(pl.old_nsn, pl.old_rightlink);
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyUndoRootChange(const RootChangePayload& pl, Lsn lsn,
                           PageGuard* g) {
  MetaView(g->view().data()).SetRoot(pl.index_id, pl.old_root);
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyUndoInternalEntry(LogRecordType type, EntryOpPayload pl, Lsn lsn,
                              PageGuard* g) {
  // Each undo is the opposite internal-entry change: an add is undone by a
  // delete, a delete by an add, an update by the update back to old_bp.
  switch (type) {
    case LogRecordType::kInternalEntryAdd:
      return ApplyInternalEntry(LogRecordType::kInternalEntryDelete, pl, lsn,
                                g);
    case LogRecordType::kInternalEntryDelete:
      return ApplyInternalEntry(LogRecordType::kInternalEntryAdd, pl, lsn, g);
    default:
      pl.entry.key = pl.old_bp;
      return ApplyInternalEntry(LogRecordType::kInternalEntryUpdate, pl, lsn,
                                g);
  }
}

Status ApplyUndoAddLeafEntry(const EntryOpPayload& pl, Lsn lsn,
                             PageGuard* g) {
  NodeView node(g->view().data());
  GISTCR_RETURN_IF_ERROR(
      RemoveByKeyValue(&node, pl.entry, "undo add leaf entry: entry missing"));
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status ApplyUndoRightlinkUpdate(const RightlinkUpdatePayload& pl, Lsn lsn,
                                PageGuard* g) {
  if (g->view().page_type() != PageType::kGistNode) {
    return Corrupt("undo rightlink update: not a GiST node");
  }
  NodeView(g->view().data())
      .SwapRightlink(pl.new_rightlink, pl.old_rightlink);
  g->view().set_page_lsn(lsn);
  g->frame()->MarkDirty(lsn);
  return Status::OK();
}

Status LatchEntryLeaf(BufferPool* pool, PageId start, Nsn nsn, Slice key,
                      uint64_t value, PageGuard* out, uint32_t* hops) {
  PageId pid = start;
  // Rightlinks form no cycle; the bound turns a corrupt chain into an
  // error instead of a hang.
  for (int guard = 0; guard < (1 << 20); guard++) {
    auto frame_or = pool->Fetch(pid);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard g(pool, frame_or.value());
    g.WLatch();
    if (g.view().page_type() != PageType::kGistNode) break;
    NodeView node(g.view().data());
    if (node.FindByKeyValue(key, value) >= 0) {
      *out = std::move(g);
      return Status::OK();
    }
    if (node.nsn() <= nsn || node.rightlink() == kInvalidPageId) break;
    pid = node.rightlink();
    ++*hops;
  }
  return Status::Corruption("leaf entry lost: not in its rightlink chain");
}

}  // namespace gistcr
