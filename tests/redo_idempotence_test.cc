#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "access/btree_extension.h"
#include "db/heap_page.h"
#include "db/meta_page.h"
#include "storage/fault_injector.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"

namespace gistcr {
namespace {

using crash::ChildDie;  // GISTCR_CHILD_OK expands to an unqualified call

/// Redo idempotence (ARIES page-LSN test): replaying the entire log —
/// once, twice, over a fully current database, or over any mix of stale
/// and current pages — must always converge to the same state. This is
/// the property that makes "repeat history" safe regardless of which
/// dirty pages reached disk before the crash.
class RedoIdempotenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("redo");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 256;
  }
  void TearDown() override { RemoveDbFiles(path_); }

  std::vector<IndexEntry> Snapshot(Database* db, Gist* gist) {
    (void)db;
    std::vector<IndexEntry> entries;
    EXPECT_OK(gist->DumpEntries(&entries));
    std::sort(entries.begin(), entries.end(),
              [](const IndexEntry& a, const IndexEntry& b) {
                return a.value < b.value;
              });
    return entries;
  }

  std::string path_;
  DatabaseOptions opts_;
  BtreeExtension ext_;
};

TEST_F(RedoIdempotenceTest, DoubleRedoConvergesToSameState) {
  // Build a workload with splits, deletes, GC, an abort.
  {
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db->CreateIndex(1, &ext_, gopts));
    Gist* gist = db->GetIndex(1).value();
    Transaction* t1 = db->Begin();
    std::vector<Rid> rids;
    for (int64_t k = 0; k < 80; k++) {
      auto rid = db->InsertRecord(t1, gist, BtreeExtension::MakeKey(k), "v");
      ASSERT_OK(rid.status());
      rids.push_back(rid.value());
    }
    ASSERT_OK(db->Commit(t1));
    Transaction* t2 = db->Begin();
    for (int64_t k = 0; k < 40; k += 2) {
      ASSERT_OK(db->DeleteRecord(t2, gist, BtreeExtension::MakeKey(k),
                                 rids[static_cast<size_t>(k)]));
    }
    ASSERT_OK(db->Commit(t2));
    Transaction* t3 = db->Begin();
    uint64_t r = 0, n = 0;
    ASSERT_OK(gist->GarbageCollect(t3, &r, &n));
    ASSERT_OK(db->Commit(t3));
    Transaction* t4 = db->Begin();
    for (int64_t k = 100; k < 120; k++) {
      ASSERT_OK(db->InsertRecord(t4, gist, BtreeExtension::MakeKey(k), "v")
                    .status());
    }
    ASSERT_OK(db->Abort(t4));
    ASSERT_OK(db->log()->FlushAll());
    db->SimulateCrash();
  }

  // Recover once; snapshot; replay the whole log AGAIN over the fully
  // recovered pages; snapshot must be identical and invariants hold.
  auto db_or = Database::Open(opts_);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  ASSERT_OK(db->WaitForRecovery());
  GistOptions gopts;
  gopts.max_entries = 8;
  ASSERT_OK(db->OpenIndex(1, &ext_, gopts));
  Gist* gist = db->GetIndex(1).value();
  auto snap1 = Snapshot(db.get(), gist);
  ASSERT_OK(gist->CheckInvariants());

  int redone = 0;
  ASSERT_OK(db->log()->Scan(
      kInvalidLsn, kInvalidLsn, [&](const LogRecord& rec) {
        EXPECT_OK(db->recovery()->RedoRecord(rec));
        redone++;
        return true;
      }));
  EXPECT_GT(redone, 100);

  auto snap2 = Snapshot(db.get(), gist);
  ASSERT_OK(gist->CheckInvariants());
  ASSERT_EQ(snap1.size(), snap2.size());
  for (size_t i = 0; i < snap1.size(); i++) {
    EXPECT_EQ(snap1[i].key, snap2[i].key);
    EXPECT_EQ(snap1[i].value, snap2[i].value);
    EXPECT_EQ(snap1[i].del_txn, snap2[i].del_txn);
  }
}

TEST_F(RedoIdempotenceTest, RecoverTwiceWithoutNewWork) {
  {
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->CreateIndex(1, &ext_));
    Gist* gist = db->GetIndex(1).value();
    Transaction* txn = db->Begin();
    for (int64_t k = 0; k < 50; k++) {
      ASSERT_OK(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v")
                    .status());
    }
    ASSERT_OK(db->Commit(txn));
    Transaction* loser = db->Begin();
    ASSERT_OK(db->InsertRecord(loser, gist, BtreeExtension::MakeKey(999),
                               "v")
                  .status());
    ASSERT_OK(db->log()->FlushAll());
    db->SimulateCrash();
  }
  std::vector<IndexEntry> snaps[2];
  for (int round = 0; round < 2; round++) {
    auto db_or = Database::Open(opts_);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    ASSERT_OK(db->WaitForRecovery());
    ASSERT_OK(db->OpenIndex(1, &ext_));
    Gist* gist = db->GetIndex(1).value();
    ASSERT_OK(gist->CheckInvariants());
    snaps[round] = Snapshot(db.get(), gist);
    db->SimulateCrash();  // drop volatile state; recover again next round
  }
  ASSERT_EQ(snaps[0].size(), snaps[1].size());
  ASSERT_EQ(snaps[0].size(), 50u);
  for (size_t i = 0; i < snaps[0].size(); i++) {
    EXPECT_EQ(snaps[0][i].value, snaps[1][i].value);
  }
}

// ---------------------------------------------------------------------
// Forward images vs redo images, page by page
// ---------------------------------------------------------------------

std::string Hex(Slice s) {
  std::ostringstream os;
  os << std::hex << std::setfill('0');
  for (size_t i = 0; i < s.size(); i++) {
    os << std::setw(2) << static_cast<int>(static_cast<uint8_t>(s.data()[i]));
  }
  return os.str();
}

/// The logged state of every page a restart must rebuild, one line per
/// page: each allocated GiST node (page LSN, level, NSN, rightlink, BP,
/// entries in slot order with their delete marks), each allocated heap
/// page (records with their delete flags; a page never formatted reads
/// as an empty one), the bitmap payloads and the meta page's root
/// pointer.
std::map<PageId, std::string> CapturePages(Database* db) {
  std::map<PageId, std::string> out;
  BufferPool* pool = db->pool();
  auto read = [&](PageId pid, const std::function<void(PageView)>& fn) {
    auto frame_or = pool->Fetch(pid);
    EXPECT_OK(frame_or.status());
    if (!frame_or.ok()) return;
    PageGuard g(pool, frame_or.value());
    g.RLatch();
    fn(g.view());
  };
  read(MetaView::kMetaPageId, [&](PageView v) {
    std::ostringstream os;
    os << "meta root=" << MetaView(v.data()).GetRoot(1);
    out[MetaView::kMetaPageId] = os.str();
  });
  std::vector<PageId> allocated;
  for (uint32_t b = 0; b < PageAllocator::kNumBitmapPages; b++) {
    const PageId bitmap = PageAllocator::kFirstBitmapPage + b;
    read(bitmap, [&](PageView v) {
      const Slice payload(v.payload(), PageView::payload_size());
      std::ostringstream os;
      os << "bitmap " << Hex(payload);
      out[bitmap] = os.str();
      for (uint32_t bit = 0; bit < PageAllocator::kBitsPerPage; bit++) {
        const PageId pid = b * PageAllocator::kBitsPerPage + bit;
        if (pid >= PageAllocator::kFirstAllocatablePage &&
            ((payload.data()[bit / 8] >> (bit % 8)) & 1)) {
          allocated.push_back(pid);
        }
      }
    });
  }
  for (PageId pid : allocated) {
    read(pid, [&](PageView v) {
      std::ostringstream os;
      if (v.page_type() == PageType::kGistNode) {
        NodeView node(v.data());
        os << "node lsn=" << v.page_lsn() << " level=" << node.level()
           << " nsn=" << node.nsn() << " rl=" << node.rightlink()
           << " bp=" << Hex(node.bp()) << " entries:";
        for (const IndexEntry& e : node.GetAllEntries(true)) {
          os << " " << Hex(e.key) << "/" << e.value << "/" << e.del_txn;
        }
      } else {
        HeapPageView hv(v.data());
        const bool formatted = hv.IsFormatted();
        EXPECT_TRUE(formatted || v.page_type() == PageType::kFree)
            << "page " << pid;
        os << "heap records:";
        for (uint16_t i = 0; formatted && i < hv.count(); i++) {
          os << " " << Hex(hv.Record(i)) << (hv.IsDeleted(i) ? "/d" : "/l");
        }
      }
      out[pid] = os.str();
    });
  }
  return out;
}

class RedoIdempotenceForwardTest
    : public RedoIdempotenceTest,
      public ::testing::WithParamInterface<NsnSource> {};

// Redo must repeat history exactly: the images a restart rebuilds from the
// log equal, page by page, the images the forward path wrote. The workload
// runs every record type through its forward path — splits and root grows,
// a GC pass that deletes nodes, savepoint and duplicate-key rollbacks, an
// abort, and a split that stopped short of its NTA-End and was rolled back.
TEST_P(RedoIdempotenceForwardTest, RedoRebuildsForwardPages) {
  opts_.nsn_source = GetParam();
  opts_.buffer_pool_pages = 4096;  // nothing evicted: the pool holds the
                                   // forward images until the crash
  std::map<PageId, std::string> forward;
  {
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    auto db = db_or.MoveValue();
    GistOptions gopts;
    gopts.max_entries = 8;
    ASSERT_OK(db->CreateIndex(1, &ext_, gopts));
    Gist* gist = db->GetIndex(1).value();
    auto insert = [&](Transaction* txn, int64_t k) {
      auto rid = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k),
                                  "v" + std::to_string(k));
      EXPECT_OK(rid.status());
      return rid.ok() ? rid.value() : Rid{};
    };
    std::map<int64_t, Rid> rids;
    Transaction* txn = db->Begin();
    for (int64_t k = 0; k < 240; k++) rids[k] = insert(txn, k);
    ASSERT_OK(db->Commit(txn));

    // A contiguous delete run empties whole leaves; GC then deletes nodes.
    txn = db->Begin();
    for (int64_t k = 40; k < 160; k++) {
      ASSERT_OK(db->DeleteRecord(txn, gist, BtreeExtension::MakeKey(k),
                                 rids[k]));
    }
    ASSERT_OK(db->Commit(txn));
    txn = db->Begin();
    uint64_t removed = 0, deleted = 0;
    ASSERT_OK(gist->GarbageCollect(txn, &removed, &deleted));
    ASSERT_OK(db->Commit(txn));
    EXPECT_GT(deleted, 0u);

    // Savepoint rollback and a duplicate unique insert.
    txn = db->Begin();
    insert(txn, 1000);
    ASSERT_OK(db->txns()->Savepoint(txn, "sp"));
    for (int64_t k = 1001; k < 1020; k++) insert(txn, k);
    ASSERT_OK(db->DeleteRecord(txn, gist, BtreeExtension::MakeKey(5),
                               rids[5]));
    ASSERT_OK(db->txns()->RollbackToSavepoint(txn, "sp"));
    EXPECT_TRUE(db->InsertRecord(txn, gist, BtreeExtension::MakeKey(1000),
                                 "dup", /*unique=*/true)
                    .status()
                    .IsDuplicateKey());
    ASSERT_OK(db->Commit(txn));

    // An aborted transaction with inserts and deletes.
    txn = db->Begin();
    for (int64_t k = 2000; k < 2030; k++) insert(txn, k);
    for (int64_t k = 200; k < 210; k++) {
      ASSERT_OK(db->DeleteRecord(txn, gist, BtreeExtension::MakeKey(k),
                                 rids[k]));
    }
    ASSERT_OK(db->Abort(txn));

    // A split logged up to its NTA-End, then rolled back.
    txn = db->Begin();
    gist->test_hooks().before_split_nta_end = [] {
      return Status::IOError("split interrupted");
    };
    Status st;
    for (int64_t k = 3000; k < 3100 && st.ok(); k++) {
      st = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "s")
               .status();
    }
    gist->test_hooks().before_split_nta_end = nullptr;
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    ASSERT_OK(db->Abort(txn));

    ASSERT_OK(db->log()->FlushAll());
    forward = CapturePages(db.get());
    db->SimulateCrash();
  }

  auto db_or = Database::Open(opts_);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  ASSERT_OK(db->WaitForRecovery());
  EXPECT_GT(db->metrics()->GetCounter("recovery.records_redone")->load(),
            1000u);
  const std::map<PageId, std::string> redone = CapturePages(db.get());

  size_t nodes = 0, differ = 0;
  for (const auto& [pid, image] : forward) {
    nodes += image.rfind("node", 0) == 0;
    auto it = redone.find(pid);
    if (it == redone.end() || it->second != image) {
      differ++;
      ADD_FAILURE() << "page " << pid << "\n  forward: " << image
                    << "\n  redone:  "
                    << (it == redone.end() ? "<not allocated>" : it->second);
    }
  }
  for (const auto& [pid, image] : redone) {
    if (forward.count(pid) == 0) {
      differ++;
      ADD_FAILURE() << "page " << pid << " allocated only after redo: "
                    << image;
    }
  }
  EXPECT_GT(nodes, 40u);
  EXPECT_EQ(differ, 0u) << "of " << forward.size() << " pages";
}

INSTANTIATE_TEST_SUITE_P(
    NsnSources, RedoIdempotenceForwardTest,
    ::testing::Values(NsnSource::kLsn, NsnSource::kCounter),
    [](const ::testing::TestParamInfo<NsnSource>& info) {
      return std::string(info.param == NsnSource::kLsn ? "Lsn" : "Counter");
    });

// ---------------------------------------------------------------------
// Undo appends its CLR under the page latch
// ---------------------------------------------------------------------

// A rollback that appended its CLR before latching the page let a writer
// slip its own record onto the page in between: the undo then stamped the
// older CLR LSN over the writer's newer one, and once that page reached
// disk, restart re-applied the writer's record on top of itself. Here B
// inserts on A's heap page inside A's CLR append; B waits (boundedly) for
// the latch A holds, and the restart must keep B's record and drop A's.
TEST_F(RedoIdempotenceTest, UndoKeepsConcurrentWritersPageLsn) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  ASSERT_EQ(crash::ForkAndWait([&] {
              auto db_or = Database::Create(opts_);
              if (!db_or.ok()) ChildDie("create", db_or.status());
              auto db = db_or.MoveValue();
              GISTCR_CHILD_OK("index", db->CreateIndex(1, &ext_));
              Gist* gist = db->GetIndex(1).value();
              Transaction* a = db->Begin(IsolationLevel::kReadCommitted);
              GISTCR_CHILD_OK(
                  "a insert",
                  db->InsertRecord(a, gist, BtreeExtension::MakeKey(1), "a")
                      .status());
              std::thread b;
              std::promise<Status> b_done;
              // Appends in A's abort: Abort, the leaf CLR, the heap CLR.
              FaultInjector::Global().Reset();
              FaultInjector::Global().ArmCrashPointHook(
                  "txn.after_log_append",
                  [&] {
                    b = std::thread([&] {
                      Transaction* t =
                          db->Begin(IsolationLevel::kReadCommitted);
                      Status st = db->InsertRecord(t, gist,
                                                   BtreeExtension::MakeKey(2),
                                                   "b")
                                      .status();
                      if (st.ok()) st = db->Commit(t);
                      b_done.set_value(st);
                    });
                    // A writer blocked on a latch A holds is serialized
                    // behind A, not failed: wait a bounded time only.
                    b_done.get_future().wait_for(
                        std::chrono::milliseconds(200));
                  },
                  /*skip=*/2);
              GISTCR_CHILD_OK("a abort", db->Abort(a));
              FaultInjector::Global().Reset();
              if (!b.joinable()) std::_Exit(5);
              b.join();
              GISTCR_CHILD_OK("flush", db->FlushAll());
              std::_Exit(0);  // crash: no shutdown
            }),
            0);

  // The restart itself runs in a child: with the old order its redo died
  // on the heap page's slot check.
  ASSERT_EQ(crash::ForkAndWait([&] {
              auto db_or = Database::Open(opts_);
              if (!db_or.ok()) std::_Exit(3);
              std::_Exit(db_or.value()->WaitForRecovery().ok() ? 0 : 4);
            }),
            0);

  auto db_or = Database::Open(opts_);
  ASSERT_OK(db_or.status());
  auto db = db_or.MoveValue();
  ASSERT_OK(db->WaitForRecovery());
  ASSERT_OK(db->OpenIndex(1, &ext_));
  Gist* gist = db->GetIndex(1).value();
  Transaction* reader = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(reader, BtreeExtension::MakeRange(0, 10), &results));
  ASSERT_OK(db->Commit(reader));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(BtreeExtension::Lo(results[0].key), 2);
  auto b_rec = db->ReadRecord(results[0].rid);
  ASSERT_OK(b_rec.status());
  EXPECT_EQ(b_rec.value(), "b");
  // A's record sat in the slot before B's and is tombstoned.
  ASSERT_EQ(results[0].rid.slot, 1u);
  Rid a_rid = results[0].rid;
  a_rid.slot = 0;
  EXPECT_TRUE(db->ReadRecord(a_rid).status().IsNotFound());
}

}  // namespace
}  // namespace gistcr
