#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "access/btree_extension.h"
#include "client/client.h"
#include "db/database.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

/// Satellite: a client that vanishes mid-transaction must not leave locks,
/// predicates, or an active transaction behind — the server aborts the
/// orphan when it reaps the dead connection.
class ServerDisconnectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("disconnect");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 512;
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    ASSERT_OK(db_->CreateIndex(1, &bt_));
    server_ = std::make_unique<Server>(db_.get(), ServerOptions{});
    ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    if (server_) ASSERT_OK(server_->Shutdown());
    server_.reset();
    db_.reset();
    RemoveDbFiles(path_);
  }

  Client MakeClient() {
    ClientOptions copts;
    copts.port = server_->port();
    copts.auto_reconnect = false;
    return Client(copts);
  }

  /// The reap is asynchronous (EOF lands on the event loop); poll until
  /// the session count and transaction table reflect it.
  void WaitForAbortReap() {
    for (int i = 0; i < 500; i++) {
      if (server_->active_sessions() == 0 && db_->txns()->ActiveTxns().empty())
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "server never reaped the dead session: "
           << server_->active_sessions() << " sessions, "
           << db_->txns()->ActiveTxns().size() << " txns";
  }

  std::string path_;
  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  BtreeExtension bt_;
};

TEST_F(ServerDisconnectTest, DisconnectMidTxnAbortsAndReleasesLocks) {
  {
    Client a = MakeClient();
    ASSERT_OK(a.Begin().status());
    for (int i = 0; i < 20; i++) {
      ASSERT_OK(a.Insert(1, BtreeExtension::MakeKey(i), "orphan").status());
    }
    EXPECT_TRUE(a.txn_open());
    a.Close();  // hard close: no COMMIT, no ABORT, just EOF
  }
  WaitForAbortReap();

  // Client B must see none of A's writes...
  Client b = MakeClient();
  auto hits = b.Search(1, BtreeExtension::MakeRange(0, 19));
  ASSERT_OK(hits.status());
  EXPECT_TRUE(hits.value().empty());

  // ...and must be able to take the same keys immediately — if A's X locks
  // or predicates leaked, these inserts would block past the deadline and
  // the whole test would hang or time out.
  for (int i = 0; i < 20; i++) {
    ASSERT_OK(b.Insert(1, BtreeExtension::MakeKey(i), "fresh").status());
  }
  auto after = b.Search(1, BtreeExtension::MakeRange(0, 19),
                        /*with_records=*/true);
  ASSERT_OK(after.status());
  ASSERT_EQ(after.value().size(), 20u);
  for (const auto& r : after.value()) EXPECT_EQ(r.record, "fresh");

  ASSERT_OK(db_->GetIndex(1).value()->CheckInvariants());
}

// A snapshot reader is in the transaction table like any other, so the
// reap ends it: a registered snapshot left behind would pin the version
// store's prune horizon and defer node retirement for good.
TEST_F(ServerDisconnectTest, DisconnectEndsOpenSnapshotReader) {
  {
    Client a = MakeClient();
    ASSERT_OK(a.Begin(IsolationLevel::kSnapshot).status());
    ASSERT_OK(a.Search(1, BtreeExtension::MakeRange(0, 19)).status());
    EXPECT_TRUE(db_->txns()->HasActiveSnapshots());
    a.Close();
  }
  WaitForAbortReap();
  EXPECT_FALSE(db_->txns()->HasActiveSnapshots());
}

TEST_F(ServerDisconnectTest, DisconnectCounterAndGaugeTrack) {
  Client a = MakeClient();
  ASSERT_OK(a.Begin().status());
  ASSERT_OK(a.Insert(1, BtreeExtension::MakeKey(500), "x").status());
  a.Close();
  WaitForAbortReap();

  Client b = MakeClient();
  auto stats = b.Stats();
  ASSERT_OK(stats.status());
  // The abort-on-disconnect path must be visible in the metrics dump.
  EXPECT_NE(stats.value().find("server.disconnect_aborts"), std::string::npos);
}

TEST_F(ServerDisconnectTest, ManyAbruptDisconnectsLeakNothing) {
  for (int round = 0; round < 10; round++) {
    Client c = MakeClient();
    ASSERT_OK(c.Begin().status());
    ASSERT_OK(
        c.Insert(1, BtreeExtension::MakeKey(1000 + round), "tmp").status());
    c.Close();
  }
  WaitForAbortReap();
  EXPECT_TRUE(db_->txns()->ActiveTxns().empty());

  Client b = MakeClient();
  auto hits = b.Search(1, BtreeExtension::MakeRange(1000, 1009));
  ASSERT_OK(hits.status());
  EXPECT_TRUE(hits.value().empty());
}

}  // namespace
}  // namespace gistcr
