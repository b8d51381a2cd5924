#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/btree_extension.h"
#include "client/client.h"
#include "db/database.h"
#include "obs/op_context.h"
#include "storage/fault_injector.h"
#include "tests/test_util.h"

namespace gistcr {
namespace {

/// End-to-end tests: a real Server on an ephemeral port over a real
/// Database, driven through the Client library.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("server");
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
    return Client(copts);
  }

  std::string path_;
  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  BtreeExtension bt_;
};

TEST_F(ServerTest, PingAndStats) {
  Client c = MakeClient();
  ASSERT_OK(c.Connect());
  ASSERT_OK(c.Ping());
  auto stats = c.Stats();
  ASSERT_OK(stats.status());
  // The dump must carry the server-side metrics (acceptance criterion).
  EXPECT_NE(stats.value().find("server.request_latency"), std::string::npos);
  EXPECT_NE(stats.value().find("server.op.ping"), std::string::npos);
}

TEST_F(ServerTest, AutoCommitInsertAndSearch) {
  Client c = MakeClient();
  // No explicit Connect: the first call dials lazily.
  auto rid = c.Insert(1, BtreeExtension::MakeKey(10), "ten");
  ASSERT_OK(rid.status());
  EXPECT_NE(rid.value(), 0u);

  auto hits = c.Search(1, BtreeExtension::MakeRange(10, 10),
                       /*with_records=*/true);
  ASSERT_OK(hits.status());
  ASSERT_EQ(hits.value().size(), 1u);
  EXPECT_EQ(hits.value()[0].record, "ten");
  EXPECT_EQ(hits.value()[0].rid, rid.value());
}

TEST_F(ServerTest, ExplicitTransactionVisibility) {
  Client writer = MakeClient();
  Client reader = MakeClient();

  ASSERT_OK(writer.Begin().status());
  ASSERT_OK(writer.Insert(1, BtreeExtension::MakeKey(1), "one").status());
  EXPECT_TRUE(writer.txn_open());

  // Uncommitted writes hold X locks; a reader searching the same range
  // would block, so probe a disjoint range to prove the connection works.
  auto miss = reader.Search(1, BtreeExtension::MakeRange(100, 200));
  ASSERT_OK(miss.status());
  EXPECT_TRUE(miss.value().empty());

  ASSERT_OK(writer.Commit());
  EXPECT_FALSE(writer.txn_open());

  auto hit = reader.Search(1, BtreeExtension::MakeRange(1, 1));
  ASSERT_OK(hit.status());
  EXPECT_EQ(hit.value().size(), 1u);
}

TEST_F(ServerTest, AbortDiscardsWrites) {
  Client c = MakeClient();
  ASSERT_OK(c.Begin().status());
  ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(7), "seven").status());
  ASSERT_OK(c.Abort());

  auto hits = c.Search(1, BtreeExtension::MakeRange(7, 7));
  ASSERT_OK(hits.status());
  EXPECT_TRUE(hits.value().empty());
}

TEST_F(ServerTest, DeleteRemovesEntry) {
  Client c = MakeClient();
  auto rid = c.Insert(1, BtreeExtension::MakeKey(3), "three");
  ASSERT_OK(rid.status());
  ASSERT_OK(c.Delete(1, BtreeExtension::MakeKey(3), rid.value()));
  auto hits = c.Search(1, BtreeExtension::MakeRange(3, 3));
  ASSERT_OK(hits.status());
  EXPECT_TRUE(hits.value().empty());
}

TEST_F(ServerTest, UniqueDuplicateReportsTypedError) {
  Client c = MakeClient();
  ASSERT_OK(
      c.Insert(1, BtreeExtension::MakeKey(5), "a", /*unique=*/true).status());
  auto dup = c.Insert(1, BtreeExtension::MakeKey(5), "b", /*unique=*/true);
  EXPECT_TRUE(dup.status().IsDuplicateKey()) << dup.status().ToString();
  // The connection and any session state survive a non-fatal error.
  ASSERT_OK(c.Ping());
}

TEST_F(ServerTest, TxnStateErrors) {
  Client c = MakeClient();
  Status no_txn = c.Commit();  // no transaction open
  EXPECT_EQ(no_txn.code(), Status::Code::kInvalidArgument)
      << no_txn.ToString();
  ASSERT_OK(c.Begin().status());
  auto again = c.Begin();
  EXPECT_FALSE(again.ok());  // nested BEGIN rejected
  ASSERT_OK(c.Abort());
}

// A COMMIT whose log force fails is in doubt, not rolled back: the client
// closes its transaction on the error reply as the session closed its
// own, nothing aborts it (the disconnect neither), and the durable log
// decides it at the next open. The failed batch's pwrite landed, so the
// row is there.
TEST_F(ServerTest, FailedCommitIsClosedButNotRolledBack) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  FaultInjector::Global().Reset();
  obs::Counter* disconnect_aborts =
      db_->metrics()->GetCounter("server.disconnect_aborts");
  const uint64_t aborts_before = disconnect_aborts->value();
  {
    Client c = MakeClient();
    ASSERT_OK(c.Begin().status());
    ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(42), "answer").status());
    FaultInjector::Global().FailNextSyncs(1);
    const Status st = c.Commit();
    FaultInjector::Global().Reset();
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_FALSE(c.txn_open());
    ASSERT_OK(c.Begin().status());  // the session has none open either
    ASSERT_OK(c.Abort());
  }
  // The failed sync stopped the log, so the final checkpoint fails.
  EXPECT_FALSE(server_->Shutdown().ok());
  server_.reset();
  EXPECT_EQ(disconnect_aborts->value(), aborts_before);
  db_.reset();

  auto db_or = Database::Open(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->WaitForRecovery());
  ASSERT_OK(db_->OpenIndex(1, &bt_));
  Transaction* txn = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(db_->GetIndex(1).value()->Search(
      txn, BtreeExtension::MakeRange(42, 42), &results));
  EXPECT_EQ(results.size(), 1u);
  ASSERT_OK(db_->Commit(txn));
}

// An ABORT that fails (an error right after its Abort record's append)
// ends the client's transaction as it ended the session's: the next
// request runs as an auto-commit another client sees at once, and BEGIN
// opens a new transaction.
TEST_F(ServerTest, FailedAbortClosesTheClientTransaction) {
  if (!kFaultInjectionCompiled) {
    GTEST_SKIP() << "built with GISTCR_FAULT_INJECTION=OFF";
  }
  FaultInjector::Global().Reset();
  Client c = MakeClient();
  Client other = MakeClient();
  ASSERT_OK(c.Begin().status());
  ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(1), "one").status());
  FaultInjector::Global().ArmCrashPoint("txn.after_log_append");
  const Status st = c.Abort();
  FaultInjector::Global().Reset();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_FALSE(c.txn_open());
  ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(2), "two").status());
  auto hit = other.Search(1, BtreeExtension::MakeRange(2, 2));
  ASSERT_OK(hit.status());
  EXPECT_EQ(hit.value().size(), 1u);
  ASSERT_OK(c.Begin().status());
  ASSERT_OK(c.Abort());
}

TEST_F(ServerTest, LargeResultStreamsInBatches) {
  Client c = MakeClient();
  ASSERT_OK(c.Begin().status());
  const int kRows = 500;
  for (int i = 0; i < kRows; i++) {
    ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(i),
                       "row-" + std::to_string(i))
                  .status());
  }
  ASSERT_OK(c.Commit());

  // Tiny batch size forces many kSearchBatch frames for one request.
  auto hits = c.Search(1, BtreeExtension::MakeRange(0, kRows - 1),
                       /*with_records=*/true, /*batch_size=*/16);
  ASSERT_OK(hits.status());
  EXPECT_EQ(hits.value().size(), static_cast<size_t>(kRows));
}

TEST_F(ServerTest, PipelinedBatch) {
  Client c = MakeClient();
  std::vector<Client::BatchOp> ops;
  for (int i = 0; i < 32; i++) {
    Client::BatchOp op;
    op.kind = Client::BatchOp::Kind::kInsert;
    op.index_id = 1;
    op.key = BtreeExtension::MakeKey(1000 + i);
    op.record = "batch-" + std::to_string(i);
    ops.push_back(op);
  }
  Client::BatchOp search;
  search.kind = Client::BatchOp::Kind::kSearch;
  search.index_id = 1;
  search.key = BtreeExtension::MakeRange(1000, 1031);
  search.with_records = true;
  ops.push_back(search);

  std::vector<Client::BatchResult> results;
  ASSERT_OK(c.ExecuteBatch(ops, &results));
  ASSERT_EQ(results.size(), ops.size());
  for (size_t i = 0; i + 1 < results.size(); i++) {
    ASSERT_OK(results[i].status);
    EXPECT_NE(results[i].rid, 0u);
  }
  // Each batch op auto-commits, so the trailing search sees all 32.
  ASSERT_OK(results.back().status);
  EXPECT_EQ(results.back().results.size(), 32u);
}

TEST_F(ServerTest, ConcurrentClients) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back([&, t] {
      Client c = MakeClient();
      for (int i = 0; i < kPerClient; i++) {
        int64_t k = t * 10000 + i;
        if (!c.Insert(1, BtreeExtension::MakeKey(k), "v").ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  Client c = MakeClient();
  for (int t = 0; t < kClients; t++) {
    auto hits = c.Search(
        1, BtreeExtension::MakeRange(t * 10000, t * 10000 + kPerClient - 1));
    ASSERT_OK(hits.status());
    EXPECT_EQ(hits.value().size(), static_cast<size_t>(kPerClient));
  }
  ASSERT_OK(db_->GetIndex(1).value()->CheckInvariants());
}

TEST_F(ServerTest, GracefulShutdownLeavesRecoverableDatabase) {
  {
    Client c = MakeClient();
    for (int i = 0; i < 100; i++) {
      // Appended, not `"x" + std::to_string(i)`: GCC 12 reports a false
      // -Wrestrict on that operator+ once inlined at -O3.
      std::string value = "x";
      value += std::to_string(i);
      ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(i), value).status());
    }
  }
  // Shutdown drains, checkpoints, and must leave the on-disk state
  // reopenable with intact invariants (acceptance criterion).
  ASSERT_OK(server_->Shutdown());
  server_.reset();
  db_.reset();

  auto db_or = Database::Open(opts_);
  ASSERT_OK(db_or.status());
  db_ = db_or.MoveValue();
  ASSERT_OK(db_->OpenIndex(1, &bt_));
  Gist* gist = db_->GetIndex(1).value();
  ASSERT_OK(gist->CheckInvariants());
  Transaction* txn = db_->Begin();
  std::vector<SearchResult> results;
  ASSERT_OK(gist->Search(txn, BtreeExtension::MakeRange(0, 99), &results));
  EXPECT_EQ(results.size(), 100u);
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(ServerTest, ShutdownRejectsNewTransactions) {
  Client c = MakeClient();
  ASSERT_OK(c.Ping());
  ASSERT_OK(server_->Shutdown());
  // The drained server has closed the connection (or refuses the txn);
  // either way no new work may start.
  auto begin = c.Begin();
  EXPECT_FALSE(begin.ok());
  server_.reset();
}

TEST_F(ServerTest, ClientReconnectsAfterServerSideClose) {
  Client c = MakeClient();
  ASSERT_OK(c.Ping());
  // Hard-close our socket; auto_reconnect must transparently re-dial for
  // the next idle-state call.
  c.Close();
  ASSERT_OK(c.Ping());
}

TEST_F(ServerTest, UnknownIndexIsTypedError) {
  Client c = MakeClient();
  auto st = c.Insert(99, BtreeExtension::MakeKey(1), "v").status();
  // kUnknownIndex surfaces as InvalidArgument on the client side.
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  ASSERT_OK(c.Ping());
}

TEST_F(ServerTest, PrometheusStatsOverTheWire) {
  Client c = MakeClient();
  ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(5), "five").status());
  auto prom = c.Stats(/*prometheus=*/true);
  ASSERT_OK(prom.status());
  const std::string& text = prom.value();
  // Sanitized, prefixed names with TYPE lines and histogram series.
  EXPECT_NE(text.find("# TYPE gistcr_server_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("gistcr_rpc_request_total_count"), std::string::npos);
  EXPECT_NE(text.find("gistcr_rpc_stage_queue_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  // Raw dotted registry names must not leak through.
  EXPECT_EQ(text.find("server.requests"), std::string::npos);
  // The JSON form still works and is distinct.
  auto json = c.Stats(/*prometheus=*/false);
  ASSERT_OK(json.status());
  EXPECT_EQ(json.value().front(), '{');
}

TEST_F(ServerTest, RequestDecomposesIntoStagesSummingToTotal) {
  // Tentpole acceptance criterion: a request's end-to-end latency
  // decomposes into named stages whose sum is within 10% of the measured
  // total. Stage sums are exact by construction (kOther is the remainder),
  // so the histogram sums must match to rounding.
  Client c = MakeClient();
  for (int i = 0; i < 50; i++) {
    ASSERT_OK(
        c.Insert(1, BtreeExtension::MakeKey(1000 + i), "payload").status());
  }
  auto* reg = db_->metrics();
  const uint64_t total_sum =
      reg->GetHistogram("rpc.request_total")->GetSnapshot().sum;
  ASSERT_GT(total_sum, 0u);
  uint64_t stage_sum = 0;
  size_t stages_with_data = 0;
  for (size_t s = 0; s < obs::kNumStages; s++) {
    const auto snap =
        reg->GetHistogram(std::string("rpc.stage.") +
                          obs::StageName(static_cast<obs::Stage>(s)))
            ->GetSnapshot();
    stage_sum += snap.sum;
    if (snap.count > 0) stages_with_data++;
  }
  // Every request records every stage (zeros included), so at least 5
  // named stages have samples: queue, lock, tree, walwait/fsync, other.
  EXPECT_GE(stages_with_data, 5u);
  const double lo = 0.9 * static_cast<double>(total_sum);
  const double hi = 1.1 * static_cast<double>(total_sum);
  EXPECT_GE(static_cast<double>(stage_sum), lo);
  EXPECT_LE(static_cast<double>(stage_sum), hi);
}

TEST_F(ServerTest, InspectViewsReturnJson) {
  // Force slow-op capture for everything so the ring has content.
  db_->slow_ops()->SetThresholdNs(1);
  Client c = MakeClient();
  ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(77), "slow").status());

  auto slow = c.Inspect(net::InspectKind::kSlowOps);
  ASSERT_OK(slow.status());
  EXPECT_EQ(slow.value().front(), '[');
  EXPECT_NE(slow.value().find("\"stages\""), std::string::npos);
  EXPECT_NE(slow.value().find("\"op\":\"insert\""), std::string::npos);

  auto wait = c.Inspect(net::InspectKind::kWaitGraph);
  ASSERT_OK(wait.status());
  EXPECT_NE(wait.value().find("\"edges\""), std::string::npos);

  auto bp = c.Inspect(net::InspectKind::kBufferPool);
  ASSERT_OK(bp.status());
  EXPECT_NE(bp.value().find("\"shards\""), std::string::npos);
  EXPECT_NE(bp.value().find("\"resident\""), std::string::npos);

  auto wal = c.Inspect(net::InspectKind::kWal);
  ASSERT_OK(wal.status());
  EXPECT_NE(wal.value().find("\"durable_lsn\""), std::string::npos);

  // Out-of-range kind: typed error, session survives.
  auto bad = c.Inspect(static_cast<net::InspectKind>(200));
  EXPECT_FALSE(bad.ok());
  ASSERT_OK(c.Ping());
}

TEST_F(ServerTest, SlowOpRingCapturesStageBreakdown) {
  db_->slow_ops()->SetThresholdNs(1);
  Client c = MakeClient();
  ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(88), "x").status());
  for (int i = 0; i < 100 && db_->slow_ops()->size() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto records = db_->slow_ops()->Snapshot();
  ASSERT_FALSE(records.empty());
  bool found_insert = false;
  for (const auto& r : records) {
    if (std::string(r.op_name) != "insert") continue;
    found_insert = true;
    EXPECT_GT(r.total_ns, 0u);
    uint64_t sum = 0;
    for (size_t s = 0; s < obs::kNumStages; s++) sum += r.stage_ns[s];
    EXPECT_EQ(sum, r.total_ns) << "stage sums must equal the total exactly";
    EXPECT_GT(r.request_id, 0u);
  }
  EXPECT_TRUE(found_insert);
}

}  // namespace
}  // namespace gistcr
