#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "access/btree_extension.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace gistcr {
namespace {

/// Model-based end-to-end check: a long random stream of transactions
/// (insert / delete / range-search / abort / GC / crash-recover) executed
/// against both the engine and an in-memory oracle (std::map). After every
/// search the result set must equal the oracle's range view; after every
/// crash-recovery cycle the full contents must match the oracle exactly.
///
/// Equivalence mode: every search runs twice on the same index, once as a
/// read-committed transaction (2PL leaf filter: record S-locks) and once
/// as a snapshot transaction begun after the last commit (MVCC leaf
/// filter: Visible()). Both share one node visit (Gist::VisitNext) and
/// must be observationally identical — same result sets step by step,
/// same post-recovery contents, where the snapshot reads a version store
/// rebuilt from nothing after each crash.
class ModelCheckTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    path_ = TestPath("model");
    RemoveDbFiles(path_);
    opts_.path = path_;
    opts_.buffer_pool_pages = 256;
    gopts_.max_entries = 8;
    auto db_or = Database::Create(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    ASSERT_OK(db_->CreateIndex(1, &ext_, gopts_));
    gist_ = db_->GetIndex(1).value();
  }
  void TearDown() override {
    db_.reset();
    RemoveDbFiles(path_);
  }

  void CrashRecover() {
    ASSERT_OK(db_->log()->FlushAll());
    db_->SimulateCrash();
    db_.reset();
    auto db_or = Database::Open(opts_);
    ASSERT_OK(db_or.status());
    db_ = db_or.MoveValue();
    // Snapshot begins downgrade to repeatable read while instant restart
    // is still undoing losers; drain it so the snapshot leg stays one.
    ASSERT_OK(db_->WaitForRecovery());
    ASSERT_OK(db_->OpenIndex(1, &ext_, gopts_));
    gist_ = db_->GetIndex(1).value();
  }

  std::set<int64_t> SearchAt(IsolationLevel iso, int64_t lo, int64_t hi) {
    Transaction* txn = db_->Begin(iso);
    EXPECT_EQ(txn->is_snapshot(), iso == IsolationLevel::kSnapshot);
    std::vector<SearchResult> results;
    EXPECT_OK(gist_->Search(txn, BtreeExtension::MakeRange(lo, hi), &results));
    EXPECT_OK(db_->Commit(txn));
    std::set<int64_t> got;
    for (const auto& r : results) got.insert(BtreeExtension::Lo(r.key));
    EXPECT_EQ(got.size(), results.size()) << "duplicate results";
    return got;
  }

  /// Runs the same range search read-committed and as a snapshot; the two
  /// must agree before either is compared to the oracle.
  std::set<int64_t> SearchBoth(int64_t lo, int64_t hi) {
    const std::set<int64_t> got =
        SearchAt(IsolationLevel::kReadCommitted, lo, hi);
    EXPECT_EQ(got, SearchAt(IsolationLevel::kSnapshot, lo, hi))
        << "read-committed and snapshot reads diverge on [" << lo << ","
        << hi << "]";
    return got;
  }

  std::string path_;
  DatabaseOptions opts_;
  GistOptions gopts_;
  std::unique_ptr<Database> db_;
  BtreeExtension ext_;
  Gist* gist_ = nullptr;
};

TEST_P(ModelCheckTest, RandomOpsMatchOracle) {
  Random rng(GetParam());
  std::map<int64_t, Rid> oracle;  // committed state
  int64_t next_key_base = 0;

  for (int step = 0; step < 120; step++) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 45) {
      // Transaction with 1..8 inserts; 20% abort.
      Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
      std::vector<std::pair<int64_t, Rid>> staged;
      const int n = 1 + static_cast<int>(rng.Uniform(8));
      for (int i = 0; i < n; i++) {
        const int64_t k = next_key_base++;
        auto rid =
            db_->InsertRecord(txn, gist_, BtreeExtension::MakeKey(k), "v");
        ASSERT_OK(rid.status());
        staged.emplace_back(k, rid.value());
      }
      if (rng.OneIn(5)) {
        ASSERT_OK(db_->Abort(txn));
      } else {
        ASSERT_OK(db_->Commit(txn));
        for (auto& [k, r] : staged) oracle[k] = r;
      }
    } else if (dice < 65 && !oracle.empty()) {
      // Transaction with 1..4 deletes; 20% abort.
      Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
      std::vector<int64_t> staged;
      const int n = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < n && !oracle.empty(); i++) {
        auto it = oracle.lower_bound(
            static_cast<int64_t>(rng.Uniform(next_key_base + 1)));
        if (it == oracle.end()) it = oracle.begin();
        if (std::find(staged.begin(), staged.end(), it->first) !=
            staged.end()) {
          continue;
        }
        ASSERT_OK(db_->DeleteRecord(txn, gist_,
                                    BtreeExtension::MakeKey(it->first),
                                    it->second));
        staged.push_back(it->first);
      }
      if (rng.OneIn(5)) {
        ASSERT_OK(db_->Abort(txn));
      } else {
        ASSERT_OK(db_->Commit(txn));
        for (int64_t k : staged) oracle.erase(k);
      }
    } else if (dice < 90) {
      // Range search: read-committed vs snapshot vs oracle.
      const int64_t lo = rng.UniformRange(0, next_key_base + 10);
      const int64_t hi = lo + rng.UniformRange(0, 200);
      const std::set<int64_t> got = SearchBoth(lo, hi);
      std::set<int64_t> want;
      for (auto it = oracle.lower_bound(lo);
           it != oracle.end() && it->first <= hi; ++it) {
        want.insert(it->first);
      }
      ASSERT_EQ(got, want) << "range [" << lo << "," << hi << "] at step "
                           << step;
    } else if (dice < 95) {
      // GC sweep.
      Transaction* txn = db_->Begin(IsolationLevel::kReadCommitted);
      uint64_t r = 0, n = 0;
      ASSERT_OK(gist_->GarbageCollect(txn, &r, &n));
      ASSERT_OK(db_->Commit(txn));
    } else {
      // Crash + recover; then verify the full state against the oracle,
      // through both leaf filters.
      const std::set<int64_t> before = SearchBoth(0, next_key_base + 10);
      CrashRecover();
      ASSERT_OK(gist_->CheckInvariants());
      const std::set<int64_t> got = SearchBoth(0, next_key_base + 10);
      std::set<int64_t> want;
      for (auto& [k, rid] : oracle) {
        (void)rid;
        want.insert(k);
      }
      ASSERT_EQ(before, want) << "pre-crash divergence at step " << step;
      ASSERT_EQ(got, want) << "post-recovery divergence at step " << step;
    }
  }
  ASSERT_OK(gist_->CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCheckTest,
                         ::testing::Values(1, 42, 777, 31415, 271828));

}  // namespace
}  // namespace gistcr
