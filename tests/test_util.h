#ifndef GISTCR_TESTS_TEST_UTIL_H_
#define GISTCR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "db/database.h"

namespace gistcr {

/// Unique temp path per test (files cleaned up on TearDown).
inline std::string TestPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string base = "/tmp/gistcr_test_";
  if (info != nullptr) {
    base += info->test_suite_name();
    base += "_";
    base += info->name();
  }
  for (char& c : base) {
    if (c == '/') c = '_';
  }
  return base + "_" + name;
}

inline void RemoveDbFiles(const std::string& path) {
  std::remove((path + ".db").c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".ckpt").c_str());
  std::remove((path + ".flight").c_str());
}

/// The durable log's verdict on \p txn: true when the log of the database
/// at \p path holds its Commit record. The scan starts at the master
/// checkpoint when there is one, since a checkpoint may reclaim the log
/// below it, so ask only about a transaction that began after the last
/// checkpoint. Call with no Database open on the files (after
/// SimulateCrash and the Database's destruction, say).
inline bool LogHoldsCommit(const std::string& path, TxnId txn) {
  Lsn from = kInvalidLsn;
  if (FILE* f = std::fopen((path + ".ckpt").c_str(), "r")) {
    unsigned long long master = 0;
    if (std::fscanf(f, "%llu", &master) == 1) from = master;
    std::fclose(f);
  }
  LogManager log;
  bool committed = false;
  Status st = log.Open(path + ".wal");
  if (st.ok()) {
    st = log.Scan(from, kInvalidLsn, [&](const LogRecord& rec) {
      committed |= rec.type == LogRecordType::kCommit && rec.txn_id == txn;
      return true;
    });
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  log.Close();
  return committed;
}

#define ASSERT_OK(expr)                                 \
  do {                                                  \
    ::gistcr::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    ::gistcr::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

}  // namespace gistcr

#endif  // GISTCR_TESTS_TEST_UTIL_H_
