#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_payloads.h"
#include "wal/log_record.h"

namespace gistcr {
namespace {

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec;
  rec.type = LogRecordType::kAddLeafEntry;
  rec.txn_id = 9;
  rec.prev_lsn = 100;
  rec.undo_next = 50;
  rec.payload = "payload-bytes";
  std::string wire;
  rec.EncodeTo(&wire);
  LogRecord out;
  uint32_t consumed = 0;
  ASSERT_OK(out.DecodeFrom(wire, &consumed));
  EXPECT_EQ(consumed, rec.SerializedSize());
  EXPECT_EQ(out.type, rec.type);
  EXPECT_EQ(out.txn_id, rec.txn_id);
  EXPECT_EQ(out.prev_lsn, rec.prev_lsn);
  EXPECT_EQ(out.undo_next, rec.undo_next);
  EXPECT_EQ(out.payload, rec.payload);
}

TEST(LogRecordTest, CrcCatchesCorruption) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = 1;
  std::string wire;
  rec.EncodeTo(&wire);
  wire[10] ^= 0x01;
  LogRecord out;
  uint32_t consumed;
  EXPECT_TRUE(out.DecodeFrom(wire, &consumed).IsCorruption());
}

TEST(LogRecordTest, ShortBufferIsCorruption) {
  LogRecord out;
  uint32_t consumed;
  EXPECT_TRUE(out.DecodeFrom(Slice("abc"), &consumed).IsCorruption());
}

TEST(LogRecordTest, TypeNamesCoverTable1) {
  EXPECT_STREQ(LogRecordTypeName(LogRecordType::kParentEntryUpdate),
               "Parent-Entry-Update");
  EXPECT_STREQ(LogRecordTypeName(LogRecordType::kSplit), "Split");
  EXPECT_STREQ(LogRecordTypeName(LogRecordType::kGarbageCollection),
               "Garbage-Collection");
  EXPECT_STREQ(LogRecordTypeName(LogRecordType::kGetPage), "Get-Page");
  EXPECT_STREQ(LogRecordTypeName(LogRecordType::kFreePage), "Free-Page");
  EXPECT_STREQ(LogRecordTypeName(LogRecordType::kAddLeafEntry),
               "Add-Leaf-Entry");
  EXPECT_STREQ(LogRecordTypeName(LogRecordType::kMarkLeafEntry),
               "Mark-Leaf-Entry");
}

TEST(LogPayloadTest, SplitPayloadRoundTrip) {
  SplitPayload pl;
  pl.orig_page = 5;
  pl.new_page = 9;
  pl.level = 2;
  pl.old_nsn = 77;
  pl.new_nsn = 99;
  pl.old_rightlink = 6;
  pl.moved.push_back({"key-a", 1, kInvalidTxnId});
  pl.moved.push_back({"key-b", 2, 42});
  pl.orig_bp_before = "before";
  pl.orig_bp_after = "after";
  pl.new_bp = "new";
  std::string blob;
  pl.EncodeTo(&blob);
  SplitPayload out;
  ASSERT_TRUE(out.DecodeFrom(blob));
  EXPECT_EQ(out.orig_page, 5u);
  EXPECT_EQ(out.new_page, 9u);
  EXPECT_EQ(out.level, 2);
  EXPECT_EQ(out.old_nsn, 77u);
  EXPECT_EQ(out.new_nsn, 99u);
  EXPECT_EQ(out.old_rightlink, 6u);
  ASSERT_EQ(out.moved.size(), 2u);
  EXPECT_EQ(out.moved[1].key, "key-b");
  EXPECT_EQ(out.moved[1].del_txn, 42u);
  EXPECT_EQ(out.orig_bp_before, "before");
  EXPECT_EQ(out.new_bp, "new");
}

TEST(LogPayloadTest, CheckpointPayloadRoundTrip) {
  CheckpointPayload pl;
  pl.redo_floor = 100;
  pl.next_txn_id = 8;
  pl.nsn_counter = 1234;
  std::string blob;
  pl.EncodeTo(&blob);
  CheckpointPayload out;
  ASSERT_TRUE(out.DecodeFrom(blob));
  EXPECT_EQ(out.redo_floor, 100u);
  EXPECT_EQ(out.next_txn_id, 8u);
  EXPECT_EQ(out.nsn_counter, 1234u);
  // Checkpoints written while heap pages were chained end in a 4-byte
  // heap tail; they still decode (DESIGN.md section 16.4).
  blob.append(4, '\x09');
  CheckpointPayload older;
  ASSERT_TRUE(older.DecodeFrom(blob));
  EXPECT_EQ(older.redo_floor, 100u);
  EXPECT_EQ(older.nsn_counter, 1234u);
}

TEST(LogPayloadTest, ClrPayloadRoundTrip) {
  ClrPayload pl;
  pl.compensated_type = LogRecordType::kAddLeafEntry;
  pl.override_page = 17;
  pl.original = "original-bytes";
  std::string blob;
  pl.EncodeTo(&blob);
  ClrPayload out;
  ASSERT_TRUE(out.DecodeFrom(blob));
  EXPECT_EQ(out.compensated_type, LogRecordType::kAddLeafEntry);
  EXPECT_EQ(out.override_page, 17u);
  EXPECT_EQ(out.original, "original-bytes");
}

class LogManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("wal") + ".wal";
    std::remove(path_.c_str());
    ASSERT_OK(log_.Open(path_));
  }
  void TearDown() override {
    log_.Close();
    std::remove(path_.c_str());
  }
  std::string path_;
  LogManager log_;
};

TEST_F(LogManagerTest, AppendAssignsMonotonicLsns) {
  LogRecord a, b;
  a.type = b.type = LogRecordType::kBegin;
  ASSERT_OK(log_.Append(&a));
  ASSERT_OK(log_.Append(&b));
  EXPECT_EQ(a.lsn, LogManager::kFirstLsn);
  EXPECT_EQ(b.lsn, a.lsn + a.SerializedSize());
  EXPECT_EQ(log_.last_lsn(), b.lsn);
}

TEST_F(LogManagerTest, ReadRecordFromBufferAndFile) {
  LogRecord a;
  a.type = LogRecordType::kCommit;
  a.txn_id = 4;
  a.payload = "zzz";
  ASSERT_OK(log_.Append(&a));
  LogRecord out;
  ASSERT_OK(log_.ReadRecord(a.lsn, &out));  // from the tail buffer
  EXPECT_EQ(out.payload, "zzz");
  ASSERT_OK(log_.FlushAll());
  LogRecord out2;
  ASSERT_OK(log_.ReadRecord(a.lsn, &out2));  // from the durable file
  EXPECT_EQ(out2.txn_id, 4u);
}

TEST_F(LogManagerTest, FlushAdvancesDurableLsn) {
  LogRecord a;
  a.type = LogRecordType::kBegin;
  ASSERT_OK(log_.Append(&a));
  EXPECT_LT(log_.durable_lsn(), a.lsn);
  ASSERT_OK(log_.Flush(a.lsn));
  EXPECT_GE(log_.durable_lsn(), a.lsn);
}

TEST_F(LogManagerTest, ScanVisitsAllInOrder) {
  std::vector<Lsn> lsns;
  for (int i = 0; i < 10; i++) {
    LogRecord r;
    r.type = LogRecordType::kBegin;
    r.txn_id = static_cast<TxnId>(i + 1);
    ASSERT_OK(log_.Append(&r));
    lsns.push_back(r.lsn);
  }
  std::vector<Lsn> seen;
  ASSERT_OK(log_.Scan(kInvalidLsn, kInvalidLsn, [&](const LogRecord& rec) {
    seen.push_back(rec.lsn);
    return true;
  }));
  EXPECT_EQ(seen, lsns);
}

TEST_F(LogManagerTest, DiscardTailLosesUnflushedRecords) {
  LogRecord a, b;
  a.type = b.type = LogRecordType::kBegin;
  ASSERT_OK(log_.Append(&a));
  ASSERT_OK(log_.Flush(a.lsn));
  ASSERT_OK(log_.Append(&b));
  log_.DiscardTail();  // crash: b was never forced
  int count = 0;
  ASSERT_OK(log_.Scan(kInvalidLsn, kInvalidLsn, [&](const LogRecord&) {
    count++;
    return true;
  }));
  EXPECT_EQ(count, 1);
  // New appends continue from the durable end.
  LogRecord c;
  c.type = LogRecordType::kBegin;
  ASSERT_OK(log_.Append(&c));
  EXPECT_EQ(c.lsn, b.lsn);
}

TEST_F(LogManagerTest, ReopenContinuesLsnSequence) {
  LogRecord a;
  a.type = LogRecordType::kBegin;
  ASSERT_OK(log_.Append(&a));
  ASSERT_OK(log_.FlushAll());
  log_.Close();
  LogManager log2;
  ASSERT_OK(log2.Open(path_));
  LogRecord b;
  b.type = LogRecordType::kCommit;
  ASSERT_OK(log2.Append(&b));
  EXPECT_EQ(b.lsn, a.lsn + a.SerializedSize());
  log2.Close();
}

TEST_F(LogManagerTest, ScanStopsAtTornTail) {
  LogRecord a;
  a.type = LogRecordType::kBegin;
  ASSERT_OK(log_.Append(&a));
  ASSERT_OK(log_.FlushAll());
  log_.Close();
  // Append garbage bytes simulating a torn write.
  FILE* f = fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char junk[13] = "junkjunkjunk";
  fwrite(junk, 1, sizeof(junk), f);
  fclose(f);
  LogManager log2;
  ASSERT_OK(log2.Open(path_));
  int count = 0;
  ASSERT_OK(log2.Scan(kInvalidLsn, kInvalidLsn, [&](const LogRecord&) {
    count++;
    return true;
  }));
  EXPECT_EQ(count, 1);
  log2.Close();
}

TEST_F(LogManagerTest, TotalBytesTracksVolume) {
  EXPECT_EQ(log_.TotalBytes(), 0u);
  LogRecord a;
  a.type = LogRecordType::kBegin;
  a.payload = std::string(100, 'x');
  ASSERT_OK(log_.Append(&a));
  EXPECT_EQ(log_.TotalBytes(), a.SerializedSize());
}

}  // namespace
}  // namespace gistcr
