#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
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

// ---------------------------------------------------------------------
// The sequential reader: Scan reads the durable log in kScanChunk chunks
// and decodes in place; ReadRecord reads one durable record with one
// pread (two for a record longer than kReadPrefix).
// ---------------------------------------------------------------------

/// What a reader must return for one record.
struct Expected {
  Lsn lsn;
  LogRecordType type;
  TxnId txn_id;
  Lsn prev_lsn;
  Lsn undo_next;
  std::string payload;
};

/// Appends a record with a \p size-byte payload whose bytes depend on
/// \p seq, so a record read from the wrong offset cannot match.
Expected AppendSized(LogManager* log, uint64_t seq, size_t size) {
  LogRecord r;
  r.type = seq % 3 == 0 ? LogRecordType::kAddLeafEntry
                        : LogRecordType::kHeapInsert;
  r.txn_id = seq + 1;
  r.prev_lsn = seq * 7;
  r.undo_next = seq * 11;
  r.payload.resize(size);
  for (size_t i = 0; i < size; i++) {
    r.payload[i] = static_cast<char>('a' + (seq + i) % 26);
  }
  EXPECT_OK(log->Append(&r));
  return {r.lsn, r.type, r.txn_id, r.prev_lsn, r.undo_next, r.payload};
}

void ExpectSame(const LogRecord& got, const Expected& want) {
  EXPECT_EQ(got.lsn, want.lsn);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.txn_id, want.txn_id);
  EXPECT_EQ(got.prev_lsn, want.prev_lsn);
  EXPECT_EQ(got.undo_next, want.undo_next);
  EXPECT_TRUE(got.payload == want.payload) << "payload at lsn " << want.lsn;
}

/// Scans from \p from to the log end and checks the records against
/// \p want, element for element.
void ExpectScan(LogManager* log, Lsn from, const std::vector<Expected>& want) {
  size_t i = 0;
  ASSERT_OK(log->Scan(from, kInvalidLsn, [&](const LogRecord& rec) {
    if (i < want.size()) ExpectSame(rec, want[i]);
    i++;
    return true;
  }));
  EXPECT_EQ(i, want.size());
}

/// Size of the file at \p path.
Lsn FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  return static_cast<Lsn>(st.st_size);
}

TEST_F(LogManagerTest, ScanReadsRecordStraddlingChunkBoundary) {
  // 1000-byte records from the log start: the first chunk ends at
  // kFirstLsn + kScanChunk, which no record boundary hits.
  std::vector<Expected> want;
  const Lsn chunk_end = LogManager::kFirstLsn + LogManager::kScanChunk;
  while (want.empty() || want.back().lsn < chunk_end + 3000) {
    want.push_back(AppendSized(&log_, want.size(), 1000));
  }
  ASSERT_OK(log_.FlushAll());
  size_t straddlers = 0;
  for (const Expected& e : want) {
    const Lsn end = e.lsn + LogRecord::kHeaderSize + e.payload.size();
    straddlers += e.lsn < chunk_end && end > chunk_end;
  }
  ASSERT_EQ(straddlers, 1u);
  ExpectScan(&log_, kInvalidLsn, want);
}

TEST_F(LogManagerTest, ScanReadsRecordLargerThanChunk) {
  std::vector<Expected> want;
  want.push_back(AppendSized(&log_, 0, 50));
  want.push_back(AppendSized(&log_, 1, LogManager::kScanChunk + 4096));
  want.push_back(AppendSized(&log_, 2, 50));
  want.push_back(AppendSized(&log_, 3, 2 * LogManager::kScanChunk));
  ASSERT_OK(log_.FlushAll());
  ExpectScan(&log_, kInvalidLsn, want);
  LogRecord rec;
  ASSERT_OK(log_.ReadRecord(want[3].lsn, &rec));
  ExpectSame(rec, want[3]);
}

TEST_F(LogManagerTest, ScanFromMidLog) {
  std::vector<Expected> want;
  for (uint64_t i = 0; i < 4000; i++) {
    want.push_back(AppendSized(&log_, i, 300 + i % 700));
  }
  ASSERT_OK(log_.FlushAll());
  ASSERT_GT(want.back().lsn, 2 * LogManager::kScanChunk);
  for (size_t from : {size_t{1}, size_t{1234}, want.size() - 1}) {
    SCOPED_TRACE(from);
    ExpectScan(&log_, want[from].lsn,
               std::vector<Expected>(want.begin() + from, want.end()));
  }
  // An upper bound inside the second chunk ends the scan at that record.
  const size_t mid = 2500;
  size_t seen = 0;
  ASSERT_OK(log_.Scan(want[100].lsn, want[mid].lsn, [&](const LogRecord& r) {
    ExpectSame(r, want[100 + seen]);
    seen++;
    return true;
  }));
  EXPECT_EQ(seen, mid - 100 + 1);
}

TEST_F(LogManagerTest, ScanStopsAtTornRecordInLastChunk) {
  std::vector<Expected> want;
  while (want.empty() || want.back().lsn < 2 * LogManager::kScanChunk) {
    want.push_back(AppendSized(&log_, want.size(), 900));
  }
  ASSERT_OK(log_.FlushAll());
  log_.Close();
  // The first 60 bytes of one more record: its length reaches past the
  // file's end.
  LogRecord torn;
  torn.type = LogRecordType::kHeapInsert;
  torn.payload = std::string(500, 'x');
  std::string bytes;
  torn.EncodeTo(&bytes);
  FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, 60, f), 60u);
  std::fclose(f);
  LogManager log2;
  ASSERT_OK(log2.Open(path_));
  ExpectScan(&log2, kInvalidLsn, want);
  ExpectScan(&log2, want[want.size() - 2].lsn,
             {want[want.size() - 2], want.back()});
  log2.Close();
  // A flipped byte in the last whole record's body fails its CRC: the
  // scan ends below it.
  FILE* g = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(std::fseek(g, static_cast<long>(want.back().lsn) + 100, SEEK_SET),
            0);
  ASSERT_EQ(std::fputc('#', g), '#');
  std::fclose(g);
  LogManager log3;
  ASSERT_OK(log3.Open(path_));
  want.pop_back();
  ExpectScan(&log3, kInvalidLsn, want);
  log3.Close();
}

TEST_F(LogManagerTest, CutTailDropsTornBytes) {
  std::vector<Expected> want;
  want.push_back(AppendSized(&log_, 0, 100));
  want.push_back(AppendSized(&log_, 1, 100));
  ASSERT_OK(log_.FlushAll());
  log_.Close();
  const Lsn whole_end = FileSize(path_);
  FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char junk[40] = "torn record bytes torn record bytes";
  ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
  std::fclose(f);
  {
    LogManager log2;
    ASSERT_OK(log2.Open(path_));
    EXPECT_EQ(log2.next_lsn(), whole_end + sizeof(junk));
    ASSERT_OK(log2.CutTail(whole_end));
    EXPECT_EQ(FileSize(path_), whole_end);
    EXPECT_EQ(log2.next_lsn(), whole_end);
    EXPECT_EQ(log2.durable_lsn(), whole_end - 1);
    EXPECT_EQ(log2.last_lsn(), whole_end - 1);
    // A new record lands right behind the last whole one and is forced,
    // not taken for durable already.
    want.push_back(AppendSized(&log2, 2, 100));
    EXPECT_EQ(want.back().lsn, whole_end);
    EXPECT_LT(log2.durable_lsn(), want.back().lsn);
    ASSERT_OK(log2.Flush(want.back().lsn));
    log2.Close();
  }
  LogManager log3;
  ASSERT_OK(log3.Open(path_));
  ExpectScan(&log3, kInvalidLsn, want);
  log3.Close();
}

TEST_F(LogManagerTest, ScanWhileAppendingAndFlushing) {
  // One appender, so the record at last_lsn() has txn id k exactly when k
  // records precede it in the log. Batches land while each scan runs, so
  // records move from the tail to the file under it.
  log_.SetSyncOnFlush(false);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < 40000 && !stop.load(); i++) {
      const Expected e = AppendSized(&log_, i, 100 + i % 400);
      if (i % 32 == 31) EXPECT_OK(log_.Flush(e.lsn));
    }
  });
  for (int round = 0; round < 30; round++) {
    const Lsn upto = log_.last_lsn();
    if (upto == kInvalidLsn) {
      std::this_thread::yield();
      continue;
    }
    TxnId next = 1;
    Lsn last_seen = kInvalidLsn;
    ASSERT_OK(log_.Scan(kInvalidLsn, upto, [&](const LogRecord& rec) {
      EXPECT_EQ(rec.txn_id, next);
      next++;
      last_seen = rec.lsn;
      return true;
    }));
    EXPECT_EQ(last_seen, upto);
  }
  stop.store(true);
  writer.join();
}

TEST_F(LogManagerTest, ScanMatchesChainedReadRecord) {
  // Random sizes on both sides of kReadPrefix, a few past kScanChunk; the
  // last records stay in the in-memory tail.
  std::mt19937_64 rng(23);
  std::vector<Expected> want;
  for (uint64_t i = 0; i < 4000; i++) {
    const uint64_t pick = rng() % 100;
    size_t size = rng() % 2000;
    if (pick == 0) size = LogManager::kScanChunk + rng() % 5000;
    if (pick < 5) size = rng() % 20000;
    if (i == 3900) ASSERT_OK(log_.FlushAll());
    want.push_back(AppendSized(&log_, i, size));
  }
  std::vector<Expected> scanned;
  ASSERT_OK(log_.Scan(kInvalidLsn, kInvalidLsn, [&](const LogRecord& rec) {
    scanned.push_back({rec.lsn, rec.type, rec.txn_id, rec.prev_lsn,
                       rec.undo_next, rec.payload});
    return true;
  }));
  ASSERT_EQ(scanned.size(), want.size());
  Lsn lsn = LogManager::kFirstLsn;
  LogRecord rec;  // reused, as restart's readers reuse theirs
  for (size_t i = 0; i < want.size(); i++) {
    ASSERT_OK(log_.ReadRecord(lsn, &rec));
    ExpectSame(rec, scanned[i]);
    ExpectSame(rec, want[i]);
    lsn += rec.SerializedSize();
  }
  EXPECT_EQ(lsn, log_.next_lsn());
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
