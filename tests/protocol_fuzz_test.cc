#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/btree_extension.h"
#include "client/client.h"
#include "db/database.h"
#include "gist/node.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "util/coding.h"
#include "util/random.h"

namespace gistcr {
namespace {

/// Satellite: hostile bytes on the wire. Whatever arrives — garbage,
/// truncated frames, oversized lengths, bad opcodes, bogus payloads — the
/// server must answer with a typed error or close the connection cleanly,
/// never crash (these tests run under ASan in CI) and never leak a
/// transaction.
class ProtocolFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("fuzz");
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
    // The server must still shut down gracefully after all the abuse.
    if (server_) ASSERT_OK(server_->Shutdown());
    server_.reset();
    EXPECT_TRUE(db_->txns()->ActiveTxns().empty())
        << "fuzzing leaked a transaction";
    db_.reset();
    RemoveDbFiles(path_);
  }

  /// Non-blocking raw socket so the drain loops below cannot hang.
  net::Socket RawConnect() {
    net::Socket s;
    EXPECT_OK(net::TcpConnect("127.0.0.1", server_->port(), &s));
    if (s.valid()) EXPECT_OK(net::SetNonBlocking(s.fd(), true));
    return s;
  }

  /// Sends raw bytes, then reads until EOF or a short idle timeout. The
  /// assertion is implicit: the server side must survive (checked by the
  /// sanity probe and TearDown).
  void SendRaw(const std::string& bytes) {
    net::Socket s = RawConnect();
    ASSERT_TRUE(s.valid());
    (void)net::WriteFully(s.fd(), bytes.data(), bytes.size());
    char buf[4096];
    bool got_any = false;
    for (int i = 0; i < 20; i++) {
      size_t n = 0;
      Status st = net::ReadSome(s.fd(), buf, sizeof(buf), &n);
      if (!st.ok()) {
        if (!st.IsBusy()) return;  // reset by peer — a clean outcome
        if (got_any) return;       // reply read; nothing more expected
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      if (n == 0) return;  // orderly EOF
      got_any = true;
    }
  }

  /// A well-formed client must still get service after each attack.
  void SanityProbe() {
    ClientOptions copts;
    copts.port = server_->port();
    Client c(copts);
    ASSERT_OK(c.Ping());
    ASSERT_OK(c.Insert(1, BtreeExtension::MakeKey(1), "alive").status());
  }

  std::string Header(uint32_t len, uint8_t magic, uint8_t version, uint8_t op,
                     uint8_t flags, uint64_t id) {
    std::string out;
    PutFixed32(&out, len);
    out.push_back(static_cast<char>(magic));
    out.push_back(static_cast<char>(version));
    out.push_back(static_cast<char>(op));
    out.push_back(static_cast<char>(flags));
    PutFixed64(&out, id);
    return out;
  }

  std::string path_;
  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  BtreeExtension bt_;
};

TEST_F(ProtocolFuzzTest, PureGarbage) {
  Random rnd(20260806);
  for (int i = 0; i < 20; i++) {
    std::string junk;
    const size_t n = 1 + rnd.Uniform(2000);
    for (size_t j = 0; j < n; j++) {
      junk.push_back(static_cast<char>(rnd.Uniform(256)));
    }
    SendRaw(junk);
  }
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, TruncatedFrameThenEof) {
  // A valid INSERT frame cut off at every possible byte boundary.
  std::string payload;
  PutFixed32(&payload, 1);
  PutLengthPrefixed(&payload, BtreeExtension::MakeKey(9));
  PutLengthPrefixed(&payload, "rec");
  PutFixed16(&payload, 0);
  std::string frame =
      Header(net::kHeaderLen + static_cast<uint32_t>(payload.size()),
             net::kMagic, net::kVersion,
             static_cast<uint8_t>(net::Opcode::kInsert), 0, 7) +
      payload;
  for (size_t cut = 1; cut < frame.size(); cut += 3) {
    SendRaw(frame.substr(0, cut));
  }
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, OversizedLength) {
  // Announces far more than kMaxRequestPayload; server must reject from
  // the header alone without allocating the announced size.
  SendRaw(Header(0xFFFFFFFFu, net::kMagic, net::kVersion,
                 static_cast<uint8_t>(net::Opcode::kInsert), 0, 1));
  SendRaw(Header(net::kHeaderLen + net::kMaxRequestPayload + 1, net::kMagic,
                 net::kVersion, static_cast<uint8_t>(net::Opcode::kPing), 0,
                 2));
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, UndersizedLength) {
  SendRaw(Header(0, net::kMagic, net::kVersion, 0x01, 0, 1));
  SendRaw(Header(net::kHeaderLen - 1, net::kMagic, net::kVersion, 0x01, 0, 1));
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, BadMagicAndVersion) {
  SendRaw(Header(net::kHeaderLen, 0x00, net::kVersion,
                 static_cast<uint8_t>(net::Opcode::kPing), 0, 1));
  SendRaw(Header(net::kHeaderLen, net::kMagic, 200,
                 static_cast<uint8_t>(net::Opcode::kPing), 0, 1));
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, UnknownAndResponseOpcodes) {
  for (uint8_t op : {0x00, 0x0A, 0x40, 0x7F, 0x81, 0x82, 0x83, 0xFF}) {
    SendRaw(Header(net::kHeaderLen, net::kMagic, net::kVersion, op, 0, op));
  }
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, MalformedPayloads) {
  Random rnd(42);
  // Every request opcode with random payload bytes of assorted sizes —
  // decode must fail typed, not crash, and the txn-state machine must not
  // wedge (BEGIN garbage may open a txn; the final EOF aborts it).
  for (uint8_t op = 0x01; op <= 0x09; op++) {
    for (size_t size : {size_t{1}, size_t{3}, size_t{17}, size_t{300}}) {
      std::string payload;
      for (size_t j = 0; j < size; j++) {
        payload.push_back(static_cast<char>(rnd.Uniform(256)));
      }
      SendRaw(Header(net::kHeaderLen + static_cast<uint32_t>(payload.size()),
                     net::kMagic, net::kVersion, op, 0, op) +
              payload);
    }
  }
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, StatsAndInspectDecodeFuzz) {
  // Targeted fuzz of the new admin opcodes (ISSUE 6 satellite): every
  // format/kind byte value plus oversized payloads. Well-formed selectors
  // must produce a reply frame; everything else a typed error — never a
  // crash, never a wedged session.
  for (int v = 0; v < 256; v += 17) {
    std::string one(1, static_cast<char>(v));
    SendRaw(Header(net::kHeaderLen + 1, net::kMagic, net::kVersion,
                   static_cast<uint8_t>(net::Opcode::kStats), 0, 1) +
            one);
    SendRaw(Header(net::kHeaderLen + 1, net::kMagic, net::kVersion,
                   static_cast<uint8_t>(net::Opcode::kInspect), 0, 2) +
            one);
  }
  // Empty inspect payload and multi-byte selectors.
  SendRaw(Header(net::kHeaderLen, net::kMagic, net::kVersion,
                 static_cast<uint8_t>(net::Opcode::kInspect), 0, 3));
  for (size_t size : {size_t{2}, size_t{9}, size_t{200}}) {
    std::string payload(size, '\x01');
    SendRaw(Header(net::kHeaderLen + static_cast<uint32_t>(size), net::kMagic,
                   net::kVersion, static_cast<uint8_t>(net::Opcode::kStats),
                   0, 4) +
            payload);
    SendRaw(Header(net::kHeaderLen + static_cast<uint32_t>(size), net::kMagic,
                   net::kVersion, static_cast<uint8_t>(net::Opcode::kInspect),
                   0, 5) +
            payload);
  }
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, TruncatedLengthPrefixInsidePayload) {
  // INSERT whose inner length-prefixed key claims more bytes than the
  // frame carries — the Decoder must bounds-check, not read past the end.
  std::string payload;
  PutFixed32(&payload, 1);            // index id
  PutFixed32(&payload, 0xFFFFFF00u);  // key length prefix: absurd
  payload.append("abc");
  SendRaw(Header(net::kHeaderLen + static_cast<uint32_t>(payload.size()),
                 net::kMagic, net::kVersion,
                 static_cast<uint8_t>(net::Opcode::kInsert), 0, 3) +
          payload);
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, GarbageAfterOpenTransaction) {
  // Open a real transaction first, then poison the same connection; the
  // fatal framing error must abort that transaction on teardown.
  net::Socket s = RawConnect();
  ASSERT_TRUE(s.valid());

  std::string begin_payload;
  PutFixed16(&begin_payload, 1);  // repeatable read
  std::string begin =
      Header(net::kHeaderLen + 2, net::kMagic, net::kVersion,
             static_cast<uint8_t>(net::Opcode::kBegin), 0, 1) +
      begin_payload;
  ASSERT_OK(net::WriteFully(s.fd(), begin.data(), begin.size()));

  // Wait for the OK so the txn is definitely open server-side.
  net::FrameReader reader(net::kMaxResponsePayload);
  char buf[1024];
  net::Frame reply;
  bool got = false;
  for (int i = 0; i < 200 && !got; i++) {
    size_t n = 0;
    Status st = net::ReadSome(s.fd(), buf, sizeof(buf), &n);
    if (!st.ok()) {
      ASSERT_TRUE(st.IsBusy()) << st.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    ASSERT_GT(n, 0u);
    reader.Feed(buf, n);
    got = (reader.Next(&reply) == net::FrameReader::Result::kFrame);
  }
  ASSERT_TRUE(got);
  ASSERT_EQ(reply.opcode, net::Opcode::kOk);
  ASSERT_FALSE(db_->txns()->ActiveTxns().empty());

  std::string junk(64, '\xEE');
  ASSERT_OK(net::WriteFully(s.fd(), junk.data(), junk.size()));
  s.Close();

  for (int i = 0; i < 500; i++) {
    if (db_->txns()->ActiveTxns().empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(db_->txns()->ActiveTxns().empty())
      << "poisoned connection leaked its transaction";
  SanityProbe();
}

TEST_F(ProtocolFuzzTest, RandomFrameFuzz) {
  Random rnd(7777);
  for (int i = 0; i < 60; i++) {
    // Mostly-valid headers with randomized fields and payloads: the
    // nastiest inputs are the nearly-correct ones.
    const uint8_t magic = rnd.OneIn(4) ? static_cast<uint8_t>(rnd.Uniform(256))
                                       : net::kMagic;
    const uint8_t version = rnd.OneIn(4)
                                ? static_cast<uint8_t>(rnd.Uniform(256))
                                : net::kVersion;
    const uint8_t op = static_cast<uint8_t>(rnd.Uniform(256));
    const size_t payload_len = rnd.Uniform(512);
    std::string payload;
    for (size_t j = 0; j < payload_len; j++) {
      payload.push_back(static_cast<char>(rnd.Uniform(256)));
    }
    uint32_t len = net::kHeaderLen + static_cast<uint32_t>(payload_len);
    if (rnd.OneIn(8)) len = rnd.Uniform(0xFFFFFFFFu);  // lie about length
    SendRaw(Header(len, magic, version, op,
                   static_cast<uint8_t>(rnd.Uniform(256)), i) +
            payload);
  }
  SanityProbe();
  EXPECT_TRUE(db_->txns()->ActiveTxns().empty());
}

TEST_F(ProtocolFuzzTest, UndecodableKeysAndQueries) {
  // Keys and queries reach the extension as raw client bytes. A B-tree
  // key or query is exactly 16 bytes; a request with any other length, or
  // with a key too large for a node, must get an InvalidArgument frame
  // (not abort the server in the extension's decoder), plain and unique,
  // and leave the connection usable. The tree gets internal nodes first,
  // so searches and deletes compare the query on the way down.
  Gist* gist = db_->GetIndex(1).value();
  Rid rid;
  {
    Transaction* txn = db_->Begin();
    for (int64_t k = 0; k < 2000; k++) {
      auto rid_or =
          db_->InsertRecord(txn, gist, BtreeExtension::MakeKey(k), "v");
      ASSERT_OK(rid_or.status());
      rid = rid_or.value();
    }
    ASSERT_OK(db_->Commit(txn));
  }
  auto height_or = gist->Height();
  ASSERT_OK(height_or.status());
  ASSERT_GT(height_or.value(), 1u);

  const std::string bad[] = {"", "abc", std::string(15, 'k'),
                             std::string(17, 'k'),
                             std::string(NodeView::kMaxKeySize + 1, 'k')};
  auto invalid = [](const Status& st) {
    return st.code() == Status::Code::kInvalidArgument;
  };
  ClientOptions copts;
  copts.port = server_->port();
  Client c(copts);
  for (const std::string& bytes : bad) {
    const size_t n = bytes.size();
    for (bool unique : {false, true}) {
      EXPECT_TRUE(invalid(c.Insert(1, bytes, "r", unique).status()))
          << n << "-byte key, unique=" << unique;
    }
    EXPECT_TRUE(invalid(c.Delete(1, bytes, rid.Pack()))) << n << "-byte key";
    EXPECT_TRUE(invalid(c.Search(1, bytes).status())) << n << "-byte query";
  }
  auto ok_or = c.Insert(1, BtreeExtension::MakeKey(5000), "fine");
  ASSERT_OK(ok_or.status());
  auto found_or = c.Search(1, BtreeExtension::MakeKey(5000));
  ASSERT_OK(found_or.status());
  ASSERT_EQ(found_or.value().size(), 1u);
  EXPECT_EQ(found_or.value()[0].rid, ok_or.value());

  // Embedded: the key is rejected before the heap insert, so the
  // transaction logs nothing and a commit keeps no orphan record.
  Transaction* txn = db_->Begin();
  const Lsn before = txn->last_lsn();
  EXPECT_TRUE(invalid(db_->InsertRecord(txn, gist, "abc", "r").status()));
  EXPECT_TRUE(invalid(
      db_->InsertRecord(txn, gist, bad[4], "r", /*unique=*/true).status()));
  EXPECT_EQ(txn->last_lsn(), before);
  ASSERT_OK(db_->Commit(txn));
}

}  // namespace
}  // namespace gistcr
