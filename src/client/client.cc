#include "client/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/coding.h"

namespace gistcr {

using net::ErrorCode;
using net::Frame;
using net::Opcode;

Client::Client(ClientOptions opts) : opts_(std::move(opts)) {}

Status Client::Dial() {
  std::chrono::milliseconds backoff = kBackoffBase;
  Status last = Status::IOError("no connect attempt made");
  for (uint32_t i = 0; i < kConnectAttempts; i++) {
    if (i > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kBackoffMax);
    }
    net::Socket s;
    last = net::TcpConnect(opts_.host, opts_.port, &s);
    if (last.ok()) {
      sock_ = std::move(s);
      reader_ = net::FrameReader(net::kMaxResponsePayload);
      return Status::OK();
    }
  }
  return last;
}

Status Client::Connect() { return EnsureConnected(); }

Status Client::EnsureConnected() {
  if (sock_.valid()) return Status::OK();
  return Dial();
}

void Client::OnTransportError() {
  sock_.Close();
  reader_ = net::FrameReader(net::kMaxResponsePayload);
}

Status Client::SendFrame(Opcode op, uint8_t flags, uint64_t request_id,
                         Slice payload) {
  Frame f;
  f.opcode = op;
  f.flags = flags;
  f.request_id = request_id;
  f.payload.assign(payload.data(), payload.size());
  std::string wire;
  net::EncodeFrame(f, &wire);
  return net::WriteFully(sock_.fd(), wire.data(), wire.size());
}

Status Client::ReadFrame(Frame* out) {
  char buf[64 * 1024];
  while (true) {
    switch (reader_.Next(out)) {
      case net::FrameReader::Result::kFrame:
        return Status::OK();
      case net::FrameReader::Result::kNeedMore:
        break;
      default:
        return Status::Corruption("malformed response frame");
    }
    size_t n = 0;
    GISTCR_RETURN_IF_ERROR(net::ReadSome(sock_.fd(), buf, sizeof(buf), &n));
    if (n == 0) return Status::IOError("connection closed by server");
    reader_.Feed(buf, n);
  }
}

Status Client::StatusFromErrorFrame(const Frame& f) {
  ErrorCode code;
  bool txn_aborted;
  std::string msg;
  if (!net::DecodeErrorPayload(f.payload, &code, &txn_aborted, &msg)) {
    return Status::Corruption("undecodable error frame");
  }
  if (txn_aborted) txn_open_ = false;
  return net::StatusFromError(code, msg);
}

namespace {

bool DecodeBatchEntries(const Frame& f, bool with_records,
                        std::vector<RemoteResult>* results) {
  Decoder dec(f.payload);
  uint32_t count;
  if (!dec.GetFixed32(&count)) return false;
  for (uint32_t i = 0; i < count; i++) {
    RemoteResult r;
    if (!dec.GetLengthPrefixed(&r.key)) return false;
    if (!dec.GetFixed64(&r.rid)) return false;
    if (with_records && !dec.GetLengthPrefixed(&r.record)) return false;
    results->push_back(std::move(r));
  }
  return true;
}

}  // namespace

Status Client::ReadReply(uint64_t request_id, Frame* terminal,
                         std::vector<RemoteResult>* results,
                         bool with_records) {
  while (true) {
    Frame f;
    GISTCR_RETURN_IF_ERROR(ReadFrame(&f));
    if (f.request_id != request_id) {
      return Status::Corruption("response for unexpected request id");
    }
    if (f.opcode == Opcode::kSearchBatch) {
      if (results == nullptr ||
          !DecodeBatchEntries(f, with_records, results)) {
        return Status::Corruption("undecodable search batch");
      }
      continue;
    }
    *terminal = std::move(f);
    return Status::OK();
  }
}

Status Client::Call(Opcode op, uint8_t flags, Slice payload, Frame* terminal,
                    std::vector<RemoteResult>* results, bool with_records) {
  for (int attempt = 0;; attempt++) {
    GISTCR_RETURN_IF_ERROR(EnsureConnected());
    const uint64_t id = next_request_id_++;
    Status st = SendFrame(op, flags, id, payload);
    if (st.ok()) {
      if (results != nullptr) results->clear();
      st = ReadReply(id, terminal, results, with_records);
      if (st.ok()) return st;
    }
    // Transport failure: the connection (and any open transaction with
    // it) is gone. A lost transaction must surface — the server rolled it
    // back — so only transaction-less calls retry transparently.
    OnTransportError();
    if (txn_open_) {
      txn_open_ = false;
      return Status::IOError(
          "connection lost; open transaction aborted by server (" +
          st.ToString() + ")");
    }
    if (!opts_.auto_reconnect || attempt >= 1) return st;
  }
}

Status Client::Ping() {
  Frame reply;
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kPing, 0, Slice(), &reply, nullptr, false));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  if (reply.opcode != Opcode::kPong) return Status::Corruption("want pong");
  return Status::OK();
}

StatusOr<TxnId> Client::Begin(IsolationLevel iso) {
  if (txn_open_) {
    return Status::InvalidArgument("transaction already open");
  }
  std::string payload;
  PutFixed16(&payload, iso == IsolationLevel::kReadCommitted ? 0
                       : iso == IsolationLevel::kSnapshot    ? 2
                                                             : 1);
  Frame reply;
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kBegin, 0, payload, &reply, nullptr, false));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  Decoder dec(reply.payload);
  uint64_t txn_id;
  if (reply.opcode != Opcode::kOk || !dec.GetFixed64(&txn_id)) {
    return Status::Corruption("bad begin reply");
  }
  txn_open_ = true;
  return static_cast<TxnId>(txn_id);
}

Status Client::Commit() {
  Frame reply;
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kCommit, 0, Slice(), &reply, nullptr, false));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  txn_open_ = false;
  return Status::OK();
}

Status Client::Abort() {
  Frame reply;
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kAbort, 0, Slice(), &reply, nullptr, false));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  txn_open_ = false;
  return Status::OK();
}

namespace {

void EncodeInsertPayload(uint32_t index_id, Slice key, Slice record,
                         bool unique, std::string* out) {
  PutFixed32(out, index_id);
  PutLengthPrefixed(out, key);
  PutLengthPrefixed(out, record);
  PutFixed16(out, unique ? 1 : 0);
}

void EncodeDeletePayload(uint32_t index_id, Slice key, uint64_t rid,
                         std::string* out) {
  PutFixed32(out, index_id);
  PutLengthPrefixed(out, key);
  PutFixed64(out, rid);
}

void EncodeSearchPayload(uint32_t index_id, Slice query, uint32_t batch_size,
                         std::string* out) {
  PutFixed32(out, index_id);
  PutLengthPrefixed(out, query);
  PutFixed32(out, batch_size);
}

}  // namespace

StatusOr<uint64_t> Client::Insert(uint32_t index_id, Slice key, Slice record,
                                  bool unique) {
  std::string payload;
  EncodeInsertPayload(index_id, key, record, unique, &payload);
  Frame reply;
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kInsert, 0, payload, &reply, nullptr, false));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  Decoder dec(reply.payload);
  uint64_t rid;
  if (reply.opcode != Opcode::kOk || !dec.GetFixed64(&rid)) {
    return Status::Corruption("bad insert reply");
  }
  return rid;
}

Status Client::Delete(uint32_t index_id, Slice key, uint64_t packed_rid) {
  std::string payload;
  EncodeDeletePayload(index_id, key, packed_rid, &payload);
  Frame reply;
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kDelete, 0, payload, &reply, nullptr, false));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  return Status::OK();
}

StatusOr<std::vector<RemoteResult>> Client::Search(uint32_t index_id,
                                                   Slice query,
                                                   bool with_records,
                                                   uint32_t batch_size) {
  std::string payload;
  EncodeSearchPayload(index_id, query, batch_size, &payload);
  std::vector<RemoteResult> results;
  Frame reply;
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kSearch, with_records ? net::kFlagWithRecords : 0,
           payload, &reply, &results, with_records));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  if (reply.opcode != Opcode::kSearchDone) {
    return Status::Corruption("search stream ended without done frame");
  }
  Decoder dec(reply.payload);
  uint64_t total;
  if (!dec.GetFixed64(&total) || total != results.size()) {
    return Status::Corruption("search result count mismatch");
  }
  return results;
}

StatusOr<std::string> Client::Stats(bool prometheus) {
  Frame reply;
  std::string payload;
  if (prometheus) payload.push_back('\x01');
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kStats, 0, payload, &reply, nullptr, false));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  if (reply.opcode != Opcode::kStatsReply) {
    return Status::Corruption("bad stats reply");
  }
  return reply.payload;
}

StatusOr<std::string> Client::Inspect(net::InspectKind kind) {
  Frame reply;
  std::string payload;
  payload.push_back(static_cast<char>(kind));
  GISTCR_RETURN_IF_ERROR(
      Call(Opcode::kInspect, 0, payload, &reply, nullptr, false));
  if (reply.opcode == Opcode::kError) return StatusFromErrorFrame(reply);
  if (reply.opcode != Opcode::kInspectReply) {
    return Status::Corruption("bad inspect reply");
  }
  return reply.payload;
}

Status Client::ExecuteBatch(const std::vector<BatchOp>& ops,
                            std::vector<BatchResult>* results) {
  results->clear();
  results->resize(ops.size());
  if (ops.empty()) return Status::OK();
  GISTCR_RETURN_IF_ERROR(EnsureConnected());

  // Phase 1: pipeline every request in one write.
  std::string wire;
  std::vector<uint64_t> ids(ops.size());
  for (size_t i = 0; i < ops.size(); i++) {
    const BatchOp& op = ops[i];
    Frame f;
    f.request_id = ids[i] = next_request_id_++;
    switch (op.kind) {
      case BatchOp::Kind::kInsert:
        f.opcode = Opcode::kInsert;
        EncodeInsertPayload(op.index_id, op.key, op.record, op.unique,
                            &f.payload);
        break;
      case BatchOp::Kind::kDelete:
        f.opcode = Opcode::kDelete;
        EncodeDeletePayload(op.index_id, op.key, op.rid, &f.payload);
        break;
      case BatchOp::Kind::kSearch:
        f.opcode = Opcode::kSearch;
        f.flags = op.with_records ? net::kFlagWithRecords : 0;
        EncodeSearchPayload(op.index_id, op.key, op.batch_size, &f.payload);
        break;
      case BatchOp::Kind::kPing:
        f.opcode = Opcode::kPing;
        break;
    }
    net::EncodeFrame(f, &wire);
  }
  Status st = net::WriteFully(sock_.fd(), wire.data(), wire.size());
  if (!st.ok()) {
    // No transparent retry for batches: some requests may already have
    // executed server-side and replaying them would double-apply.
    OnTransportError();
    if (txn_open_) txn_open_ = false;
    return st;
  }

  // Phase 2: collect replies, strictly in request order (the server
  // executes one session's requests sequentially).
  for (size_t i = 0; i < ops.size(); i++) {
    BatchResult& r = (*results)[i];
    Frame reply;
    st = ReadReply(ids[i], &reply, &r.results,
                   ops[i].kind == BatchOp::Kind::kSearch &&
                       ops[i].with_records);
    if (!st.ok()) {
      OnTransportError();
      if (txn_open_) txn_open_ = false;
      return st;
    }
    if (reply.opcode == Opcode::kError) {
      r.status = StatusFromErrorFrame(reply);
      continue;
    }
    if (ops[i].kind == BatchOp::Kind::kInsert) {
      Decoder dec(reply.payload);
      if (!dec.GetFixed64(&r.rid)) {
        r.status = Status::Corruption("bad insert reply");
      }
    }
  }
  return Status::OK();
}

}  // namespace gistcr
