#include "server/session.h"

#include "db/database.h"
#include "gist/cursor.h"
#include "obs/trace.h"

namespace gistcr {

namespace {

using net::ErrorCode;
using net::Opcode;

/// A request that waited longer than this in the session queue is answered
/// with a typed timeout error instead of executed (admission control under
/// overload).
constexpr uint64_t kRequestTimeoutNs = 5'000'000'000;

/// Static span names for the tracer (it stores the pointer, not a copy).
const char* TraceNameFor(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "server.ping";
    case Opcode::kBegin: return "server.begin";
    case Opcode::kCommit: return "server.commit";
    case Opcode::kAbort: return "server.abort";
    case Opcode::kInsert: return "server.insert";
    case Opcode::kDelete: return "server.delete";
    case Opcode::kSearch: return "server.search";
    case Opcode::kStats: return "server.stats";
    case Opcode::kInspect: return "server.inspect";
    default: return "server.request";
  }
}

/// Caps one SearchBatch frame: flush when the encoded payload crosses this
/// even if the count limit has not been reached, keeping every response
/// frame well under net::kMaxResponsePayload.
constexpr size_t kBatchByteLimit = 256 * 1024;
constexpr uint32_t kDefaultBatchSize = 128;

}  // namespace

void ServerMetrics::Attach(obs::MetricsRegistry* reg) {
  reg = obs::MetricsRegistry::OrFallback(reg);
  requests = reg->GetCounter("server.requests");
  protocol_errors = reg->GetCounter("server.errors.protocol");
  request_errors = reg->GetCounter("server.errors.request");
  timeouts = reg->GetCounter("server.timeouts");
  disconnect_aborts = reg->GetCounter("server.disconnect_aborts");
  accepts = reg->GetCounter("server.accepts");
  backpressure_pauses = reg->GetCounter("server.backpressure_pauses");
  bytes_in = reg->GetCounter("server.bytes_in");
  bytes_out = reg->GetCounter("server.bytes_out");
  active_connections = reg->GetGauge("server.active_connections");
  queue_depth = reg->GetGauge("server.queue_depth");
  request_latency = reg->GetHistogram("server.request_latency");
  for (uint8_t op = static_cast<uint8_t>(Opcode::kPing);
       op <= static_cast<uint8_t>(Opcode::kInspect); op++) {
    const char* name = net::OpcodeName(static_cast<Opcode>(op));
    op_count[op] = reg->GetCounter(std::string("server.op.") + name);
    op_latency[op] = reg->GetHistogram(std::string("server.latency.") + name);
  }
  request_total = reg->GetHistogram("rpc.request_total");
  for (size_t s = 0; s < obs::kNumStages; s++) {
    stage[s] = reg->GetHistogram(std::string("rpc.stage.") +
                                 obs::StageName(static_cast<obs::Stage>(s)));
  }
}

Status Session::SendFrame(Opcode op, uint64_t request_id, Slice payload,
                          uint8_t flags) {
  net::Frame f;
  f.opcode = op;
  f.flags = flags;
  f.request_id = request_id;
  f.payload.assign(payload.data(), payload.size());
  std::string wire;
  net::EncodeFrame(f, &wire);
  metrics_->bytes_out->Add(wire.size());
  return net::WriteFully(sock_.fd(), wire.data(), wire.size());
}

Status Session::SendError(uint64_t request_id, ErrorCode code, Slice msg) {
  metrics_->request_errors->Add(1);
  std::string payload;
  net::EncodeErrorPayload(code, txn_aborted_flag_, msg, &payload);
  txn_aborted_flag_ = false;
  return SendFrame(Opcode::kError, request_id, payload);
}

void Session::AbortOpenTxn(Database* db, const ServerMetrics& metrics) {
  if (txn_ == nullptr) return;
  if (db->txns()->IsActive(txn_->id())) {
    (void)db->Abort(txn_);
    metrics.disconnect_aborts->Add(1);
  }
  txn_ = nullptr;
}

template <typename Fn>
Status Session::InTxn(bool draining, Database* db, Fn body) {
  if (txn_ != nullptr) {
    if (obs::OpContext* op = obs::CurrentOp()) op->txn_id = txn_->id();
    Status st = body(txn_);
    if (st.IsDeadlock()) {
      // The operation lost deadlock detection: the transaction must roll
      // back (it is this session's, so tell the client it is gone).
      if (db->txns()->IsActive(txn_->id())) (void)db->Abort(txn_);
      txn_ = nullptr;
      txn_aborted_flag_ = true;
    }
    return st;
  }
  // Auto-commit: a one-shot transaction wrapping this single request.
  if (draining) {
    return Status::Aborted("server shutting down");
  }
  Transaction* txn = db->Begin(IsolationLevel::kRepeatableRead);
  if (obs::OpContext* op = obs::CurrentOp()) op->txn_id = txn->id();
  Status st = body(txn);
  if (st.ok()) {
    st = db->Commit(txn);
    if (st.ok()) return st;
  }
  if (db->txns()->IsActive(txn->id())) (void)db->Abort(txn);
  return st;
}

Status Session::HandleBegin(const net::Frame& req, bool draining, Database* db) {
  if (txn_ != nullptr) {
    return SendError(req.request_id, ErrorCode::kTransactionOpen,
                     "transaction already open on this session");
  }
  if (draining) {
    return SendError(req.request_id, ErrorCode::kShuttingDown,
                     "server draining; no new transactions");
  }
  Decoder dec(req.payload);
  uint16_t iso = 1;
  if (!req.payload.empty() && !dec.GetFixed16(&iso)) {
    return SendError(req.request_id, ErrorCode::kMalformedPayload,
                     "begin payload");
  }
  // iso: 0 = read committed, 1 = repeatable read (default), 2 = snapshot
  // (read-only; repeatable read while instant restart undoes losers).
  txn_ = db->Begin(iso == 0   ? IsolationLevel::kReadCommitted
                   : iso == 2 ? IsolationLevel::kSnapshot
                              : IsolationLevel::kRepeatableRead);
  if (obs::OpContext* op = obs::CurrentOp()) op->txn_id = txn_->id();
  std::string out;
  PutFixed64(&out, txn_->id());
  return SendFrame(Opcode::kOk, req.request_id, out);
}

Status Session::HandleCommit(const net::Frame& req, Database* db) {
  if (txn_ == nullptr) {
    return SendError(req.request_id, ErrorCode::kNoTransaction,
                     "commit without a transaction");
  }
  Transaction* txn = txn_;
  txn_ = nullptr;
  if (obs::OpContext* op = obs::CurrentOp()) op->txn_id = txn->id();
  Status st = db->Commit(txn);
  if (!st.ok()) {
    // A failed commit must not leak a lock-holding zombie: roll it back
    // and tell the client the transaction is gone either way.
    if (db->txns()->IsActive(txn->id())) (void)db->Abort(txn);
    txn_aborted_flag_ = true;
    return SendError(req.request_id, net::ErrorCodeFromStatus(st),
                     st.ToString());
  }
  return SendFrame(Opcode::kOk, req.request_id, Slice());
}

Status Session::HandleAbort(const net::Frame& req, Database* db) {
  if (txn_ == nullptr) {
    return SendError(req.request_id, ErrorCode::kNoTransaction,
                     "abort without a transaction");
  }
  Transaction* txn = txn_;
  txn_ = nullptr;
  if (obs::OpContext* op = obs::CurrentOp()) op->txn_id = txn->id();
  Status st = db->Abort(txn);
  if (!st.ok()) {
    return SendError(req.request_id, net::ErrorCodeFromStatus(st),
                     st.ToString());
  }
  return SendFrame(Opcode::kOk, req.request_id, Slice());
}

Status Session::HandleInsert(const net::Frame& req, bool draining, Database* db) {
  Decoder dec(req.payload);
  uint32_t index_id;
  std::string key, record;
  uint16_t unique = 0;
  if (!dec.GetFixed32(&index_id) || !dec.GetLengthPrefixed(&key) ||
      !dec.GetLengthPrefixed(&record) || !dec.GetFixed16(&unique)) {
    return SendError(req.request_id, ErrorCode::kMalformedPayload,
                     "insert payload");
  }
  auto gist_or = db->GetIndex(index_id);
  if (!gist_or.ok()) {
    return SendError(req.request_id, ErrorCode::kUnknownIndex,
                     gist_or.status().ToString());
  }
  Rid rid;
  Status st = InTxn(draining, db, [&](Transaction* txn) -> Status {
    auto rid_or =
        db->InsertRecord(txn, gist_or.value(), key, record, unique != 0);
    if (!rid_or.ok()) return rid_or.status();
    rid = rid_or.value();
    return Status::OK();
  });
  if (!st.ok()) {
    return SendError(req.request_id, net::ErrorCodeFromStatus(st),
                     st.ToString());
  }
  std::string out;
  PutFixed64(&out, rid.Pack());
  return SendFrame(Opcode::kOk, req.request_id, out);
}

Status Session::HandleDelete(const net::Frame& req, bool draining, Database* db) {
  Decoder dec(req.payload);
  uint32_t index_id;
  std::string key;
  uint64_t packed_rid;
  if (!dec.GetFixed32(&index_id) || !dec.GetLengthPrefixed(&key) ||
      !dec.GetFixed64(&packed_rid)) {
    return SendError(req.request_id, ErrorCode::kMalformedPayload,
                     "delete payload");
  }
  auto gist_or = db->GetIndex(index_id);
  if (!gist_or.ok()) {
    return SendError(req.request_id, ErrorCode::kUnknownIndex,
                     gist_or.status().ToString());
  }
  Status st = InTxn(draining, db, [&](Transaction* txn) -> Status {
    return db->DeleteRecord(txn, gist_or.value(), key,
                            Rid::Unpack(packed_rid));
  });
  if (!st.ok()) {
    return SendError(req.request_id, net::ErrorCodeFromStatus(st),
                     st.ToString());
  }
  return SendFrame(Opcode::kOk, req.request_id, Slice());
}

Status Session::HandleSearch(const net::Frame& req, bool draining, Database* db) {
  Decoder dec(req.payload);
  uint32_t index_id, batch_size;
  std::string query;
  if (!dec.GetFixed32(&index_id) || !dec.GetLengthPrefixed(&query) ||
      !dec.GetFixed32(&batch_size)) {
    return SendError(req.request_id, ErrorCode::kMalformedPayload,
                     "search payload");
  }
  if (batch_size == 0) batch_size = kDefaultBatchSize;
  auto gist_or = db->GetIndex(index_id);
  if (!gist_or.ok()) {
    return SendError(req.request_id, ErrorCode::kUnknownIndex,
                     gist_or.status().ToString());
  }
  const bool with_records = (req.flags & net::kFlagWithRecords) != 0;

  uint64_t total = 0;
  std::string batch;       // encoded entries, count prefixed on flush
  uint32_t batch_count = 0;
  Status send_st;          // first transport failure aborts the stream
  auto flush = [&]() -> Status {
    std::string payload;
    PutFixed32(&payload, batch_count);
    payload.append(batch);
    batch.clear();
    batch_count = 0;
    return SendFrame(Opcode::kSearchBatch, req.request_id, payload);
  };

  Status st = InTxn(draining, db, [&](Transaction* txn) -> Status {
    // Stream through a cursor: results go out in batches as the traversal
    // produces them instead of materializing the full set.
    GistCursor cursor(gist_or.value(), txn, query);
    GISTCR_RETURN_IF_ERROR(cursor.Open());
    while (true) {
      SearchResult r;
      bool done = false;
      GISTCR_RETURN_IF_ERROR(cursor.Next(&r, &done));
      if (done) break;
      std::string record;
      if (with_records) {
        // The search's record lock ended with the check at read
        // committed: the fetch locks the rid again, and skips a row whose
        // delete committed in between.
        auto rec_or = db->ReadRecord(r.rid, txn);
        if (rec_or.status().IsNotFound() &&
            txn->isolation() == IsolationLevel::kReadCommitted) {
          continue;
        }
        GISTCR_RETURN_IF_ERROR(rec_or.status());
        record = rec_or.MoveValue();
      }
      PutLengthPrefixed(&batch, r.key);
      PutFixed64(&batch, r.rid.Pack());
      if (with_records) PutLengthPrefixed(&batch, record);
      batch_count++;
      total++;
      if (batch_count >= batch_size || batch.size() >= kBatchByteLimit) {
        send_st = flush();
        if (!send_st.ok()) return send_st;
      }
    }
    return Status::OK();
  });
  if (!st.ok()) {
    if (!send_st.ok()) return send_st;  // transport is gone; no error frame
    return SendError(req.request_id, net::ErrorCodeFromStatus(st),
                     st.ToString());
  }
  if (batch_count > 0) {
    GISTCR_RETURN_IF_ERROR(flush());
  }
  std::string done_payload;
  PutFixed64(&done_payload, total);
  return SendFrame(Opcode::kSearchDone, req.request_id, done_payload);
}

Status Session::HandleStats(const net::Frame& req, Database* db) {
  // Optional one-byte format selector: 0 (or absent) = JSON, 1 = Prometheus
  // text exposition.
  uint8_t format = 0;
  if (!req.payload.empty()) {
    if (req.payload.size() != 1) {
      return SendError(req.request_id, ErrorCode::kMalformedPayload,
                       "stats payload");
    }
    format = static_cast<uint8_t>(req.payload[0]);
    if (format > 1) {
      return SendError(req.request_id, ErrorCode::kMalformedPayload,
                       "unknown stats format");
    }
  }
  const std::string dump = format == 1 ? db->DumpMetricsPrometheus()
                                       : db->DumpMetrics(/*as_json=*/true);
  return SendFrame(Opcode::kStatsReply, req.request_id, dump);
}

Status Session::HandleInspect(const net::Frame& req, Database* db) {
  if (req.payload.size() != 1) {
    return SendError(req.request_id, ErrorCode::kMalformedPayload,
                     "inspect payload");
  }
  const char* what = nullptr;
  switch (static_cast<net::InspectKind>(req.payload[0])) {
    case net::InspectKind::kSlowOps: what = "slow"; break;
    case net::InspectKind::kWaitGraph: what = "waitgraph"; break;
    case net::InspectKind::kBufferPool: what = "bp"; break;
    case net::InspectKind::kWal: what = "wal"; break;
    case net::InspectKind::kRecovery: what = "recovery"; break;
  }
  if (what == nullptr) {
    return SendError(req.request_id, ErrorCode::kMalformedPayload,
                     "unknown inspect kind");
  }
  auto json_or = db->InspectJson(what);
  if (!json_or.ok()) {
    return SendError(req.request_id,
                     net::ErrorCodeFromStatus(json_or.status()),
                     json_or.status().ToString());
  }
  return SendFrame(Opcode::kInspectReply, req.request_id, json_or.value());
}

bool Session::Process(const ServerRequest& req, Database* db, bool draining,
                      const ServerMetrics& metrics) {
  db_ = db;
  metrics_ = &metrics;
  if (req.kind == ServerRequest::Kind::kProtocolError) {
    metrics.protocol_errors->Add(1);
    (void)SendError(req.frame.request_id, req.error, req.error_msg);
    return !req.fatal;
  }

  const net::Frame& f = req.frame;
  metrics.requests->Add(1);
  if (!net::IsRequestOpcode(static_cast<uint8_t>(f.opcode))) {
    metrics.protocol_errors->Add(1);
    (void)SendError(f.request_id, ErrorCode::kBadOpcode,
                    "not a request opcode");
    return true;  // framing is intact; the session survives
  }

  // Queue-wait admission timeout: a request that already waited longer
  // than the budget is answered with a typed error instead of executed.
  if (obs::NowNanos() - req.enqueue_ns > kRequestTimeoutNs) {
    metrics.timeouts->Add(1);
    (void)SendError(f.request_id, ErrorCode::kTimeout,
                    "request timed out in the server queue");
    return true;
  }

  GISTCR_TRACE_SCOPE_ARG(TraceNameFor(f.opcode), "rid", f.request_id);
  const uint64_t t0 = obs::NowNanos();
  // Per-request span context: stage timers accumulate into this while the
  // handler runs (lock/latch/walwait/fsync attribution happens deep in the
  // engine via the thread-local installed by OpScope).
  obs::OpContext ctx;
  ctx.request_id = f.request_id;
  ctx.op_name = net::OpcodeName(f.opcode);
  ctx.start_ns = (req.enqueue_ns != 0 && req.enqueue_ns <= t0)
                     ? req.enqueue_ns
                     : t0;
  ctx.Add(obs::Stage::kQueue, t0 - ctx.start_ns);
  obs::OpScope op_scope(&ctx);
  Status st;
  switch (f.opcode) {
    case Opcode::kPing:
      st = SendFrame(Opcode::kPong, f.request_id, f.payload);
      break;
    case Opcode::kBegin:
      st = HandleBegin(f, draining, db);
      break;
    case Opcode::kCommit:
      st = HandleCommit(f, db);
      break;
    case Opcode::kAbort:
      st = HandleAbort(f, db);
      break;
    case Opcode::kInsert:
      st = HandleInsert(f, draining, db);
      break;
    case Opcode::kDelete:
      st = HandleDelete(f, draining, db);
      break;
    case Opcode::kSearch:
      st = HandleSearch(f, draining, db);
      break;
    case Opcode::kStats:
      st = HandleStats(f, db);
      break;
    case Opcode::kInspect:
      st = HandleInspect(f, db);
      break;
    default:
      st = Status::NotSupported("opcode");
      break;
  }
  const uint64_t end_ns = obs::NowNanos();
  const uint64_t dt = end_ns - t0;
  metrics.request_latency->Record(dt);
  const uint8_t op_idx = static_cast<uint8_t>(f.opcode);
  if (op_idx < 10 && metrics.op_count[op_idx] != nullptr) {
    metrics.op_count[op_idx]->Add(1);
    metrics.op_latency[op_idx]->Record(dt);
  }
  // Close the span: whatever end-to-end time was not attributed to a named
  // stage becomes "other", so the stage sum equals the total exactly.
  const uint64_t total = end_ns - ctx.start_ns;
  uint64_t attributed = 0;
  for (size_t s = 0; s < obs::kNumStages; s++) attributed += ctx.stage_ns[s];
  ctx.Add(obs::Stage::kOther, total > attributed ? total - attributed : 0);
  for (size_t s = 0; s < obs::kNumStages; s++) {
    if (metrics.stage[s] != nullptr) metrics.stage[s]->Record(ctx.stage_ns[s]);
  }
  if (metrics.request_total != nullptr) metrics.request_total->Record(total);
  db->slow_ops()->MaybeRecord(ctx, total, st.ok() ? "ok" : "send_failed");
  // st reflects the transport (SendFrame/SendError): if writing the
  // response failed the connection is dead and the event loop will reap
  // it; request-level errors were already reported as error frames.
  return st.ok();
}

}  // namespace gistcr
