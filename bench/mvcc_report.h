#ifndef GISTCR_BENCH_MVCC_REPORT_H_
#define GISTCR_BENCH_MVCC_REPORT_H_

// Machine-readable MVCC snapshot-read report (BENCH_mvcc.json), written by
// the BM_Mvcc* series in bench_concurrency. Same shape as
// commit_report.h: rows accumulate across (series, arm) combinations and
// the file is rewritten whole each time, so a partial sweep still leaves
// valid JSON.
// The two series answer the two headline questions of DESIGN.md section
// 14.6: does concurrent write churn slow snapshot scans (series "scan":
// solo vs with_writers), and do long snapshot scans tax writer commit
// throughput (series "writer": solo vs with_scans — the PR acceptance
// gate is <= ~10% degradation, checked against the checked-in
// bench/BENCH_mvcc.seed.json baseline).

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "db/database.h"

namespace gistcr {
namespace bench {

/// One (series, arm) row. chain_length_p99 is the proof-of-boundedness
/// half: snapshot reads only stay cheap if version chains stay short,
/// which is the GC pass's job.
struct MvccReportRow {
  double ops_per_s = 0;
  uint64_t ops = 0;
  double elapsed_s = 0;
  uint64_t snapshot_reads = 0;
  uint64_t versions_stamped = 0;
  uint64_t versions_pruned = 0;
  uint64_t store_size = 0;
  double chain_length_p99 = 0;
};

inline void WriteMvccReport(const std::string& out_path,
                            const std::string& series, const std::string& arm,
                            double elapsed_s, uint64_t ops, Database* db) {
  static std::mutex mu;
  static std::map<std::tuple<std::string, std::string>, MvccReportRow> rows;
  obs::MetricsRegistry* reg = db->metrics();
  MvccReportRow row;
  row.ops = ops;
  row.elapsed_s = elapsed_s;
  row.ops_per_s = elapsed_s > 0 ? static_cast<double>(ops) / elapsed_s : 0.0;
  row.snapshot_reads = reg->GetCounter("mvcc.snapshot_reads")->value();
  row.versions_stamped = reg->GetCounter("mvcc.versions_stamped")->value();
  row.versions_pruned = reg->GetCounter("mvcc.versions_pruned")->value();
  row.store_size = db->mvcc()->StoreSize();
  const auto chains = reg->GetHistogram("mvcc.chain_length")->GetSnapshot();
  row.chain_length_p99 = chains.count == 0 ? 0.0 : chains.Percentile(0.99);

  std::lock_guard<std::mutex> l(mu);
  rows[{series, arm}] = row;
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", out_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"mvcc_snapshot\",\n  \"runs\": [\n");
  size_t i = 0;
  for (const auto& [key, r] : rows) {
    std::fprintf(
        f,
        "    {\"series\": \"%s\", \"arm\": \"%s\", \"ops\": %llu, "
        "\"elapsed_s\": %.3f, \"ops_per_s\": %.1f, "
        "\"snapshot_reads\": %llu, \"versions_stamped\": %llu, "
        "\"versions_pruned\": %llu, \"store_size\": %llu, "
        "\"chain_length_p99\": %.2f}%s\n",
        std::get<0>(key).c_str(), std::get<1>(key).c_str(),
        static_cast<unsigned long long>(r.ops), r.elapsed_s, r.ops_per_s,
        static_cast<unsigned long long>(r.snapshot_reads),
        static_cast<unsigned long long>(r.versions_stamped),
        static_cast<unsigned long long>(r.versions_pruned),
        static_cast<unsigned long long>(r.store_size), r.chain_length_p99,
        ++i < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace bench
}  // namespace gistcr

#endif  // GISTCR_BENCH_MVCC_REPORT_H_
