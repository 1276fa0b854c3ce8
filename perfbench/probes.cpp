// Stage-alone costs: each layer call timed on its own over a sample of the
// staged feed, reported as ns (or us/ms) per call. The sum of the stages a
// workload runs is its ledger row, set against its measured CPU cost.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "common/mmapio.h"
#include "data/binrecords.h"
#include "data/csv.h"
#include "data/linescan.h"
#include "geo/mmdb.h"
#include "netd/connection.h"
#include "netd/framer.h"
#include "netd/journal.h"
#include "stream/engine.h"
#include "stream/sharded.h"

namespace ddos::perfbench {

namespace {

constexpr std::uint64_t kSampleRecords = 1 << 18;
constexpr int kReps = 3;
constexpr std::size_t kNetdProbeBatches = 128;

// Runs `body` kReps times, each as one trace span, and returns the median
// seconds of a repetition.
double TimeReps(obs::TraceRecorder* trace, const char* name,
                const std::function<void()>& body) {
  std::vector<double> secs;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = NowSeconds();
    body();
    const double t1 = NowSeconds();
    secs.push_back(t1 - t0);
    Span(trace, name, t0, t1);
  }
  return Median(secs);
}

// Keeps a probe's result observable so the timed loop cannot be elided.
volatile std::uint64_t g_sink = 0;

}  // namespace

std::map<std::string, double> RunProbes(const std::string& workload,
                                        const RunContext& ctx) {
  const Staged& staged = *ctx.staged;
  obs::TraceRecorder* trace = ctx.trace;
  std::map<std::string, double> m;

  // The sample: the feed's first lines, as spans into the mapped CSV.
  const io::MmapFile csv = io::MmapFile::Open(staged.csv_path);
  std::vector<data::LineSpan> spans;
  std::size_t sample_bytes = 0;
  {
    data::LineSpanScanner scanner(csv.view());
    data::LineSpan line;
    while (spans.size() < kSampleRecords && scanner.Next(&line)) {
      if (line.line_no == 1) continue;
      spans.push_back(line);
    }
    sample_bytes = scanner.offset();
  }
  const double n = static_cast<double>(spans.size());
  const auto per_record_ns = [&](double secs) { return secs * 1e9 / n; };

  m["data.scan_ns"] = per_record_ns(TimeReps(trace, "probe.scan", [&] {
    data::LineSpanScanner scanner(csv.view().substr(0, sample_bytes));
    data::LineSpan line;
    std::uint64_t lines = 0;
    while (scanner.Next(&line)) ++lines;
    g_sink = lines;
  }));

  m["data.prescan_ns"] = per_record_ns(TimeReps(trace, "probe.prescan", [&] {
    data::AttackLinePreScanner prescan;
    data::AttackLinePreScan out;
    data::IngestError err;
    std::uint64_t ok = 0;
    for (const auto& s : spans) ok += prescan.Scan(s.text, &out, &err) ? 1 : 0;
    g_sink = ok;
  }));

  std::vector<data::AttackRecord> records(spans.size());
  m["data.parse_ns"] = per_record_ns(TimeReps(trace, "probe.parse", [&] {
    data::IngestError err;
    std::uint64_t ok = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      ok += data::TryParseAttackLine(spans[i].text, &records[i], &err) ? 1 : 0;
    }
    g_sink = ok;
  }));

  m["data.bin_decode_ns"] = per_record_ns(TimeReps(trace, "probe.bin_decode", [&] {
    data::BinaryRecordReader reader(staged.bin_path);
    data::AttackRecord record;
    std::uint64_t read = 0;
    while (read < spans.size() && reader.Next(&record)) ++read;
    g_sink = read;
  }));

  std::vector<double> open_ms;
  for (int rep = 0; rep < 2 * kReps - 1; ++rep) {
    const double t0 = NowSeconds();
    const geo::GeoMmdb db = geo::GeoMmdb::Open(staged.geo_path);
    open_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  m["geo.open_ms"] = Median(open_ms);
  const geo::GeoMmdb db = geo::GeoMmdb::Open(staged.geo_path);
  m["geo.lookup_ns"] = per_record_ns(TimeReps(trace, "probe.geo_lookup", [&] {
    std::uint64_t allocated_count = 0;
    for (const auto& r : records) {
      bool allocated = false;
      const geo::GeoRecord g = db.Lookup(r.target_ip, &allocated);
      allocated_count += allocated ? 1 : 0;
      g_sink = g.asn.value();
    }
    g_sink = allocated_count;
  }));

  m["stream.apply_ns"] = per_record_ns(TimeReps(trace, "probe.apply", [&] {
    stream::StreamEngine engine;
    for (const auto& r : records) engine.Push(r);
    g_sink = engine.attacks_seen();
  }));
  m["stream.apply_geo_ns"] = per_record_ns(TimeReps(trace, "probe.apply_geo", [&] {
    stream::StreamEngine engine;
    engine.EnableGeo(&db);
    for (const auto& r : records) engine.Push(r);
    g_sink = engine.attacks_seen();
  }));

  // The daemon's wire bytes for the sample: rows in PING-closed batches.
  const RenderedFeed wire =
      RenderFeed(staged.csv_path, spans.size(), kBatchRows);
  std::vector<std::string> lines;
  m["netd.framer_ns"] = per_record_ns(TimeReps(trace, "probe.framer", [&] {
    netd::LineFramer framer;
    std::string line;
    bool overflow = false;
    lines.clear();
    std::size_t begin = 0;
    for (const std::size_t end : wire.batch_end) {
      framer.Append(wire.bytes.data() + begin, end - begin);
      begin = end;
      while (framer.Next(&line, &overflow)) lines.push_back(line);
    }
  }));

  m["netd.protocol_ns"] = per_record_ns(TimeReps(trace, "probe.protocol", [&] {
    netd::IngestProtocol protocol(nullptr, netd::IngestLimits{});
    data::AttackRecord record;
    for (const auto& line : lines) {
      if (protocol.OnLine(line, false, &record).has_record) {
        protocol.OnRecordIngested();
      }
      if (protocol.has_output()) g_sink = protocol.TakeOutput().size();
    }
    g_sink = protocol.records();
  }));

  {
    // Journal appends in the daemon's batch shape, with its fsync policy;
    // every 16th batch also forces a Sync().
    const std::string path = ctx.work_dir + "/probe.journal";
    netd::Journal journal(path, false, netd::FsyncPolicy::kInterval, 4096);
    std::vector<std::pair<data::AttackRecord, std::uint64_t>> batch;
    std::vector<double> append_us, sync_ms;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < records.size(); i += kBatchRows) {
      batch.clear();
      for (std::size_t j = i; j < std::min(records.size(), i + kBatchRows); ++j) {
        batch.emplace_back(records[j], ++seq);
      }
      const double t0 = NowSeconds();
      const bool ok = journal.AppendBatch("", batch);
      const double t1 = NowSeconds();
      if (!ok) throw std::runtime_error("probe: journal append failed");
      append_us.push_back((t1 - t0) * 1e6);
      if (append_us.size() % 16 == 0) {
        journal.Sync();
        sync_ms.push_back((NowSeconds() - t1) * 1e3);
      }
    }
    double total = 0.0;
    for (const double us : append_us) total += us;
    // Mean, not median: the policy's periodic fsync is part of the cost.
    m["netd.journal_append_us"] = total / static_cast<double>(append_us.size());
    m["netd.journal_sync_ms"] = Median(sync_ms);
    std::filesystem::remove(path);
  }

  if (workload == "daemon_feed") {
    // The daemon's engine is fed by Push from its poll thread; time that
    // router call, and the live engine's state costs, on a sharded engine
    // fed the same way.
    stream::ShardedStreamEngineConfig config;
    config.shards = kShards;
    stream::ShardedStreamEngine engine(config);
    double router_s = 0.0;
    for (const auto& r : records) {
      const double t = NowSeconds();
      engine.Push(r);
      router_s += NowSeconds() - t;
    }
    m["stream.router_ns"] = per_record_ns(router_s);
    m["stream.snapshot_ms"] =
        TimeReps(trace, "probe.snapshot", [&] { g_sink = engine.Snapshot(5).attacks; }) * 1e3;
    std::size_t bytes = 0;
    m["stream.checkpoint_ms"] = TimeReps(trace, "probe.checkpoint", [&] {
      std::ostringstream out;
      engine.SaveCheckpoint(out, stream::CheckpointMeta{});
      bytes = out.str().size();
    }) * 1e3;
    m["stream.checkpoint_bytes"] = static_cast<double>(bytes);
    m["stream.state_bytes"] = static_cast<double>(engine.ApproxMemoryBytes());
    const double t0 = NowSeconds();
    engine.Finish();
    m["stream.finish_ms"] = (NowSeconds() - t0) * 1e3;
  } else {
    // The replays have no daemon in their path; measure the netd-only
    // figures on a short daemon run over the sample's first batches.
    const RenderedFeed head =
        RenderFeed(staged.csv_path, kNetdProbeBatches * kBatchRows, kBatchRows);
    const PassResult pass = DaemonPass(head, ctx, /*check=*/false);
    if (!pass.error.empty()) throw std::runtime_error("netd probe: " + pass.error);
    for (const char* key : {"netd.send_blocked_us", "netd.drain_ms", "gen.cpu_share"}) {
      m[key] = pass.layer.at(key);
    }
  }
  return m;
}

}  // namespace ddos::perfbench
