// The three workloads: one measured pass each, plus set-up alone.
//
//  csv_replay      mmap + LineSpanScanner + ShardedStreamEngine::PushLine,
//                  the `watch` path (tokenizer, pre-scan, ring hand-off).
//  bin_geo_replay  BinaryRecordReader + ShardedStreamEngine::Push with a
//                  GeoMmdb armed (no tokenizing; apply and geo dominate).
//  daemon_feed     an in-process IngestServer fed by one generator thread
//                  over two connections (framer, protocol, journal,
//                  checkpoints, and /status reads beside the writes).
//
// Each replay pass reads the feed once in 1,024-row batches and takes a
// live Snapshot() at mid-feed, as the daemon's generator polls /status, so
// every workload reports the same batch-latency and status-latency metrics.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "common/mmapio.h"
#include "data/binrecords.h"
#include "data/linescan.h"
#include "geo/mmdb.h"
#include "netd/client.h"
#include "netd/journal.h"
#include "netd/server.h"
#include "obs/metrics.h"
#include "stream/sharded.h"

namespace ddos::perfbench {

namespace {

// Daemon checkpoint cadence in records: the one the README's serving and
// watch examples use (`--checkpoint-every 50000`).
constexpr std::uint64_t kCheckpointEvery = 50000;
constexpr const char* kHost = "127.0.0.1";
constexpr double kDaemonStatusPeriodS = 0.1;  // /status at 10 Hz

// Sums (or maxes) a ddoscope_sharded_* family over its shard labels.
double FamilyTotal(const obs::MetricsSnapshot& snap, std::string_view name,
                   bool max) {
  const obs::MetricFamily* family = snap.FindFamily(name);
  if (family == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& v : family->values) {
    const double x = family->type == obs::MetricType::kGauge
                         ? static_cast<double>(v.gauge)
                         : static_cast<double>(v.counter);
    total = max ? std::max(total, x) : total + x;
  }
  return total;
}

double Skew(const std::vector<std::uint64_t>& counts) {
  if (counts.empty()) return 1.0;
  double sum = 0.0, top = 0.0;
  for (const auto c : counts) {
    sum += static_cast<double>(c);
    top = std::max(top, static_cast<double>(c));
  }
  return sum > 0.0 ? top / (sum / static_cast<double>(counts.size())) : 1.0;
}

void RingCounters(const obs::MetricsRegistry& registry, std::uint64_t records,
                  PassResult* r) {
  const obs::MetricsSnapshot snap = registry.Snapshot();
  r->layer["stream.push_retries_per_rec"] =
      FamilyTotal(snap, "ddoscope_sharded_push_retries_total", false) /
      static_cast<double>(std::max<std::uint64_t>(1, records));
  r->layer["stream.backpressure_sleeps"] =
      FamilyTotal(snap, "ddoscope_sharded_backpressure_sleeps_total", false);
  r->layer["stream.idle_sleeps"] =
      FamilyTotal(snap, "ddoscope_sharded_worker_idle_sleeps_total", false);
  r->layer["stream.queue_highwater"] =
      FamilyTotal(snap, "ddoscope_sharded_queue_highwater_slots", true);
}

// Everything a replay opens before its first record. Declaration order is
// teardown order reversed: the engine dies first, while the mapped feed
// its spans point into and the geo database it reads are still alive.
struct ReplaySetup {
  std::unique_ptr<geo::GeoMmdb> geo;
  std::unique_ptr<io::MmapFile> csv;
  std::unique_ptr<data::BinaryRecordReader> bin;
  std::unique_ptr<stream::ShardedStreamEngine> engine;
};

ReplaySetup OpenReplay(const std::string& workload, const Staged& staged,
                       obs::MetricsRegistry* registry) {
  ReplaySetup s;
  stream::ShardedStreamEngineConfig config;
  config.shards = kShards;
  config.parse = data::ParseOptions::Strict();
  config.metrics = registry;
  if (workload == "csv_replay") {
    s.csv = std::make_unique<io::MmapFile>(io::MmapFile::Open(staged.csv_path));
  } else {
    s.geo = std::make_unique<geo::GeoMmdb>(geo::GeoMmdb::Open(staged.geo_path));
    s.bin = std::make_unique<data::BinaryRecordReader>(staged.bin_path);
    config.geo = s.geo.get();
  }
  s.engine = std::make_unique<stream::ShardedStreamEngine>(config);
  return s;
}

// Per-batch bookkeeping shared by both replays: batch latency, and at
// mid-feed one live status read and (traced) one checkpoint. One read per
// pass, not the daemon's 10 Hz: each merge costs a CSV replay ~15 ms, and
// the batch after a barrier restarts sleeping workers, so a read every few
// batches would both slow the replay and set its p99 batch latency.
class ReplayTicker {
 public:
  // `trace` is null on untraced passes.
  ReplayTicker(stream::ShardedStreamEngine* engine, std::uint64_t records,
               obs::TraceRecorder* trace, PassResult* result)
      : engine_(engine), half_(records / 2), trace_(trace), r_(result) {}

  void EndBatch(std::uint64_t pushed) {
    const double now = NowSeconds();
    r_->batch_ms.push_back((now - batch_start_) * 1e3);
    Span(trace_, "replay.batch", batch_start_, now);
    if (!past_half_ && pushed >= half_) {
      past_half_ = true;
      const double t0 = NowSeconds();
      const stream::StreamSnapshot snap = engine_->Snapshot(5);
      const double t1 = NowSeconds();
      if (snap.attacks > pushed) throw std::runtime_error("snapshot overcounts");
      r_->status_ms.push_back((t1 - t0) * 1e3);
      Span(trace_, "replay.status", t0, t1);
      if (trace_ != nullptr) {
        std::ostringstream out;
        stream::CheckpointMeta meta;
        meta.records = pushed;
        const double c0 = NowSeconds();
        engine_->SaveCheckpoint(out, meta);
        const double c1 = NowSeconds();
        Span(trace_, "replay.checkpoint", c0, c1);
        r_->layer["stream.checkpoint_ms"] = (c1 - c0) * 1e3;
        r_->layer["stream.checkpoint_bytes"] =
            static_cast<double>(out.str().size());
        r_->layer["stream.state_bytes"] =
            static_cast<double>(engine_->ApproxMemoryBytes());
      }
    }
    batch_start_ = NowSeconds();
  }

 private:
  stream::ShardedStreamEngine* engine_;
  std::uint64_t half_;
  obs::TraceRecorder* trace_;
  PassResult* r_;
  double batch_start_ = NowSeconds();
  bool past_half_ = false;
};

PassResult ReplayPass(const std::string& workload, const RunContext& ctx) {
  const Staged& staged = *ctx.staged;
  PassResult r;
  r.offered = staged.records;
  obs::MetricsRegistry registry;
  obs::TraceRecorder* trace = ctx.trace;
  const bool traced = trace != nullptr;
  ResetPeakRss();

  const double t_setup = NowSeconds();
  ReplaySetup s = OpenReplay(workload, staged, traced ? &registry : nullptr);
  r.setup_s = NowSeconds() - t_setup;
  Span(trace, "replay.setup", t_setup, t_setup + r.setup_s);
  stream::ShardedStreamEngine& engine = *s.engine;

  const double cpu0 = ProcessCpuSeconds();
  const double w0 = NowSeconds();
  std::uint64_t pushed = 0;
  double router_s = 0.0;  // traced: time inside PushLine/Push calls
  {
    ReplayTicker ticker(&engine, staged.records, trace, &r);
    if (s.csv != nullptr) {
      data::LineSpanScanner scanner(s.csv->view());
      data::LineSpan line;
      while (scanner.Next(&line)) {
        if (line.line_no == 1) continue;  // header
        if (traced) {
          const double t = NowSeconds();
          engine.PushLine(line.text, line.line_no, line.saw_newline);
          router_s += NowSeconds() - t;
        } else {
          engine.PushLine(line.text, line.line_no, line.saw_newline);
        }
        if (++pushed % kBatchRows == 0) ticker.EndBatch(pushed);
      }
    } else {
      data::AttackRecord record;
      while (s.bin->Next(&record)) {
        if (traced) {
          const double t = NowSeconds();
          engine.Push(record);
          router_s += NowSeconds() - t;
        } else {
          engine.Push(record);
        }
        if (++pushed % kBatchRows == 0) ticker.EndBatch(pushed);
      }
    }
  }
  const double t_finish = NowSeconds();
  engine.Finish();
  const double t_snap = NowSeconds();
  const stream::StreamSnapshot snap = engine.Snapshot();
  const double w1 = NowSeconds();
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.wall_s = w1 - w0;
  r.peak_rss_mib = PeakRssMiB();
  r.ingested = snap.attacks;
  Span(trace, "replay.finish", t_finish, t_snap);
  Span(trace, "replay.snapshot", t_snap, w1);

  if (traced) {
    r.layer["stream.router_ns"] = router_s * 1e9 / static_cast<double>(pushed);
    r.layer["stream.finish_ms"] = (t_snap - t_finish) * 1e3;
    r.layer["stream.snapshot_ms"] = Median(r.status_ms);
    r.layer["stream.shard_skew"] = Skew(engine.ProcessedCounts());
    RingCounters(registry, pushed, &r);
  }

  const Digest& want =
      workload == "csv_replay" ? staged.reference : staged.reference_geo;
  r.digest = DigestOf(snap);
  r.error = CompareDigests(want, r.digest);
  if (r.error.empty() && pushed != staged.records) {
    r.error = "fed " + std::to_string(pushed) + " of " +
              std::to_string(staged.records) + " records";
  }
  r.failed = r.error.empty() ? r.offered - std::min(r.offered, r.ingested)
                             : r.offered;
  return r;
}

// The daemon under test, with its event loop on its own thread. The loop
// is drained and joined before the server is destroyed, on every path.
class Daemon {
 public:
  explicit Daemon(const netd::NetdConfig& config) : server_(config) {
    server_.Bind();
    loop_ = std::thread([this] {
      try {
        server_.Run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~Daemon() { Stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // RequestDrain until Run() returns; seconds taken (0 when stopped).
  double Stop() {
    if (!loop_.joinable()) return 0.0;
    const double t0 = NowSeconds();
    server_.RequestDrain();
    loop_.join();
    return NowSeconds() - t0;
  }

  netd::IngestServer& server() { return server_; }
  const std::string& error() const { return error_; }

 private:
  netd::IngestServer server_;
  std::string error_;  // written by the loop thread, read after join
  std::thread loop_;
};

// Every daemon starts fresh: no journal or checkpoint left by the last one
// (a resumed or truncating start would be other set-up work).
netd::NetdConfig DaemonConfig(const std::string& work_dir) {
  netd::NetdConfig config;
  config.shards = kShards;
  config.journal_path = work_dir + "/daemon.journal";  // read back below
  config.journal_fsync = netd::FsyncPolicy::kInterval;
  config.checkpoint_path = work_dir + "/daemon.ckpt";
  config.checkpoint_every = kCheckpointEvery;
  std::filesystem::remove(config.journal_path);
  std::filesystem::remove(config.checkpoint_path);
  return config;
}

// Connects the generator's two ingest connections; a PONG on each proves
// the server accepted and is streaming on both.
struct Clients {
  explicit Clients(std::uint16_t port) : a(kHost, port), b(kHost, port) {
    a.Ping();
    b.Ping();
  }
  netd::FeedClient a;
  netd::FeedClient b;
};

}  // namespace

RenderedFeed RenderFeed(const std::string& csv_path, std::uint64_t max_rows,
                        std::size_t batch_rows) {
  const io::MmapFile file = io::MmapFile::Open(csv_path);
  data::LineSpanScanner scanner(file.view());
  data::LineSpan line;
  RenderedFeed feed;
  {
    data::LineSpanScanner sizer(file.view());
    std::uint64_t rows = 0;
    while (rows <= max_rows && sizer.Next(&line)) ++rows;  // header + rows
    feed.bytes.reserve(sizer.offset() + (rows / batch_rows + 1) * 5);
  }
  std::uint64_t in_batch = 0;
  const auto close_batch = [&] {
    feed.bytes += "PING\n";
    feed.batch_end.push_back(feed.bytes.size());
    in_batch = 0;
  };
  while (feed.rows < max_rows && scanner.Next(&line)) {
    if (line.line_no == 1) continue;  // header
    feed.bytes.append(line.text);
    feed.bytes += '\n';
    ++feed.rows;
    if (++in_batch == batch_rows) close_batch();
  }
  if (in_batch > 0) close_batch();
  return feed;
}

PassResult DaemonPass(const RenderedFeed& feed, const RunContext& ctx,
                      bool check) {
  PassResult r;
  r.offered = feed.rows;
  obs::TraceRecorder* trace = ctx.trace;
  const bool traced = trace != nullptr;
  ResetPeakRss();

  const netd::NetdConfig config = DaemonConfig(ctx.work_dir);
  const double t_setup = NowSeconds();
  Daemon daemon(config);
  netd::IngestServer& server = daemon.server();
  Clients clients(server.ingest_port());
  r.setup_s = NowSeconds() - t_setup;
  Span(trace, "daemon.setup", t_setup, t_setup + r.setup_s);

  std::vector<double> blocked_us;
  const double gen0 = ThreadCpuSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const double w0 = NowSeconds();
  double next_status = w0 + kDaemonStatusPeriodS;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < feed.batch_end.size() && r.error.empty(); ++i) {
    netd::FeedClient& c = i % 2 == 0 ? clients.a : clients.b;
    const std::string_view batch(feed.bytes.data() + begin,
                                 feed.batch_end[i] - begin);
    begin = feed.batch_end[i];
    const double t0 = NowSeconds();
    c.SendLine(batch);
    const double t_sent = NowSeconds();
    for (;;) {
      const std::string reply = c.ReadLine();
      if (reply.rfind("PONG ", 0) == 0) break;
      if (reply.empty() || reply.rfind("ERR", 0) == 0) {
        r.error = "batch " + std::to_string(i) + ": server replied '" + reply + "'";
        break;
      }
    }
    const double t1 = NowSeconds();
    // A batch's rate is read as kBatchRows over its time, so a short last
    // batch is sent and checked but not sampled, as on the replays.
    if ((i + 1) * kBatchRows <= feed.rows) r.batch_ms.push_back((t1 - t0) * 1e3);
    blocked_us.push_back((t_sent - t0) * 1e6);
    Span(trace, "daemon.batch", t0, t1);
    if (t1 >= next_status) {
      int status = 0;
      const double s0 = NowSeconds();
      netd::HttpGet(kHost, server.http_port(), "/status", &status);
      const double s1 = NowSeconds();
      if (status != 200) r.error = "/status answered " + std::to_string(status);
      r.status_ms.push_back((s1 - s0) * 1e3);
      Span(trace, "daemon.status", s0, s1);
      while (next_status <= s1) next_status += kDaemonStatusPeriodS;
    }
  }
  const std::uint64_t acked = clients.a.End() + clients.b.End();
  const double w1 = NowSeconds();
  const double gen_cpu = ThreadCpuSeconds() - gen0;
  r.cpu_s = ProcessCpuSeconds() - cpu0 - gen_cpu;
  r.wall_s = w1 - w0;
  r.peak_rss_mib =
      PeakRssMiB() - static_cast<double>(feed.bytes.size()) / (1 << 20);
  r.layer["gen.cpu_share"] = gen_cpu / r.wall_s;

  const double drain_s = daemon.Stop();
  Span(trace, "daemon.drain", w1, w1 + drain_s);
  if (r.error.empty() && !daemon.error().empty()) r.error = daemon.error();
  r.ingested = server.accepted_records();
  if (traced) {
    r.layer["netd.send_blocked_us"] = Median(blocked_us);
    r.layer["netd.drain_ms"] = drain_s * 1e3;
    r.layer["stream.shard_skew"] = Skew(server.engine().ProcessedCounts());
    RingCounters(server.metrics(), r.ingested, &r);
  }
  const stream::StreamSnapshot snap = server.FinishAndSnapshot();

  if (r.error.empty() && (r.ingested != feed.rows || acked != feed.rows)) {
    r.error = "offered " + std::to_string(feed.rows) + ", accepted " +
              std::to_string(r.ingested) + ", acked " + std::to_string(acked);
  }
  r.digest = DigestOf(snap);
  if (r.error.empty() && check) {
    r.error = CompareDigests(ctx.staged->reference, r.digest);
    if (!r.error.empty()) r.error = "daemon vs reference: " + r.error;
  }
  const std::uint64_t lost = feed.rows - std::min<std::uint64_t>(feed.rows, acked);
  r.failed = r.error.empty() ? lost : r.offered;
  return r;
}

std::string CheckJournal(const RunContext& ctx, const Digest& daemon) {
  const netd::JournalContents journal =
      netd::ReadJournal(ctx.work_dir + "/daemon.journal");
  stream::StreamEngine replay;
  for (const auto& entry : journal.entries) replay.Push(entry.record);
  replay.Finish();
  const std::string diff = CompareDigests(daemon, DigestOf(replay.Snapshot()));
  return diff.empty() ? diff : "journal replay vs daemon: " + diff;
}

double SetupOnly(const std::string& workload, const RunContext& ctx) {
  ResetPeakRss();  // the same trimmed heap a pass starts from
  if (workload == "daemon_feed") {
    const netd::NetdConfig config = DaemonConfig(ctx.work_dir);
    const double t0 = NowSeconds();
    Daemon daemon(config);
    Clients clients(daemon.server().ingest_port());
    const double setup = NowSeconds() - t0;
    clients.a.End();
    clients.b.End();
    return setup;
  }
  const double t0 = NowSeconds();
  const ReplaySetup s = OpenReplay(workload, *ctx.staged, nullptr);
  return NowSeconds() - t0;
}

PassResult RunPass(const std::string& workload, const RunContext& ctx) {
  try {
    if (workload != "daemon_feed") return ReplayPass(workload, ctx);
    return DaemonPass(*ctx.feed, ctx, /*check=*/true);
  } catch (const std::exception& e) {
    // A pass that throws (a strict-mode rejection, a dropped connection)
    // delivered nothing it can vouch for.
    PassResult r;
    r.offered = ctx.staged->records;
    r.failed = r.offered;
    r.wall_s = 1.0;
    r.error = e.what();
    return r;
  }
}

}  // namespace ddos::perfbench
