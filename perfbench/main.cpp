// ddbench: the ddoscope end-to-end benchmark.
//
//   ddbench stage --seed N --seconds S --dir D
//       Generates the botsim trace for seed N, replays it into a feed sized
//       for S-second runs, and writes feed.csv, feed.bin, geo.ddgeomdb and
//       the single-thread reference digests into D.
//   ddbench run --workload W --seed N --seconds S --trace 0|1 --stage D
//               --work DIR
//       Measures workload W on the staged input for about S seconds. The
//       last stdout line is the result JSON: end-to-end metrics with
//       --trace 0, per-layer metrics (a separate traced run) with --trace 1.
//       Exits 1 when an output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "netd/socket.h"

namespace ddos::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"records_per_s", "rec/s"},      {"cpu_ns_per_record", "ns"},
    {"setup_s", "s"},                {"peak_rss_mb", "MiB"},
    {"delivered_fraction", "ratio"},
};

// Latencies and rates of the untraced passes that every run prints but that
// carry no bound, so they are per-layer metrics. On a shared host a batch's
// or status read's time follows how long other guests hold the CPUs: the
// batch-latency tail, the status reads and the whole-pass rate (which sums
// that tail) spread past the largest bound allowed from one set of runs to
// the next, while the median batch does not. records_per_s is therefore the
// median batch's rate, and ingest_p50_ms is 1,024 rows at that rate.
constexpr MetricSpec kPassFigures[] = {
    {"ingest_p50_ms", "ms"},      {"ingest_p95_ms", "ms"},
    {"ingest_p99_ms", "ms"},      {"status_p50_ms", "ms"},
    {"wall_records_per_s", "rec/s"},
};

constexpr MetricSpec kPerLayer[] = {
    kPassFigures[0],
    kPassFigures[1],
    kPassFigures[2],
    kPassFigures[3],
    kPassFigures[4],
    {"data.scan_ns", "ns"},
    {"data.prescan_ns", "ns"},
    {"data.parse_ns", "ns"},
    {"data.bin_decode_ns", "ns"},
    {"geo.lookup_ns", "ns"},
    {"geo.open_ms", "ms"},
    {"stream.apply_ns", "ns"},
    {"stream.apply_geo_ns", "ns"},
    {"stream.router_ns", "ns"},
    {"stream.push_retries_per_rec", "ratio"},
    {"stream.backpressure_sleeps", "count"},
    {"stream.idle_sleeps", "count"},
    {"stream.queue_highwater", "count"},
    {"stream.shard_skew", "ratio"},
    {"stream.finish_ms", "ms"},
    {"stream.snapshot_ms", "ms"},
    {"stream.checkpoint_ms", "ms"},
    {"stream.checkpoint_bytes", "bytes"},
    {"stream.state_bytes", "bytes"},
    {"netd.framer_ns", "ns"},
    {"netd.protocol_ns", "ns"},
    {"netd.journal_append_us", "us"},
    {"netd.journal_sync_ms", "ms"},
    {"netd.send_blocked_us", "us"},
    {"netd.drain_ms", "ms"},
    {"gen.cpu_share", "ratio"},
    {"ledger.stage_sum_ns", "ns"},
    {"ledger.unexplained_ns", "ns"},
    {"ledger.unexplained_share", "ratio"},
    {"obs.trace_overhead", "rec/s"},
    {"obs.trace_dropped", "count"},
};

constexpr int kSetupReps = 10;  // per untraced pass
constexpr std::size_t kMinPasses = 2;
constexpr std::size_t kMinBatchSamples = 1000;
constexpr double kLedgerFlagShare = 0.10;
constexpr double kGeneratorFlagShare = 0.5;

struct Args {
  std::map<std::string, std::string> kv;
  std::string Get(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + key);
    args.kv[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Stages of a workload's ledger row, each measured alone by the probes.
std::vector<std::string> LedgerStages(const std::string& workload) {
  if (workload == "csv_replay") {
    return {"data.scan_ns", "data.prescan_ns", "data.parse_ns", "stream.apply_ns"};
  }
  if (workload == "bin_geo_replay") {
    return {"data.bin_decode_ns", "stream.apply_geo_ns"};
  }
  // The protocol stage includes the row parse; journal_append is per batch.
  return {"netd.framer_ns", "netd.protocol_ns", "netd.journal_append_us",
          "stream.apply_ns"};
}

struct Summary {
  double value = 0.0;
  std::vector<double> quartiles;  // over the samples below
  std::size_t samples = 0;
};

Summary Over(const std::vector<double>& samples) {
  return {Median(samples), Quartiles(samples), samples.size()};
}

// Each batch's ingest rate, in records per second.
std::vector<double> BatchRates(const std::vector<double>& batch_ms) {
  std::vector<double> rates;
  rates.reserve(batch_ms.size());
  for (const double ms : batch_ms) rates.push_back(kBatchRows * 1e3 / ms);
  return rates;
}

int Run(const Args& args) {
  const std::string workload = args.Get("workload");
  if (workload != "csv_replay" && workload != "bin_geo_replay" &&
      workload != "daemon_feed") {
    throw std::runtime_error("unknown workload " + workload);
  }
  const double seconds = std::stod(args.Get("seconds"));
  const bool traced_run = args.Get("trace") == "1";
  const Staged staged = LoadStaged(args.Get("stage"));
  if (std::to_string(staged.seed) != args.Get("seed")) {
    throw std::runtime_error("staged input is for another seed");
  }
  const std::string work_dir = args.Get("work");
  std::filesystem::create_directories(work_dir);
  netd::IgnoreSigpipe();

  RenderedFeed feed;
  if (workload == "daemon_feed") {
    feed = RenderFeed(staged.csv_path, staged.records, kBatchRows);
  }
  RunContext ctx{&staged, &feed, work_dir, nullptr};
  obs::TraceRecorder recorder;
  RunContext traced_ctx = ctx;
  traced_ctx.trace = &recorder;

  // Set-up alone, in a group of kSetupReps before every untraced pass; the
  // very first round only warms up. A set-up takes a millisecond or two and
  // its cost follows the host's moment-to-moment speed, so the groups are
  // spread over the whole run, as the passes are, rather than taken at once.
  SetupOnly(workload, ctx);
  std::vector<double> setup;

  // Untraced passes measure the end-to-end metrics. The traced run
  // alternates untraced and traced passes, so drift hits both alike. A run
  // measures `seconds` of untraced ingest, at least two passes, and at
  // least enough batches that the p99 has ten samples beyond it. It stops
  // at the first failed pass: a failed check repeats on every pass, and a
  // pass that throws yields no batches, so the loop would never end.
  std::vector<PassResult> plain, traced;
  std::size_t batches = 0;
  double measured_s = 0.0;
  const double steal0 = StealSeconds();
  const double run0 = NowSeconds();
  while (plain.size() < kMinPasses || batches < kMinBatchSamples ||
         measured_s < seconds) {
    for (int i = 0; i < kSetupReps; ++i) setup.push_back(SetupOnly(workload, ctx));
    plain.push_back(RunPass(workload, ctx));
    batches += plain.back().batch_ms.size();
    measured_s += plain.back().wall_s;
    if (!plain.back().error.empty()) break;
    if (traced_run) {
      traced.push_back(RunPass(workload, traced_ctx));
      if (!traced.back().error.empty()) break;
    }
  }
  if (workload == "daemon_feed") {
    PassResult& last = traced.empty() ? plain.back() : traced.back();
    if (last.error.empty()) {
      last.error = CheckJournal(ctx, last.digest);
      if (!last.error.empty()) last.failed = last.offered;
    }
  }
  // Share of the host's CPUs taken by other guests while the passes ran:
  // this host's main source of run-to-run spread.
  const double steal_share = (StealSeconds() - steal0) /
                             ((NowSeconds() - run0) * HostCores());

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> rps, cpu_ns, rss, batch_ms, status_ms, gen_share;
  std::vector<std::string> errors;
  for (const auto* list : {&plain, &traced}) {
    for (const PassResult& p : *list) {
      attempted += p.offered;
      failed += p.failed;
      if (!p.error.empty()) errors.push_back(p.error);
    }
  }
  for (const PassResult& p : plain) {
    const double n = static_cast<double>(std::max<std::uint64_t>(1, p.ingested));
    rps.push_back(static_cast<double>(p.ingested) / p.wall_s);
    cpu_ns.push_back(p.cpu_s * 1e9 / n);
    rss.push_back(p.peak_rss_mib);
    std::printf("pass %zu: %.0f rec/s, %.0f cpu ns/rec, setup %.6f s, peak %.1f MiB\n",
                rps.size(), rps.back(), cpu_ns.back(), p.setup_s, p.peak_rss_mib);
    batch_ms.insert(batch_ms.end(), p.batch_ms.begin(), p.batch_ms.end());
    status_ms.insert(status_ms.end(), p.status_ms.begin(), p.status_ms.end());
    if (p.layer.count("gen.cpu_share")) gen_share.push_back(p.layer.at("gen.cpu_share"));
  }

  std::map<std::string, Summary> e2e;
  e2e["records_per_s"] = Over(BatchRates(batch_ms));
  e2e["cpu_ns_per_record"] = Over(cpu_ns);
  e2e["setup_s"] = Over(setup);
  e2e["peak_rss_mb"] = Over(rss);
  e2e["delivered_fraction"] = {
      attempted == 0 ? 0.0
                     : static_cast<double>(attempted - failed) /
                           static_cast<double>(attempted),
      {},
      static_cast<std::size_t>(attempted)};
  e2e["ingest_p50_ms"] = {Percentile(batch_ms, 50), {}, batch_ms.size()};
  e2e["ingest_p95_ms"] = {Percentile(batch_ms, 95), {}, batch_ms.size()};
  e2e["ingest_p99_ms"] = {Percentile(batch_ms, 99), {}, batch_ms.size()};
  e2e["wall_records_per_s"] = Over(rps);
  e2e["status_p50_ms"] = {Percentile(status_ms, 50), {}, status_ms.size()};

  std::map<std::string, double> layer;
  if (traced_run && errors.empty()) {
    try {
      for (const auto& [k, v] : RunProbes(workload, traced_ctx)) layer[k] = v;
    } catch (const std::exception& e) {
      errors.push_back(std::string("probe: ") + e.what());
    }
  }
  const bool correct = errors.empty();
  if (traced_run && correct) {
    for (const MetricSpec& m : kPassFigures) layer[m.name] = e2e.at(m.name).value;
    std::map<std::string, std::vector<double>> per_key;
    for (const PassResult& p : traced) {
      for (const auto& [k, v] : p.layer) per_key[k].push_back(v);
    }
    for (const auto& [k, v] : per_key) layer.emplace(k, Median(v));
    double stage_sum = 0.0;
    for (const std::string& stage : LedgerStages(workload)) {
      double ns = layer.at(stage);
      if (stage == "netd.journal_append_us") ns *= 1e3 / kBatchRows;
      stage_sum += ns;
    }
    const double cpu = e2e["cpu_ns_per_record"].value;
    layer["ledger.stage_sum_ns"] = stage_sum;
    layer["ledger.unexplained_ns"] = cpu - stage_sum;
    layer["ledger.unexplained_share"] = cpu > 0.0 ? (cpu - stage_sum) / cpu : 0.0;
    std::vector<double> traced_ms;
    for (const PassResult& p : traced) {
      traced_ms.insert(traced_ms.end(), p.batch_ms.begin(), p.batch_ms.end());
    }
    layer["obs.trace_overhead"] =
        Median(BatchRates(traced_ms)) - e2e["records_per_s"].value;
    layer["obs.trace_dropped"] = static_cast<double>(recorder.dropped());
    const std::string trace_path = work_dir + "/trace-" + workload + "-s" +
                                   std::to_string(staged.seed) + ".json";
    recorder.WriteChromeTrace(trace_path);
    std::printf("chrome trace: %s (%llu spans, %llu dropped)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(recorder.recorded()),
                static_cast<unsigned long long>(recorder.dropped()));
    std::printf("ledger %s: stages %.1f ns/rec, cpu %.1f ns/rec, "
                "unexplained %.1f ns/rec (%.1f%%)%s\n",
                workload.c_str(), stage_sum, cpu, cpu - stage_sum,
                100.0 * layer["ledger.unexplained_share"],
                layer["ledger.unexplained_share"] > kLedgerFlagShare
                    ? "  FLAG: unexplained share over 10%"
                    : "");
  }

  const double gen_peak =
      gen_share.empty() ? 0.0 : *std::max_element(gen_share.begin(), gen_share.end());
  const bool gen_flag = gen_peak > kGeneratorFlagShare;
  if (gen_flag) {
    std::printf("FLAG: generator thread busy %.0f%% of a pass's wall time\n",
                100.0 * gen_peak);
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  // Human-readable table, then the method, then the result line.
  std::vector<MetricSpec> printed(std::begin(kEndToEnd), std::end(kEndToEnd));
  printed.insert(printed.end(), std::begin(kPassFigures), std::end(kPassFigures));
  for (const MetricSpec& m : printed) {
    const Summary& s = e2e.at(m.name);
    std::printf("%-20s %14.4f %-6s samples=%zu", m.name, s.value, m.unit, s.samples);
    if (!s.quartiles.empty()) {
      std::printf(" q1=%.4f q3=%.4f", s.quartiles[0], s.quartiles[2]);
    }
    std::printf("\n");
  }
  // A failed run has no layer figures to report; they read 0.
  if (!correct) {
    for (const MetricSpec& m : kPerLayer) layer.emplace(m.name, 0.0);
  }
  if (traced_run) {
    for (const MetricSpec& m : kPerLayer) {
      std::printf("%-28s %16.4f %s\n", m.name, layer.at(m.name), m.unit);
    }
  }

  std::string method = "{\"method\":{";
  method += "\"workload\":" + Quote(workload);
  method += ",\"seed\":" + std::to_string(staged.seed);
  method += ",\"trace_records\":" + std::to_string(staged.trace_records);
  method += ",\"replays\":" + std::to_string(staged.replays);
  method += ",\"records\":" + std::to_string(staged.records);
  method += ",\"shards\":" + std::to_string(kShards);
  method += ",\"batch_rows\":" + std::to_string(kBatchRows);
  method += ",\"host_cores\":" + std::to_string(HostCores());
  method += ",\"cpu_model\":" + Quote(CpuModel());
  method += ",\"seconds\":" + Num(seconds);
  method += ",\"passes\":" + std::to_string(plain.size());
  method += ",\"traced_passes\":" + std::to_string(traced.size());
  method += ",\"setup_reps\":" + std::to_string(setup.size());
  method += ",\"generator_flagged\":" + std::string(gen_flag ? "true" : "false");
  method += ",\"host_steal_share\":" + Num(steal_share);
  method += ",\"metrics\":{";
  bool first = true;
  for (const MetricSpec& m : printed) {
    const Summary& s = e2e.at(m.name);
    method += std::string(first ? "" : ",") + Quote(m.name) + ":{\"median\":" +
              Num(s.value) + ",\"samples\":" + std::to_string(s.samples);
    if (!s.quartiles.empty()) {
      method += ",\"q1\":" + Num(s.quartiles[0]) + ",\"q3\":" + Num(s.quartiles[2]);
    }
    method += "}";
    first = false;
  }
  method += "}}}";
  std::printf("%s\n", method.c_str());

  std::string out = "{\"correct\":" + std::string(correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  first = true;
  const auto emit = [&](const MetricSpec& m, double v) {
    out += std::string(first ? "" : ",") + Quote(m.name) + ":{\"value\":" + Num(v) +
           ",\"unit\":" + Quote(m.unit) + "}";
    first = false;
  };
  if (traced_run) {
    for (const MetricSpec& m : kPerLayer) emit(m, layer.at(m.name));
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m, e2e.at(m.name).value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ddos::perfbench

int main(int argc, char** argv) {
  using namespace ddos::perfbench;
  try {
    if (argc >= 2 && std::string(argv[1]) == "stage") {
      const Args args = ParseArgs(argc, argv, 2);
      StageInputs(std::stoull(args.Get("seed")), std::stod(args.Get("seconds")),
                  args.Get("dir"));
      return 0;
    }
    if (argc >= 2 && std::string(argv[1]) == "run") {
      return Run(ParseArgs(argc, argv, 2));
    }
    std::fprintf(stderr, "usage: ddbench stage|run --key value ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ddbench: %s\n", e.what());
    return 2;
  }
}
