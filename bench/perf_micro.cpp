// Performance microbenchmarks (google-benchmark) for the hot paths of the
// library: geodesy, dispersion, interval scanning, ECDF construction,
// ARIMA fitting, collaboration detection, CSV serialization, and trace
// generation itself.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "botsim/simulator.h"
#include "common/rng.h"
#include "core/collaboration.h"
#include "core/attribution.h"
#include "core/intervals.h"
#include "core/mitigation_sim.h"
#include "data/query.h"
#include "net/as_graph.h"
#include "stats/hypothesis.h"
#include "data/csv.h"
#include "data/linescan.h"
#include "geo/geodesy.h"
#include "geo/lookup_cache.h"
#include "geo/mmdb.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/ecdf.h"
#include "timeseries/arima.h"

namespace {

using namespace ddos;

const geo::GeoDatabase& Db() {
  static const geo::GeoDatabase db = geo::GeoDatabase::MakeDefault(42);
  return db;
}

// A small but structurally complete trace for analysis benchmarks.
const data::Dataset& PerfDataset() {
  static const data::Dataset ds = [] {
    sim::SimConfig config;
    config.scale = 0.05;
    config.days = 60;
    sim::TraceSimulator simulator(Db(), sim::DefaultProfiles(), config);
    return simulator.Generate();
  }();
  return ds;
}

std::vector<geo::Coordinate> RandomCloud(std::size_t n) {
  Rng rng(7);
  std::vector<geo::Coordinate> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(35.0, 65.0), rng.Uniform(10.0, 90.0)});
  }
  return pts;
}

void BM_Haversine(benchmark::State& state) {
  const auto pts = RandomCloud(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geo::HaversineKm(pts[i % 1024], pts[(i + 1) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_Haversine);

void BM_ComputeDispersion(benchmark::State& state) {
  const auto pts = RandomCloud(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::ComputeDispersion(pts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeDispersion)->Arg(32)->Arg(128)->Arg(512);

void BM_GeoLookup(benchmark::State& state) {
  Rng rng(5);
  std::vector<net::IPv4Address> ips;
  for (int i = 0; i < 1024; ++i) ips.push_back(Db().RandomAddress(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Db().Lookup(ips[i++ % 1024]));
  }
}
BENCHMARK(BM_GeoLookup);

// The compiled trie (geo/mmdb.h), built once from Db() and mapped back in.
// Its Lookup is bit-identical to the synthetic path, so the deltas below
// are pure representation cost: bit-walk + mapped record read vs the heap
// database's block resolution.
const geo::GeoMmdb& Mmdb() {
  static const geo::GeoMmdb db = [] {
    const std::string path =
        (std::filesystem::temp_directory_path() / "ddoscope_perf_micro.geo")
            .string();
    geo::CompileGeoDatabase(Db(), path);
    return geo::GeoMmdb::Open(path);
  }();
  return db;
}

std::vector<net::IPv4Address> AllocatedAddresses() {
  Rng rng(5);
  std::vector<net::IPv4Address> ips;
  for (int i = 0; i < 1024; ++i) ips.push_back(Db().RandomAddress(rng));
  return ips;
}

// Addresses whose /16 is unallocated, so every lookup takes the hash
// fallback (hoisted out of BlockForAddress's common case: in-space lookups
// never pay for it, and these measure what the miss path still costs).
std::vector<net::IPv4Address> OutOfSpaceAddresses() {
  Rng rng(13);
  std::vector<net::IPv4Address> ips;
  while (ips.size() < 1024) {
    const net::IPv4Address ip(static_cast<std::uint32_t>(rng.NextU64()));
    if (!Mmdb().IsAllocated(ip)) ips.push_back(ip);
  }
  return ips;
}

void BM_GeoMmdbLookup(benchmark::State& state) {
  const auto ips = AllocatedAddresses();
  const geo::GeoMmdb& db = Mmdb();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Lookup(ips[i++ % 1024]));
  }
}
BENCHMARK(BM_GeoMmdbLookup);

void BM_GeoLookupOutOfSpace(benchmark::State& state) {
  const auto ips = OutOfSpaceAddresses();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Db().Lookup(ips[i++ % 1024]));
  }
}
BENCHMARK(BM_GeoLookupOutOfSpace);

void BM_GeoMmdbLookupOutOfSpace(benchmark::State& state) {
  const auto ips = OutOfSpaceAddresses();
  const geo::GeoMmdb& db = Mmdb();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Lookup(ips[i++ % 1024]));
  }
}
BENCHMARK(BM_GeoMmdbLookupOutOfSpace);

// Memoized repeats (geo/lookup_cache.h): after the first pass over the
// working set every call is one hash probe. This is the recurrence shape of
// DispersionSeries/ShiftAnalysis, where a bot re-resolves in ~24 hourly
// snapshots; the delta against BM_GeoLookup is the per-recurrence saving.
void BM_GeoLookupMemoized(benchmark::State& state) {
  const auto ips = AllocatedAddresses();
  geo::GeoLookupCache cache(Db());
  std::size_t i = 0;
  for (auto _ : state) {
    const geo::GeoRecord* r = &cache.Lookup(ips[i++ % 1024]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GeoLookupMemoized);

void BM_IntervalScan(benchmark::State& state) {
  const auto& ds = PerfDataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AllAttackIntervals(ds));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.attacks().size()));
}
BENCHMARK(BM_IntervalScan);

void BM_EcdfBuildAndQuery(benchmark::State& state) {
  const auto intervals = core::AllAttackIntervals(PerfDataset());
  for (auto _ : state) {
    const stats::Ecdf ecdf(intervals);
    benchmark::DoNotOptimize(ecdf.Quantile(0.8));
    benchmark::DoNotOptimize(ecdf.FractionAtMost(60.0));
  }
}
BENCHMARK(BM_EcdfBuildAndQuery);

void BM_ArimaFit(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> series(static_cast<std::size_t>(state.range(0)));
  double x = 1000.0;
  for (auto& v : series) {
    x = 1000.0 + 0.8 * (x - 1000.0) + rng.Normal(0.0, 60.0);
    v = x;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ts::ArimaModel::Fit(series, ts::ArimaOrder{2, 0, 1}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ArimaFit)->Arg(512)->Arg(2048)->Arg(8192);

void BM_CollaborationDetect(benchmark::State& state) {
  const auto& ds = PerfDataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::DetectConcurrentCollaborations(ds));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.attacks().size()));
}
BENCHMARK(BM_CollaborationDetect);

void BM_ChainDetect(benchmark::State& state) {
  const auto& ds = PerfDataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::DetectConsecutiveChains(ds));
  }
}
BENCHMARK(BM_ChainDetect);

// The streaming reader's hot loop: one AttackRecord per Next() over an
// in-memory feed. This is the path the per-record allocation work targets
// (reused line/field scratch in AttackCsvReader, from_chars numeric
// parsing); records/s here is the ingest ceiling of `ddoscope watch`.
void BM_AttackCsvStreamRead(benchmark::State& state) {
  const auto& ds = PerfDataset();
  std::stringstream ss;
  data::WriteAttacksCsv(ss, ds.attacks());
  const std::string text = ss.str();
  for (auto _ : state) {
    std::istringstream in(text);
    data::AttackCsvReader reader(in);
    data::AttackRecord a;
    std::size_t n = 0;
    while (reader.Next(&a)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.attacks().size()));
}
BENCHMARK(BM_AttackCsvStreamRead);

// Attack rows of three shapes: unquoted (every row of the benchmark feed),
// a quoted field with no escapes (a view between the quotes), and a field
// with a doubled quote (the one shape the tokenizer unescapes).
const std::string& MicroRow(std::int64_t shape) {
  static const std::string rows[] = {
      "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,Kansas City,39.09,-94.57,"
      "US-ResidentialISP-266,1500",
      "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,\"Kansas City\",39.09,-94.57,"
      "US-ResidentialISP-266,1500",
      "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,\"Kansas \"\"KC\"\" City\",39.09,-94.57,"
      "US-ResidentialISP-266,1500",
  };
  return rows[shape];
}

void RowShapes(benchmark::internal::Benchmark* b) {
  b->ArgName("shape")->Arg(0)->Arg(1)->Arg(2);
}

// The copying splitter the small readers use, against the view tokenizer
// underneath it (and underneath the attack-row parse and pre-scan).
void BM_ParseCsvLineAlloc(benchmark::State& state) {
  const std::string& line = MicroRow(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::ParseCsvLine(line));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseCsvLineAlloc)->Apply(RowShapes);

void BM_CsvTokenizerSplit(benchmark::State& state) {
  const std::string& line = MicroRow(state.range(0));
  data::CsvTokenizer tokenizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Split(line).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsvTokenizerSplit)->Apply(RowShapes);

// The sharded router's per-line cost: the tokenizer plus validation of the
// routing fields only (ids, target ip, both timestamps). The gap between
// this and BM_TryParseAttackLine is the work PushLine moves off the serial
// router and into the worker shards.
void BM_AttackLinePreScan(benchmark::State& state) {
  const std::string& line = MicroRow(state.range(0));
  data::AttackLinePreScanner prescan;
  data::AttackLinePreScan scan;
  data::IngestError err;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prescan.Scan(line, &scan, &err));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttackLinePreScan)->Apply(RowShapes);

// The full 14-column parse a worker runs per span, into a reused record.
void BM_TryParseAttackLine(benchmark::State& state) {
  const std::string& line = MicroRow(state.range(0));
  data::AttackRecord record;
  data::IngestError err;
  if (!data::TryParseAttackLine(line, &record, &err)) {
    state.SkipWithError(err.detail.c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::TryParseAttackLine(line, &record, &err));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TryParseAttackLine)->Apply(RowShapes);

// Timestamp validation underneath both the pre-scan and the full parse -
// two calls per row on the ingest hot path.
void BM_TimePointTryParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TimePoint::TryParse("2012-06-01 10:20:30"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimePointTryParse);

// Same hot loop with a MetricsRegistry attached: the delta against
// BM_AttackCsvStreamRead is the per-record cost of the obs counters on the
// ingest path (the budget bench_ext_obs enforces end to end).
void BM_AttackCsvStreamReadInstrumented(benchmark::State& state) {
  const auto& ds = PerfDataset();
  std::stringstream ss;
  data::WriteAttacksCsv(ss, ds.attacks());
  const std::string text = ss.str();
  obs::MetricsRegistry registry;
  data::ParseOptions options;
  options.metrics = &registry;
  for (auto _ : state) {
    std::istringstream in(text);
    data::AttackCsvReader reader(in, options);
    data::AttackRecord a;
    std::size_t n = 0;
    while (reader.Next(&a)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.attacks().size()));
}
BENCHMARK(BM_AttackCsvStreamReadInstrumented);

// The primitive costs underneath every instrumented site: one striped
// relaxed add, one bounded-bucket observe, and a full span (two clock
// reads + a ring claim). These are the numbers the "cheap enough to leave
// on" claim in DESIGN.md rests on.
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("bm_total", "bench counter");
  for (auto _ : state) {
    c->Add();
  }
  benchmark::DoNotOptimize(c->Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd)->ThreadRange(1, 8);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram(
      "bm_seconds", "bench histogram", obs::ExponentialBounds(1e-6, 4.0, 12));
  double v = 1e-6;
  for (auto _ : state) {
    h->Observe(v);
    v = v < 1.0 ? v * 1.5 : 1e-6;  // walk the buckets, not just one cell
  }
  benchmark::DoNotOptimize(h->Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve)->ThreadRange(1, 8);

void BM_ObsSpanTimer(benchmark::State& state) {
  obs::TraceRecorder recorder(1 << 20);
  for (auto _ : state) {
    DDOS_TRACE_SPAN(&recorder, "bm_span", "bench");
  }
  benchmark::DoNotOptimize(recorder.recorded());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanTimer);

void BM_ObsSpanTimerDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    DDOS_TRACE_SPAN(nullptr, "bm_span", "bench");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanTimerDisarmed);

void BM_CsvRoundTrip(benchmark::State& state) {
  const auto& ds = PerfDataset();
  for (auto _ : state) {
    std::stringstream ss;
    data::WriteAttacksCsv(ss, ds.attacks());
    benchmark::DoNotOptimize(data::ReadAttacksCsv(ss));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.attacks().size()));
}
BENCHMARK(BM_CsvRoundTrip);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimConfig config;
    config.scale = 0.02;
    config.days = 30;
    sim::TraceSimulator simulator(Db(), sim::DefaultProfiles(), config);
    benchmark::DoNotOptimize(simulator.Generate());
  }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void BM_AsGraphPath(benchmark::State& state) {
  static const net::AsGraph graph = net::AsGraph::Build(Db(), 5);
  const auto nodes = graph.nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    const net::Asn from = nodes[(i * 131) % nodes.size()].asn;
    const net::Asn to = nodes[(i * 197 + 41) % nodes.size()].asn;
    benchmark::DoNotOptimize(graph.Path(from, to));
    ++i;
  }
}
BENCHMARK(BM_AsGraphPath);

void BM_KolmogorovSmirnov(benchmark::State& state) {
  Rng rng(21);
  std::vector<double> a(static_cast<std::size_t>(state.range(0)));
  std::vector<double> b(a.size());
  for (auto& v : a) v = rng.LogNormal(3.0, 1.0);
  for (auto& v : b) v = rng.LogNormal(3.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::KolmogorovSmirnov(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KolmogorovSmirnov)->Arg(1024)->Arg(16384);

void BM_Fingerprint(benchmark::State& state) {
  const auto& ds = PerfDataset();
  std::vector<std::size_t> indices(ds.attacks().size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FingerprintAttacks(ds, indices));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(indices.size()));
}
BENCHMARK(BM_Fingerprint);

void BM_AttackQuery(benchmark::State& state) {
  const auto& ds = PerfDataset();
  data::AttackQuery query;
  query.WithFamily(data::Family::kDirtjumper)
      .WithTargetCountry("US")
      .WithMinDuration(300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.Run(ds));
  }
}
BENCHMARK(BM_AttackQuery);

void BM_MitigationReplay(benchmark::State& state) {
  const auto& ds = PerfDataset();
  core::MitigationPolicy policy;
  policy.predictive = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimulateMitigation(ds, policy));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.attacks().size()));
}
BENCHMARK(BM_MitigationReplay);

}  // namespace

BENCHMARK_MAIN();
