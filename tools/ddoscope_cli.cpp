// ddoscope - command-line front end.
//
//   ddoscope generate [--scale S] [--days D] [--seed N] --out attacks.csv
//       Generate a synthetic trace and write the attack table.
//   ddoscope summary attacks.csv
//       Print the workload overview (Table III / Fig 1 style).
//   ddoscope query attacks.csv [--family F] [--country CC] [--protocol P]
//                  [--min-duration S] [--min-magnitude N] [--limit K]
//       Filter the attack table and print matching rows.
//   ddoscope report attacks.csv report.md
//       Write the full markdown characterization report.
//   ddoscope predict attacks.csv
//       Print the next-attack watch list (most-attacked targets first).
//   ddoscope collab attacks.csv
//       Detect concurrent collaborations and print the Table-VI view.
//   ddoscope convert ATTACKS.csv OUT.bin [--on-error abort|skip] [--block N]
//       Re-encode a CSV trace as the columnar binary record format
//       (data/binrecords.h): versioned, checksummed, and several times
//       faster to replay because rows are never re-parsed. Every reading
//       subcommand accepts the result via --input-format bin.
//   ddoscope watch ATTACKS.csv|- [--window H] [--every N] [--epsilon E]
//                  [--max-lateness S] [--on-error abort|skip|quarantine=F]
//                  [--checkpoint FILE] [--checkpoint-every N] [--resume]
//                  [--shards N] [--input-format csv|bin]
//                  [--stats-interval S] [--metrics-out FILE]
//                  [--trace-out FILE]
//       Tail the trace (or stdin, with `-`) through the streaming engine:
//       refresh a live summary every N records (0 = final only) with a
//       rolling H-hour rate window. Bounded memory regardless of trace
//       size. --on-error selects the fault policy for malformed rows
//       (default abort); skip and quarantine keep streaming and print a
//       per-kind error report on exit. --checkpoint persists engine state
//       every N records (atomic rename), and --resume continues a killed
//       run from that file, reaching the same final summary as an
//       uninterrupted run; on stdin (which cannot be re-read by line
//       offset) resume skips the replayed prefix by record count.
//       --shards N > 1 partitions ingest across N worker threads
//       (stream/sharded.h) with the same final summary up to documented
//       sketch error; checkpoints switch to the sharded format. With a
//       file feed the sharded path memory-maps the input and routes raw
//       line spans, parsing inside each shard (the router only byte-scans
//       the routing fields); checkpoints then record the byte offset so
//       resume seeks instead of re-reading. --input-format bin replays a
//       `ddoscope convert` file instead of CSV.
//       --stats-interval S prints a one-line pipeline-health ticker every
//       S seconds; --metrics-out F dumps every ddoscope_* metric at exit
//       as Prometheus text (plus F.json); --trace-out F writes a Chrome
//       trace_event JSON of the pipeline stages (chrome://tracing).
//   ddoscope metrics METRICS.prom
//       Pretty-print a --metrics-out dump as a terminal table.
//   ddoscope batch ATTACKS.csv [--jobs N] [--partitions P] [--epsilon E]
//                  [--input-format csv|bin]
//       Analyze an on-disk trace with P time partitions on N threads and
//       print the merged final summary (stream/parallel_batch.h).
//   ddoscope serve [--host H] [--port P] [--http-port P] [--shards N]
//                  [--tokens SPEC,...] [--token-file F] [--quota N]
//                  [--ack-every N] [--window H] [--epsilon E]
//                  [--checkpoint FILE] [--checkpoint-every N] [--resume]
//                  [--journal FILE] [--preload FILE]
//                  [--input-format csv|bin]
//       Run ddoscoped (netd/server.h): accept concurrent TCP record feeds
//       on --port (line protocol, netd/connection.h) into a sharded
//       streaming engine, and serve /metrics, /status and /healthz on
//       --http-port. Tokens are TOKEN[:NAME[:MAX_RECORDS]] specs; with
//       none configured auth is disabled and --quota bounds anonymous
//       feeds. SIGTERM/SIGINT drains gracefully: every client gets a final
//       `ACK <n> drain`, a checkpoint is written, and the final summary is
//       printed; --resume continues from that checkpoint. --journal
//       appends every accepted record (CSV, exact ingest order), so a
//       sequential replay of the journal reproduces the daemon's state.
//       --preload seeds the engine from an on-disk trace (CSV or, with
//       --input-format bin, a converted binary file) before serving.
//   ddoscope feed HOST:PORT ATTACKS.csv|- [--token T]
//                  [--input-format csv|bin]
//       Stream a trace into a running ddoscoped and report the server's
//       acknowledged record count. --input-format bin re-encodes a
//       converted binary trace back into protocol lines on the fly.
//   ddoscope geo compile OUT.geo [--seed N] [--blocks N] [--jitter D]
//                  [--extra-cities W]
//       Compile the synthetic geo database into the memory-mapped binary
//       format (geo/mmdb.h): versioned, checksummed, shareable read-only
//       across processes. The flags mirror GeoDbConfig; the defaults
//       reproduce the database every other subcommand builds in memory
//       (seed 42), so `--geo OUT.geo` below resolves identically.
//   ddoscope geo lookup DB.geo IP...
//       Resolve addresses against a compiled database and print the
//       record (country, city, ASN, organization, coordinates) plus
//       whether the address falls in allocated /16 space.
//
//   watch, batch and serve accept --geo DB.geo: every ingested record is
//   then geo-tagged on the hot path (stream/geo_enrich.h) and the summary,
//   /status and /metrics grow live top-country / top-ASN / per-botnet
//   dispersion views.
//
// The CSV schema is Table I of the paper (see data/csv.h), so externally
// collected traces work with every subcommand except `generate`.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "botsim/simulator.h"
#include "common/mmapio.h"
#include "common/strings.h"
#include "core/collaboration.h"
#include "core/defense.h"
#include "core/durations.h"
#include "core/intervals.h"
#include "core/overview.h"
#include "core/report.h"
#include "core/report_generator.h"
#include "data/binrecords.h"
#include "data/csv.h"
#include "data/ingest_error.h"
#include "data/linescan.h"
#include "data/query.h"
#include "geo/geo_db.h"
#include "geo/mmdb.h"
#include "net/ipv4.h"
#include "netd/auth.h"
#include "netd/client.h"
#include "netd/journal.h"
#include "netd/resilient_client.h"
#include "netd/server.h"
#include "netd/socket.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/parallel_batch.h"
#include "stream/sharded.h"

namespace {

using namespace ddos;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ddoscope generate [--scale S] [--days D] [--seed N] --out F\n"
               "  ddoscope summary ATTACKS.csv\n"
               "  ddoscope query ATTACKS.csv [--family F] [--country CC]\n"
               "                 [--protocol P] [--min-duration S]\n"
               "                 [--min-magnitude N] [--limit K]\n"
               "  ddoscope report ATTACKS.csv REPORT.md\n"
               "  ddoscope predict ATTACKS.csv\n"
               "  ddoscope collab ATTACKS.csv\n"
               "  ddoscope convert ATTACKS.csv OUT.bin\n"
               "                 [--on-error abort|skip] [--block N]\n"
               "  ddoscope watch ATTACKS.csv|- [--window H] [--every N]\n"
               "                 [--epsilon E] [--max-lateness S]\n"
               "                 [--on-error abort|skip|quarantine=FILE]\n"
               "                 [--checkpoint FILE] [--checkpoint-every N]\n"
               "                 [--resume] [--shards N]\n"
               "                 [--input-format csv|bin]\n"
               "                 [--stats-interval S] [--metrics-out FILE]\n"
               "                 [--trace-out FILE]\n"
               "  ddoscope metrics METRICS.prom\n"
               "  ddoscope batch ATTACKS.csv [--jobs N] [--partitions P]\n"
               "                 [--epsilon E] [--input-format csv|bin]\n"
               "  ddoscope serve [--host H] [--port P] [--http-port P]\n"
               "                 [--shards N] [--tokens SPEC,...]\n"
               "                 [--token-file F] [--quota N] [--ack-every N]\n"
               "                 [--window H] [--epsilon E]\n"
               "                 [--checkpoint FILE] [--checkpoint-every N]\n"
               "                 [--resume] [--journal FILE]\n"
               "                 [--preload FILE] [--input-format csv|bin]\n"
               "                 [--journal-fsync always|interval|off]\n"
               "                 [--journal-fsync-every N]\n"
               "                 [--watchdog-interval-ms MS]\n"
               "                 [--stuck-after-ms MS]\n"
               "                 [--http-header-timeout-ms MS]\n"
               "                 [--max-http-connections N]\n"
               "  ddoscope feed HOST:PORT ATTACKS.csv|- [--token T]\n"
               "                 [--client-id ID] [--retries N]\n"
               "                 [--input-format csv|bin]\n"
               "  ddoscope geo compile OUT.geo [--seed N] [--blocks N]\n"
               "                 [--jitter D] [--extra-cities W]\n"
               "  ddoscope geo lookup DB.geo IP...\n"
               "  (watch, batch and serve also accept --geo DB.geo)\n");
  return 2;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv, int first,
                                              std::vector<std::string>* positional) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      // Boolean flags take no value; anything else must not swallow a
      // following option as its value.
      const bool is_boolean = key == "resume";
      if (!is_boolean && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags[key] = argv[++i];
      } else {
        flags[key] = "";
      }
    } else {
      positional->push_back(arg);
    }
  }
  return flags;
}

data::Dataset LoadDataset(const std::string& path) {
  data::Dataset ds;
  for (data::AttackRecord& a : data::LoadAttacksCsv(path)) {
    ds.AddAttack(std::move(a));
  }
  ds.Finalize();
  return ds;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const auto out = flags.find("out");
  if (out == flags.end()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  sim::SimConfig config;
  if (const auto it = flags.find("scale"); it != flags.end()) {
    config.scale = ParseDouble(it->second).value_or(config.scale);
  }
  if (const auto it = flags.find("days"); it != flags.end()) {
    config.days = static_cast<int>(ParseInt64(it->second).value_or(config.days));
  }
  if (const auto it = flags.find("seed"); it != flags.end()) {
    config.seed = static_cast<std::uint64_t>(
        ParseInt64(it->second).value_or(static_cast<std::int64_t>(config.seed)));
  }
  const geo::GeoDatabase db = geo::GeoDatabase::MakeDefault(42);
  sim::TraceSimulator simulator(db, sim::DefaultProfiles(), config);
  const data::Dataset ds = simulator.Generate();
  data::SaveAttacksCsv(out->second, ds.attacks());
  std::printf("wrote %zu attacks to %s (scale=%.2f days=%d seed=%llu)\n",
              ds.attacks().size(), out->second.c_str(), config.scale, config.days,
              static_cast<unsigned long long>(config.seed));
  return 0;
}

int CmdSummary(const std::string& path) {
  const data::Dataset ds = LoadDataset(path);
  const geo::GeoDatabase db = geo::GeoDatabase::MakeDefault(42);
  const core::WorkloadSummary summary = core::SummarizeWorkload(ds, db);
  std::printf("%zu attacks, %llu botnets, %llu targets in %llu countries\n",
              ds.attacks().size(),
              static_cast<unsigned long long>(summary.botnet_ids),
              static_cast<unsigned long long>(summary.victims.ips),
              static_cast<unsigned long long>(summary.victims.countries));
  std::vector<std::pair<std::string, double>> bars;
  for (const core::ProtocolCount& pc : core::ProtocolBreakdown(ds.attacks())) {
    bars.emplace_back(std::string(data::ProtocolName(pc.protocol)),
                      static_cast<double>(pc.attacks));
  }
  std::printf("\n%s", core::RenderBars(bars).c_str());
  const core::DurationStats durations =
      core::ComputeDurationStats(core::AttackDurations(ds.attacks()));
  const core::IntervalStats intervals =
      core::ComputeIntervalStats(core::AllAttackIntervals(ds));
  std::printf("\nmedian duration %.0f s, p80 %.0f s; %.0f%% of attacks "
              "concurrent\n",
              durations.summary.median, durations.p80_seconds,
              intervals.fraction_concurrent * 100.0);
  return 0;
}

int CmdQuery(const std::string& path,
             const std::map<std::string, std::string>& flags) {
  const data::Dataset ds = LoadDataset(path);
  data::AttackQuery query;
  if (const auto it = flags.find("family"); it != flags.end()) {
    const auto family = data::ParseFamily(it->second);
    if (!family) {
      std::fprintf(stderr, "query: unknown family %s\n", it->second.c_str());
      return 2;
    }
    query.WithFamily(*family);
  }
  if (const auto it = flags.find("country"); it != flags.end()) {
    query.WithTargetCountry(it->second);
  }
  if (const auto it = flags.find("protocol"); it != flags.end()) {
    const auto protocol = data::ParseProtocol(it->second);
    if (!protocol) {
      std::fprintf(stderr, "query: unknown protocol %s\n", it->second.c_str());
      return 2;
    }
    query.WithProtocol(*protocol);
  }
  if (const auto it = flags.find("min-duration"); it != flags.end()) {
    query.WithMinDuration(ParseInt64(it->second).value_or(0));
  }
  if (const auto it = flags.find("min-magnitude"); it != flags.end()) {
    query.WithMinMagnitude(
        static_cast<std::uint32_t>(ParseInt64(it->second).value_or(0)));
  }
  std::size_t limit = 20;
  if (const auto it = flags.find("limit"); it != flags.end()) {
    limit = static_cast<std::size_t>(ParseInt64(it->second).value_or(20));
  }
  const auto indices = query.Run(ds);
  core::TextTable table(
      {"start", "family", "protocol", "target", "cc", "duration (s)", "bots"});
  for (std::size_t i = 0; i < std::min(indices.size(), limit); ++i) {
    const data::AttackRecord& a = ds.attacks()[indices[i]];
    table.AddRow({a.start_time.ToString(), std::string(data::FamilyName(a.family)),
                  std::string(data::ProtocolName(a.category)),
                  a.target_ip.ToString(), a.cc,
                  std::to_string(a.duration_seconds()),
                  std::to_string(a.magnitude)});
  }
  std::printf("%zu matches%s\n\n%s", indices.size(),
              indices.size() > limit ? " (showing first rows)" : "",
              table.Render().c_str());
  return 0;
}

int CmdReport(const std::string& in, const std::string& out) {
  const data::Dataset ds = LoadDataset(in);
  const geo::GeoDatabase db = geo::GeoDatabase::MakeDefault(42);
  core::ReportOptions options;
  options.title = "Characterization of " + in;
  core::WriteCharacterizationReport(out, ds, db, options);
  std::printf("report written to %s\n", out.c_str());
  return 0;
}

int CmdCollab(const std::string& path) {
  const data::Dataset ds = LoadDataset(path);
  const auto events = core::DetectConcurrentCollaborations(ds);
  const core::CollaborationTable table = core::TabulateCollaborations(events);
  core::TextTable out({"family", "intra-family", "inter-family"});
  for (const data::Family f : data::ActiveFamilies()) {
    const auto intra = table.intra[static_cast<std::size_t>(f)];
    const auto inter = table.inter[static_cast<std::size_t>(f)];
    if (intra == 0 && inter == 0) continue;
    out.AddRow({std::string(data::FamilyName(f)), std::to_string(intra),
                std::to_string(inter)});
  }
  std::printf("%zu collaboration events detected\n\n%s", events.size(),
              out.Render().c_str());
  const auto chains = core::DetectConsecutiveChains(ds);
  const core::ChainStats stats = core::SummarizeChains(ds, chains);
  std::printf("\n%zu multistage chains; longest %zu attacks (%s)\n",
              stats.chains, stats.longest_length,
              stats.chains > 0
                  ? std::string(data::FamilyName(stats.longest_family)).c_str()
                  : "-");
  return 0;
}

// Shared --input-format handling: "csv" (default), "bin", or an error
// message via the return value. `*binary` is set on success.
bool ParseInputFormat(const std::map<std::string, std::string>& flags,
                      const char* command, bool* binary) {
  *binary = false;
  const auto it = flags.find("input-format");
  if (it == flags.end() || it->second == "csv") return true;
  if (it->second == "bin") {
    *binary = true;
    return true;
  }
  std::fprintf(stderr, "%s: --input-format must be csv or bin (got '%s')\n",
               command, it->second.c_str());
  return false;
}

int CmdConvert(const std::string& in, const std::string& out,
               const std::map<std::string, std::string>& flags) {
  data::ParseOptions options = data::ParseOptions::Strict();
  if (const auto it = flags.find("on-error"); it != flags.end()) {
    if (it->second == "abort") {
      options = data::ParseOptions::Strict();
    } else if (it->second == "skip") {
      options = data::ParseOptions::Skip();
    } else {
      std::fprintf(stderr, "convert: --on-error must be abort or skip\n");
      return 2;
    }
  }
  data::BinaryWriteOptions write_opts;
  if (const auto it = flags.find("block"); it != flags.end()) {
    write_opts.block_records = static_cast<std::size_t>(
        std::max<std::int64_t>(1, ParseInt64(it->second).value_or(
                                      static_cast<std::int64_t>(
                                          write_opts.block_records))));
  }
  data::IngestErrorReport report;
  const std::uint64_t written =
      data::ConvertAttacksCsvToBinary(in, out, options, &report, write_opts);
  std::printf("converted %llu records: %s -> %s\n",
              static_cast<unsigned long long>(written), in.c_str(),
              out.c_str());
  if (report.total() > 0) {
    std::printf("%llu malformed rows skipped:\n%s",
                static_cast<unsigned long long>(report.total()),
                report.ToString().c_str());
  }
  return 0;
}

void PrintWatchSnapshot(const stream::StreamSnapshot& snap, bool final_view,
                        std::int64_t window_hours) {
  std::printf("---- %s @ %s ----\n", final_view ? "final summary" : "live",
              snap.last_start.ToString().c_str());
  std::printf(
      "%llu attacks | %llu in last %lld h | ~%.0f targets | ~%.0f botnets | "
      "%llu countries\n",
      static_cast<unsigned long long>(snap.attacks),
      static_cast<unsigned long long>(snap.attacks_in_window),
      static_cast<long long>(window_hours), snap.distinct_targets,
      snap.distinct_botnets, static_cast<unsigned long long>(snap.countries));

  std::vector<std::pair<std::string, double>> bars;
  for (const core::ProtocolCount& pc : snap.protocols) {
    bars.emplace_back(std::string(data::ProtocolName(pc.protocol)),
                      static_cast<double>(pc.attacks));
  }
  std::printf("%s", core::RenderBars(bars, 32).c_str());

  std::vector<std::pair<data::Family, std::uint64_t>> families;
  for (const data::Family f : data::AllFamilies()) {
    const std::uint64_t n = snap.family_attacks[static_cast<std::size_t>(f)];
    if (n > 0) families.emplace_back(f, n);
  }
  std::sort(families.begin(), families.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("families:");
  for (std::size_t i = 0; i < std::min<std::size_t>(families.size(), 5); ++i) {
    std::printf(" %s=%llu",
                std::string(data::FamilyName(families[i].first)).c_str(),
                static_cast<unsigned long long>(families[i].second));
  }
  std::printf("\n");

  std::printf(
      "interval: median %.0f s, p80 %.0f s, %.0f%% concurrent | "
      "duration: median %.0f s, p80 %.0f s\n",
      snap.intervals.summary.median, snap.intervals.p80_seconds,
      snap.intervals.fraction_concurrent * 100.0,
      snap.durations.summary.median, snap.durations.p80_seconds);
  std::printf("collab: %llu events (%llu intra / %llu inter), avg %.2f "
              "participants\n",
              static_cast<unsigned long long>(snap.collab.events),
              static_cast<unsigned long long>(snap.collab.intra_family_events),
              static_cast<unsigned long long>(snap.collab.inter_family_events),
              snap.collab.avg_participants());
  if (!snap.top_targets.empty()) {
    std::printf("hottest targets:");
    for (std::size_t i = 0; i < std::min<std::size_t>(snap.top_targets.size(), 5);
         ++i) {
      std::printf(" %s(%llu)", snap.top_targets[i].label.c_str(),
                  static_cast<unsigned long long>(snap.top_targets[i].count));
    }
    std::printf("\n");
  }
  if (snap.geo.has_value()) {
    const stream::GeoEnrichSnapshot& geo = *snap.geo;
    std::printf("geo: %llu tagged (%llu outside allocated space), "
                "%zu botnets tracked\n",
                static_cast<unsigned long long>(geo.enriched),
                static_cast<unsigned long long>(geo.out_of_space),
                geo.tracked_botnets);
    if (!geo.top_countries.empty()) {
      std::printf("geo countries:");
      for (std::size_t i = 0;
           i < std::min<std::size_t>(geo.top_countries.size(), 5); ++i) {
        std::printf(" %s(%llu)", geo.top_countries[i].label.c_str(),
                    static_cast<unsigned long long>(geo.top_countries[i].count));
      }
      std::printf(" | asns:");
      for (std::size_t i = 0; i < std::min<std::size_t>(geo.top_asns.size(), 3);
           ++i) {
        std::printf(" %s(%llu)", geo.top_asns[i].label.c_str(),
                    static_cast<unsigned long long>(geo.top_asns[i].count));
      }
      std::printf("\n");
    }
    if (!geo.top_dispersed.empty()) {
      std::printf("geo dispersion:");
      for (std::size_t i = 0;
           i < std::min<std::size_t>(geo.top_dispersed.size(), 3); ++i) {
        const stream::BotnetGeoStat& b = geo.top_dispersed[i];
        std::printf(" botnet%u=%.0fkm", b.botnet_id, b.mean_distance_km);
      }
      std::printf("\n");
    }
  }
  std::printf("engine state ~%zu KiB\n\n", snap.engine_memory_bytes / 1024);
}

// Shared --geo handling: opens the compiled database when the flag is
// present. Returns false (with a message) when the file cannot be opened or
// fails validation; *db stays empty when the flag is absent.
bool OpenGeoFlag(const std::map<std::string, std::string>& flags,
                 const char* command, std::unique_ptr<geo::GeoMmdb>* db) {
  const auto it = flags.find("geo");
  if (it == flags.end()) return true;
  if (it->second.empty()) {
    std::fprintf(stderr, "%s: --geo needs a compiled database file\n", command);
    return false;
  }
  try {
    *db = std::make_unique<geo::GeoMmdb>(geo::GeoMmdb::Open(it->second));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot open %s: %s\n", command,
                 it->second.c_str(), e.what());
    return false;
  }
  return true;
}

// The `watch` source. A CSV file read by more than one shard is
// memory-mapped and routed as raw line spans that the shards parse
// (stream/sharded.h); the mapping outlives the engine's barriers, so spans
// stay addressable while any worker can hold one. stdin, a single engine
// and --input-format bin read parsed records from AttackCsvReader or
// BinaryRecordReader instead. The ingest loop sees only Next, Resume, Meta
// and the error accessors.
class WatchFeed {
 public:
  WatchFeed(const std::string& path, bool binary, bool spans,
            const data::ParseOptions& options)
      : from_stdin_(path == "-") {
    if (spans) {
      map_ = io::MmapFile::Open(path);
      scanner_.emplace(map_.view());
    } else if (binary) {
      bin_ = from_stdin_ ? std::make_unique<data::BinaryRecordReader>(std::cin)
                         : std::make_unique<data::BinaryRecordReader>(path);
    } else {
      csv_ = from_stdin_
                 ? std::make_unique<data::AttackCsvReader>(std::cin, options)
                 : std::make_unique<data::AttackCsvReader>(path, options);
    }
  }

  bool spans() const { return scanner_.has_value(); }
  // A span feed's rows are parsed, counted and tallied inside this engine.
  void RouteSpansTo(stream::ShardedStreamEngine* engine) { spans_to_ = engine; }

  // Feeds the next row to `engine` (spans go to the RouteSpansTo engine,
  // the same one); false at the end of the feed.
  template <typename Engine>
  bool Next(Engine& engine) {
    if (spans_to_ != nullptr) {
      data::LineSpan span;
      do {
        if (!scanner_->Next(&span)) return false;
      } while (span.line_no == 1);  // header row
      spans_to_->PushLine(span.text, span.line_no, span.saw_newline);
      return true;
    }
    if (!(csv_ != nullptr ? csv_->Next(&record_) : bin_->Next(&record_))) {
      return false;
    }
    engine.Push(record_);
    return true;
  }

  // Skips the region a resumed checkpoint already consumed and seeds its
  // error tallies and seen ids, which the feed then reports and dedupes
  // against as its own. A span feed seeks to the byte offset. stdin has no
  // seekable line positions - the pipe replays the feed from its start - so
  // resume there counts records instead, and the replay rebuilds the seen
  // ids (seeding them too would reject every replayed row); binary input
  // counts records as well (whole skipped blocks are elided).
  void Resume(const stream::CheckpointMeta& meta) {
    if (spans_to_ != nullptr) {
      spans_to_->SeedErrors(meta.errors);
      spans_to_->SeedSeenIds(meta.seen_ids);
      scanner_->SeekTo(meta.source_offset, meta.source_line);
    } else if (bin_ != nullptr) {
      bin_->SkipRecords(meta.records);
      carried_errors_ = meta.errors;  // binary input rejects no rows itself
    } else {
      if (from_stdin_) {
        csv_->ResumeAtRecords(meta.records);
      } else {
        csv_->ResumeAt(meta.source_line, meta.records);
        csv_->SeedSeenIds(meta.seen_ids);
      }
      csv_->SeedErrors(meta.errors);
    }
  }

  // The feed position, tallies and seen ids to checkpoint. On a span feed
  // this takes a barrier, so they are exact at the scanner's line.
  stream::CheckpointMeta Meta() {
    stream::CheckpointMeta meta;
    if (spans_to_ != nullptr) {
      meta.records = spans_to_->ParsedRecords();
      meta.source_line = scanner_->line_number();
      meta.source_offset = scanner_->offset();
      meta.seen_ids = spans_to_->SeenIds();
    } else if (csv_ != nullptr) {
      meta.records = csv_->records_read();
      meta.source_line = csv_->line_number();
      meta.seen_ids = csv_->seen_ids();
    } else {
      meta.records = bin_->records_read();
    }
    meta.errors = Errors();
    return meta;
  }

  data::IngestErrorReport Errors() {
    if (spans_to_ != nullptr) return spans_to_->ErrorReport();
    return csv_ != nullptr ? csv_->error_report() : carried_errors_;
  }
  // The live ticker's count; lock-free on a span feed.
  std::uint64_t ErrorTotal() {
    return spans_to_ != nullptr ? spans_to_->ApproxErrorTotal()
                                : Errors().total();
  }

  // The record readers quarantine rows as they reject them. A span feed's
  // rejections, router- and worker-detected, come back from the shards
  // merged and sorted by line, so the file is byte-identical for any K.
  void Quarantine(data::QuarantineWriter* quarantine) {
    if (spans_to_ == nullptr) return;
    for (const data::IngestError& e : spans_to_->DrainErrors()) {
      quarantine->Write(e);
    }
  }

 private:
  bool from_stdin_;
  io::MmapFile map_;
  std::optional<data::LineSpanScanner> scanner_;
  stream::ShardedStreamEngine* spans_to_ = nullptr;
  std::unique_ptr<data::AttackCsvReader> csv_;
  std::unique_ptr<data::BinaryRecordReader> bin_;
  data::IngestErrorReport carried_errors_;
  data::AttackRecord record_;
};

int CmdWatch(const std::string& path,
             const std::map<std::string, std::string>& flags) {
  std::int64_t window_hours = 24;
  if (const auto it = flags.find("window"); it != flags.end()) {
    window_hours = ParseInt64(it->second).value_or(window_hours);
  }
  std::uint64_t every = 5000;
  if (const auto it = flags.find("every"); it != flags.end()) {
    every = static_cast<std::uint64_t>(
        ParseInt64(it->second).value_or(static_cast<std::int64_t>(every)));
  }
  stream::StreamEngineConfig config;
  config.rolling_window_s = window_hours * kSecondsPerHour;
  if (const auto it = flags.find("epsilon"); it != flags.end()) {
    config.quantile_epsilon =
        ParseDouble(it->second).value_or(config.quantile_epsilon);
  }
  if (const auto it = flags.find("max-lateness"); it != flags.end()) {
    config.sessionizer.max_lateness_s =
        ParseInt64(it->second).value_or(config.sessionizer.max_lateness_s);
  }

  // Error policy: abort (strict, the default), skip, or quarantine=FILE.
  data::ParseOptions parse_options;
  std::unique_ptr<data::QuarantineWriter> quarantine;
  std::string quarantine_path;
  if (const auto it = flags.find("on-error"); it != flags.end()) {
    const std::string& value = it->second;
    if (value == "abort") {
      parse_options = data::ParseOptions::Strict();
    } else if (value == "skip") {
      parse_options = data::ParseOptions::Skip();
    } else if (value.rfind("quarantine=", 0) == 0) {
      quarantine_path = value.substr(std::strlen("quarantine="));
      if (quarantine_path.empty()) {
        std::fprintf(stderr, "watch: --on-error quarantine needs a file\n");
        return 2;
      }
      quarantine = std::make_unique<data::QuarantineWriter>(quarantine_path);
      parse_options = data::ParseOptions::Quarantine(quarantine.get());
    } else {
      std::fprintf(stderr,
                   "watch: --on-error must be abort, skip or "
                   "quarantine=FILE (got '%s')\n",
                   value.c_str());
      return 2;
    }
  }

  std::string checkpoint_path;
  if (const auto it = flags.find("checkpoint"); it != flags.end()) {
    checkpoint_path = it->second;
  }
  std::uint64_t checkpoint_every = 100000;
  if (const auto it = flags.find("checkpoint-every"); it != flags.end()) {
    checkpoint_every = static_cast<std::uint64_t>(
        ParseInt64(it->second)
            .value_or(static_cast<std::int64_t>(checkpoint_every)));
  }
  const bool resume = flags.count("resume") > 0;
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "watch: --resume requires --checkpoint FILE\n");
    return 2;
  }
  std::size_t shards = 1;
  if (const auto it = flags.find("shards"); it != flags.end()) {
    shards = static_cast<std::size_t>(
        std::max<std::int64_t>(1, ParseInt64(it->second).value_or(1)));
  }
  bool binary_input = false;
  if (!ParseInputFormat(flags, "watch", &binary_input)) return 2;
  // Live geo enrichment (--geo): the mapping is opened once here and
  // shared read-only by however many shard engines the run spins up.
  std::unique_ptr<geo::GeoMmdb> geo_db;
  if (!OpenGeoFlag(flags, "watch", &geo_db)) return 2;
  // `-` tails stdin, the ROADMAP's tail -f / pipe source.
  const bool from_stdin = path == "-";

  // Observability: any of the three flags arms the registry; the reader and
  // engines then resolve their handles at attach time and the per-record
  // cost is one relaxed add per counter (obs/metrics.h). With none set the
  // handles stay null and the run is the uninstrumented fast path.
  double stats_interval = 0.0;
  if (const auto it = flags.find("stats-interval"); it != flags.end()) {
    stats_interval = ParseDouble(it->second).value_or(0.0);
  }
  std::string metrics_out;
  if (const auto it = flags.find("metrics-out"); it != flags.end()) {
    metrics_out = it->second;
  }
  std::string trace_out;
  if (const auto it = flags.find("trace-out"); it != flags.end()) {
    trace_out = it->second;
  }
  const bool obs_enabled =
      stats_interval > 0.0 || !metrics_out.empty() || !trace_out.empty();
  auto metrics_registry =
      obs_enabled ? std::make_unique<obs::MetricsRegistry>() : nullptr;
  auto trace = trace_out.empty() ? nullptr
                                 : std::make_unique<obs::TraceRecorder>();
  parse_options.metrics = metrics_registry.get();

  WatchFeed feed(path, binary_input,
                 /*spans=*/shards > 1 && !binary_input && !from_stdin,
                 parse_options);

  // The one restore step: ReadShardedCheckpoint reads every version, and
  // the requested contract (and window) come from the file, not the flags.
  std::optional<stream::ShardedCheckpointState> restored;
  if (resume) {
    restored = stream::ReadShardedCheckpoint(checkpoint_path);
    config = stream::RequestedEngineConfig(*restored);
    window_hours = config.rolling_window_s / kSecondsPerHour;
  }

  // Periodic one-line health ticker (--stats-interval). The clock is only
  // consulted every 256 records, so an idle-feed line can arrive up to one
  // record-batch late but the per-record cost is a mask test.
  using SteadyClock = std::chrono::steady_clock;
  const auto stats_period = std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(stats_interval > 0 ? stats_interval : 1));
  SteadyClock::time_point stats_last = SteadyClock::now();
  SteadyClock::time_point stats_next = stats_last + stats_period;
  const SteadyClock::time_point stats_epoch = stats_last;
  std::uint64_t stats_last_records = 0;
  // errors_total/memory_bytes are deferred so the per-record cost stays one
  // mask test.
  const auto maybe_print_stats = [&](std::uint64_t records,
                                     auto&& errors_total,
                                     auto&& memory_bytes) {
    if (stats_interval <= 0.0) return;
    if ((records & 0xFF) != 0) return;
    const SteadyClock::time_point now = SteadyClock::now();
    if (now < stats_next) return;
    const double dt = std::chrono::duration<double>(now - stats_last).count();
    const double rate =
        dt > 0 ? static_cast<double>(records - stats_last_records) / dt : 0.0;
    std::printf(
        "[stats] t=%.1fs records=%llu rate=%.0f/s errors=%llu mem=%zuKiB\n",
        std::chrono::duration<double>(now - stats_epoch).count(),
        static_cast<unsigned long long>(records), rate,
        static_cast<unsigned long long>(errors_total()),
        memory_bytes() / std::size_t{1024});
    std::fflush(stdout);
    stats_last = now;
    stats_last_records = records;
    stats_next = now + stats_period;
  };

  // Every summary print also refreshes the aggregate geo gauges (a no-op
  // without --geo or without an armed registry): snapshot cadence is the
  // documented publication cadence for the merged view.
  const auto show_snapshot = [&](const stream::StreamSnapshot& snap,
                                 bool final_view) {
    if (snap.geo.has_value()) {
      stream::PublishGeoGauges(metrics_registry.get(), *snap.geo);
    }
    PrintWatchSnapshot(snap, final_view, window_hours);
  };

  // The one ingest loop and end of run, for either engine. The ticker,
  // --every snapshots and --checkpoint-every checkpoints key on
  // attacks_seen(): records pushed on the record paths, lines routed past
  // the router's checks on the span path, where a blank or rejected line
  // leaves it unchanged and must not fire the same view twice.
  const auto run = [&](auto& engine, const auto& save_checkpoint) {
    if (restored.has_value()) {
      const stream::CheckpointMeta& meta = restored->meta;
      feed.Resume(meta);
      std::printf("resumed from %s: %llu records, source line %llu%s\n",
                  checkpoint_path.c_str(),
                  static_cast<unsigned long long>(meta.records),
                  static_cast<unsigned long long>(meta.source_line),
                  feed.spans()
                      ? StrFormat(" (offset %llu)",
                                  static_cast<unsigned long long>(
                                      meta.source_offset))
                            .c_str()
                      : "");
    }
    {
      DDOS_TRACE_SPAN(trace.get(), "ingest", "cli");
      std::uint64_t last_seen = engine.attacks_seen();
      while (feed.Next(engine)) {
        const std::uint64_t seen = engine.attacks_seen();
        maybe_print_stats(seen, [&] { return feed.ErrorTotal(); },
                          [&] { return engine.ApproxMemoryBytes(); });
        if (seen == last_seen) continue;
        last_seen = seen;
        if (every > 0 && seen % every == 0) {
          show_snapshot(engine.Snapshot(), false);
        }
        if (!checkpoint_path.empty() && checkpoint_every > 0 &&
            seen % checkpoint_every == 0) {
          save_checkpoint(feed.Meta());
        }
      }
    }
    // Final checkpoint before Finish(): Finish sweeps pending collaboration
    // groups, and a checkpoint taken afterwards could not regroup attacks
    // spanning the end of this feed on a later resume.
    if (!checkpoint_path.empty()) save_checkpoint(feed.Meta());
    engine.Finish();  // surfaces a pending kStrict worker rejection
    const data::IngestErrorReport report = feed.Errors();
    if (report.total() > 0) {
      std::printf("%llu malformed rows rejected:\n%s",
                  static_cast<unsigned long long>(report.total()),
                  report.ToString().c_str());
      if (quarantine != nullptr) {
        feed.Quarantine(quarantine.get());
        // Publish the staged .tmp at its final path before naming it; a
        // write/rename failure throws instead of leaving debris behind.
        quarantine->Close();
        std::printf("quarantined %zu rows to %s\n", quarantine->written(),
                    quarantine_path.c_str());
      }
    }
    if (engine.attacks_seen() == 0) {
      std::printf("no attacks in %s\n", from_stdin ? "stdin" : path.c_str());
    } else {
      show_snapshot(engine.Snapshot(), true);
    }
    // End-of-run exposition: the Prometheus/JSON dump and the Chrome trace.
    if (!metrics_out.empty()) {
      obs::WriteMetricsFiles(metrics_out, metrics_registry->Snapshot());
      std::printf("metrics written to %s (and %s.json)\n", metrics_out.c_str(),
                  metrics_out.c_str());
    }
    if (trace != nullptr) {
      trace->WriteChromeTrace(trace_out);
      std::printf("trace written to %s (%llu spans, %llu dropped)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(trace->recorded()),
                  static_cast<unsigned long long>(trace->dropped()));
    }
    return 0;
  };

  // K = 1 runs StreamEngine on the caller's thread: the threaded sharded
  // engine at K = 1 costs twice the CPU per record, and its merge into an
  // empty engine recompresses the quantile sketches. It writes version-5
  // (single-engine) checkpoints; a multi-section checkpoint folds into it.
  if (shards == 1) {
    stream::StreamEngine engine =
        restored.has_value()
            ? stream::MergeSections(std::move(restored->engines))
            : stream::StreamEngine(config);
    // A deserialized engine starts unattached, and enrichment is never
    // checkpointed, so both arm after the restore.
    if (geo_db != nullptr) engine.EnableGeo(geo_db.get());
    if (metrics_registry != nullptr) {
      engine.AttachMetrics(metrics_registry.get(), "0");
    }
    obs::Histogram* checkpoint_hist =
        metrics_registry == nullptr
            ? nullptr
            : metrics_registry->GetHistogram(
                  "ddoscope_stream_checkpoint_seconds",
                  "Latency of a single-engine checkpoint write",
                  obs::ExponentialBounds(1e-4, 4.0, 12));
    return run(engine, [&](const stream::CheckpointMeta& meta) {
      obs::SpanTimer span(trace.get(), checkpoint_hist, "checkpoint", "cli");
      stream::WriteCheckpoint(checkpoint_path, engine, meta);
    });
  }

  stream::ShardedStreamEngineConfig sharded_config;
  sharded_config.shards = shards;
  sharded_config.engine = config;
  sharded_config.metrics = metrics_registry.get();
  sharded_config.trace = trace.get();
  sharded_config.geo = geo_db.get();
  sharded_config.parse = parse_options;
  sharded_config.parse.quarantine = nullptr;  // WatchFeed::Quarantine
  stream::ShardedStreamEngine engine(sharded_config);
  if (restored.has_value()) engine.RestoreFrom(*restored);
  if (feed.spans()) feed.RouteSpansTo(&engine);
  return run(engine, [&](const stream::CheckpointMeta& meta) {
    engine.SaveCheckpoint(checkpoint_path, meta);  // version 6, timed inside
  });
}

int CmdBatch(const std::string& path,
             const std::map<std::string, std::string>& flags) {
  stream::ParallelBatchOptions options;
  if (const auto it = flags.find("jobs"); it != flags.end()) {
    options.threads = static_cast<std::size_t>(
        std::max<std::int64_t>(1, ParseInt64(it->second).value_or(1)));
  }
  if (const auto it = flags.find("partitions"); it != flags.end()) {
    options.partitions = static_cast<std::size_t>(
        std::max<std::int64_t>(1, ParseInt64(it->second).value_or(1)));
  }
  if (const auto it = flags.find("epsilon"); it != flags.end()) {
    options.engine.quantile_epsilon =
        ParseDouble(it->second).value_or(options.engine.quantile_epsilon);
  }
  bool binary_input = false;
  if (!ParseInputFormat(flags, "batch", &binary_input)) return 2;
  std::unique_ptr<geo::GeoMmdb> geo_db;
  if (!OpenGeoFlag(flags, "batch", &geo_db)) return 2;
  options.geo = geo_db.get();
  std::vector<data::AttackRecord> attacks;
  if (binary_input) {
    data::BinaryRecordReader reader(path);
    data::AttackRecord record;
    while (reader.Next(&record)) attacks.push_back(std::move(record));
  } else {
    attacks = data::LoadAttacksCsv(path);
  }
  if (attacks.empty()) {
    std::printf("no attacks in %s\n", path.c_str());
    return 0;
  }
  const stream::StreamEngine engine =
      stream::AnalyzeAttacksInParallel(attacks, options);
  const std::int64_t window_hours =
      options.engine.rolling_window_s / kSecondsPerHour;
  PrintWatchSnapshot(engine.Snapshot(), true, window_hours);
  return 0;
}

int CmdMetrics(const std::string& path) {
  const obs::MetricsSnapshot snapshot = obs::LoadPrometheusFile(path);
  std::printf("%s", obs::RenderMetricsTable(snapshot).c_str());
  return 0;
}

// The serving IngestServer, visible to the signal handler. Plain atomic
// pointer: the handler does one lock-free load and one async-signal-safe
// RequestDrainFromSignal call.
std::atomic<netd::IngestServer*> g_serve_server{nullptr};

void HandleServeSignal(int /*signum*/) {
  netd::IngestServer* server = g_serve_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrainFromSignal();
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  netd::NetdConfig config;
  config.ingest_port = 7460;
  config.http_port = 7461;
  if (const auto it = flags.find("host"); it != flags.end()) {
    config.host = it->second;
  }
  if (const auto it = flags.find("port"); it != flags.end()) {
    config.ingest_port = static_cast<std::uint16_t>(
        ParseInt64(it->second).value_or(config.ingest_port));
  }
  if (const auto it = flags.find("http-port"); it != flags.end()) {
    config.http_port = static_cast<std::uint16_t>(
        ParseInt64(it->second).value_or(config.http_port));
  }
  if (const auto it = flags.find("shards"); it != flags.end()) {
    config.shards = static_cast<std::size_t>(
        std::max<std::int64_t>(1, ParseInt64(it->second).value_or(1)));
  }
  if (const auto it = flags.find("window"); it != flags.end()) {
    config.engine.rolling_window_s =
        ParseInt64(it->second).value_or(24) * kSecondsPerHour;
  }
  if (const auto it = flags.find("epsilon"); it != flags.end()) {
    config.engine.quantile_epsilon =
        ParseDouble(it->second).value_or(config.engine.quantile_epsilon);
  }
  if (const auto it = flags.find("token-file"); it != flags.end()) {
    config.auth = netd::AuthTable::LoadFile(it->second);
  }
  if (const auto it = flags.find("tokens"); it != flags.end()) {
    for (const std::string& spec : Split(it->second, ',')) {
      if (!Trim(spec).empty()) {
        config.auth.Add(netd::AuthTable::ParseSpec(Trim(spec)));
      }
    }
  }
  if (const auto it = flags.find("quota"); it != flags.end()) {
    config.limits.default_max_records = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, ParseInt64(it->second).value_or(0)));
  }
  if (const auto it = flags.find("ack-every"); it != flags.end()) {
    config.limits.ack_every = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, ParseInt64(it->second).value_or(
                                      static_cast<std::int64_t>(
                                          config.limits.ack_every))));
  }
  if (const auto it = flags.find("checkpoint"); it != flags.end()) {
    config.checkpoint_path = it->second;
  }
  if (const auto it = flags.find("checkpoint-every"); it != flags.end()) {
    config.checkpoint_every = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, ParseInt64(it->second).value_or(0)));
  }
  config.resume = flags.count("resume") > 0;
  if (config.resume && config.checkpoint_path.empty()) {
    std::fprintf(stderr, "serve: --resume requires --checkpoint FILE\n");
    return 2;
  }
  if (const auto it = flags.find("journal"); it != flags.end()) {
    config.journal_path = it->second;
  }
  if (const auto it = flags.find("geo"); it != flags.end()) {
    if (it->second.empty()) {
      std::fprintf(stderr, "serve: --geo needs a compiled database file\n");
      return 2;
    }
    config.geo_path = it->second;  // Bind() maps and validates it
  }
  if (const auto it = flags.find("journal-fsync"); it != flags.end()) {
    const auto policy = netd::ParseFsyncPolicy(it->second);
    if (!policy.has_value()) {
      std::fprintf(stderr,
                   "serve: --journal-fsync must be always, interval, or off\n");
      return 2;
    }
    config.journal_fsync = *policy;
  }
  if (const auto it = flags.find("journal-fsync-every"); it != flags.end()) {
    config.journal_fsync_every = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, ParseInt64(it->second).value_or(
                                      static_cast<std::int64_t>(
                                          config.journal_fsync_every))));
  }
  if (const auto it = flags.find("watchdog-interval-ms"); it != flags.end()) {
    config.watchdog_interval_ms = static_cast<int>(
        std::max<std::int64_t>(0, ParseInt64(it->second).value_or(
                                      config.watchdog_interval_ms)));
  }
  if (const auto it = flags.find("stuck-after-ms"); it != flags.end()) {
    config.stuck_after_ms = static_cast<int>(
        std::max<std::int64_t>(0, ParseInt64(it->second).value_or(
                                      config.stuck_after_ms)));
  }
  if (const auto it = flags.find("http-header-timeout-ms");
      it != flags.end()) {
    config.http_header_timeout_ms = static_cast<int>(
        std::max<std::int64_t>(0, ParseInt64(it->second).value_or(
                                      config.http_header_timeout_ms)));
  }
  if (const auto it = flags.find("max-http-connections"); it != flags.end()) {
    config.max_http_connections = static_cast<std::size_t>(
        std::max<std::int64_t>(1, ParseInt64(it->second).value_or(
                                      static_cast<std::int64_t>(
                                          config.max_http_connections))));
  }

  std::string preload_path;
  if (const auto it = flags.find("preload"); it != flags.end()) {
    preload_path = it->second;
  }
  bool preload_binary = false;
  if (!ParseInputFormat(flags, "serve", &preload_binary)) return 2;

  const std::int64_t window_hours =
      config.engine.rolling_window_s / kSecondsPerHour;
  netd::IngestServer server(config);
  server.Bind();
  if (!preload_path.empty()) {
    const std::uint64_t preloaded =
        server.Preload(preload_path, preload_binary ? "bin" : "csv");
    std::printf("preloaded %llu records from %s\n",
                static_cast<unsigned long long>(preloaded),
                preload_path.c_str());
  }
  std::printf("ddoscoped listening: ingest %s:%u, http %s:%u "
              "(%zu shard%s, %zu token%s%s)\n",
              config.host.c_str(), server.ingest_port(), config.host.c_str(),
              server.http_port(), std::max<std::size_t>(1, config.shards),
              config.shards == 1 ? "" : "s", config.auth.size(),
              config.auth.size() == 1 ? "" : "s",
              config.auth.empty() ? "; auth disabled" : "");
  if (server.accepted_records() > 0) {
    std::printf("resumed from %s: %llu records\n",
                config.checkpoint_path.c_str(),
                static_cast<unsigned long long>(server.accepted_records()));
  }
  std::fflush(stdout);  // the CI smoke test tails this through a pipe

  g_serve_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  server.Run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_server.store(nullptr, std::memory_order_release);

  std::printf("drained: %llu records over %llu connections\n",
              static_cast<unsigned long long>(server.accepted_records()),
              static_cast<unsigned long long>(server.connections_seen()));
  const data::IngestErrorReport& errors = server.error_report();
  if (errors.total() > 0) {
    std::printf("%llu malformed rows rejected:\n%s",
                static_cast<unsigned long long>(errors.total()),
                errors.ToString().c_str());
  }
  const stream::StreamSnapshot snap = server.FinishAndSnapshot();
  if (snap.attacks > 0) PrintWatchSnapshot(snap, true, window_hours);
  return 0;
}

int CmdFeed(const std::string& hostport, const std::string& path,
            const std::map<std::string, std::string>& flags) {
  const std::size_t colon = hostport.rfind(':');
  const auto port = colon == std::string::npos
                        ? std::nullopt
                        : ParseInt64(hostport.substr(colon + 1));
  if (!port.has_value() || *port <= 0 || *port > 65535) {
    std::fprintf(stderr, "feed: first argument must be HOST:PORT\n");
    return 2;
  }
  netd::ResilientFeedOptions options;
  if (const auto it = flags.find("token"); it != flags.end()) {
    options.token = it->second;
  }
  if (const auto it = flags.find("client-id"); it != flags.end()) {
    options.client_id = it->second;
  }
  if (const auto it = flags.find("retries"); it != flags.end()) {
    options.max_attempts = static_cast<int>(
        std::max<std::int64_t>(1, ParseInt64(it->second).value_or(8)));
  }

  bool binary_input = false;
  if (!ParseInputFormat(flags, "feed", &binary_input)) return 2;
  const bool from_stdin = path == "-";
  std::ifstream file;
  if (!from_stdin) {
    file.open(path, binary_input ? std::ios::in | std::ios::binary
                                 : std::ios::in);
    if (!file) {
      std::fprintf(stderr, "feed: cannot open %s\n", path.c_str());
      return 2;
    }
  }
  std::istream& in = from_stdin ? std::cin : file;

  try {
    netd::ResilientFeedClient client(hostport.substr(0, colon),
                                     static_cast<std::uint16_t>(*port),
                                     options);
    std::uint64_t sent = 0;
    if (binary_input) {
      // Re-encode each binary record as one protocol line: the wire format
      // stays CSV, so the server needs no knowledge of the archive format.
      data::BinaryRecordReader reader(in);
      data::AttackRecord record;
      std::ostringstream row;
      while (reader.Next(&record)) {
        row.str("");
        data::WriteAttackCsvRow(row, record);
        std::string line = row.str();
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        client.SendLine(line);
        ++sent;
      }
    } else {
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        client.SendLine(line);
        ++sent;
      }
    }
    const std::uint64_t acked = client.Finish();
    std::printf("fed %llu lines, server acked %llu records\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(acked));
    if (client.reconnects() > 0) {
      std::printf("survived %llu reconnects, %llu records resent\n",
                  static_cast<unsigned long long>(client.reconnects()),
                  static_cast<unsigned long long>(client.records_resent()));
    }
    if (!client.last_error().empty()) {
      std::fprintf(stderr, "feed: server said: %s\n",
                   client.last_error().c_str());
      return 1;
    }
  } catch (const std::runtime_error& error) {
    // Retries exhausted or a fatal server verdict: say why and fail loud,
    // so supervisors and scripts can tell "fed" from "gave up".
    std::fprintf(stderr, "feed: %s\n", error.what());
    return 1;
  }
  return 0;
}

int CmdGeo(const std::vector<std::string>& positional,
           const std::map<std::string, std::string>& flags) {
  if (positional.size() >= 2 && positional[0] == "compile") {
    const std::string& out = positional[1];
    std::uint64_t seed = 42;  // the database every other subcommand builds
    if (const auto it = flags.find("seed"); it != flags.end()) {
      seed = static_cast<std::uint64_t>(
          ParseInt64(it->second).value_or(static_cast<std::int64_t>(seed)));
    }
    geo::GeoDbConfig config;
    if (const auto it = flags.find("blocks"); it != flags.end()) {
      config.total_blocks = static_cast<int>(std::max<std::int64_t>(
          1, ParseInt64(it->second).value_or(config.total_blocks)));
    }
    if (const auto it = flags.find("jitter"); it != flags.end()) {
      config.address_jitter_deg =
          ParseDouble(it->second).value_or(config.address_jitter_deg);
    }
    if (const auto it = flags.find("extra-cities"); it != flags.end()) {
      config.extra_cities_per_weight =
          ParseDouble(it->second).value_or(config.extra_cities_per_weight);
    }
    const geo::GeoDatabase db(geo::WorldCatalog::Builtin(), config, seed);
    geo::CompileGeoDatabase(db, out);
    const geo::GeoMmdb compiled = geo::GeoMmdb::Open(out);
    std::printf("compiled %s: %zu bytes, %u trie nodes, %u records, "
                "%u countries (seed=%llu)\n",
                out.c_str(), compiled.size_bytes(), compiled.node_count(),
                compiled.record_count(), compiled.country_count(),
                static_cast<unsigned long long>(seed));
    return 0;
  }
  if (positional.size() >= 2 && positional[0] == "lookup") {
    const geo::GeoMmdb db = geo::GeoMmdb::Open(positional[1]);
    if (positional.size() == 2) {
      std::fprintf(stderr, "geo lookup: no addresses given\n");
      return 2;
    }
    core::TextTable table({"address", "cc", "city", "asn", "organization",
                           "lat", "lon", "space"});
    for (std::size_t i = 2; i < positional.size(); ++i) {
      const auto addr = net::IPv4Address::Parse(positional[i]);
      if (!addr.has_value()) {
        std::fprintf(stderr, "geo lookup: bad address %s\n",
                     positional[i].c_str());
        return 2;
      }
      const geo::GeoRecord rec = db.Lookup(*addr);
      table.AddRow({addr->ToString(), std::string(rec.country_code),
                    std::string(rec.city), rec.asn.ToString(),
                    std::string(rec.organization),
                    StrFormat("%.4f", rec.location.lat_deg),
                    StrFormat("%.4f", rec.location.lon_deg),
                    db.IsAllocated(*addr) ? "allocated" : "fallback"});
    }
    std::printf("%s", table.Render().c_str());
    return 0;
  }
  std::fprintf(stderr,
               "usage: ddoscope geo compile OUT.geo [--seed N] [--blocks N]\n"
               "       ddoscope geo lookup DB.geo IP...\n");
  return 2;
}

int CmdPredict(const std::string& path) {
  const data::Dataset ds = LoadDataset(path);
  const auto watch = core::BuildWatchList(ds, 15, 4);
  if (watch.empty()) {
    std::printf("no target has enough history for a prediction\n");
    return 0;
  }
  core::TextTable table({"target", "attacks", "predicted next attack"});
  for (const core::WatchedTarget& w : watch) {
    table.AddRow({w.target.ToString(), std::to_string(w.attack_count),
                  w.predicted_next.ToString()});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A dropped client or downstream pipe must surface as EPIPE on the
  // affected descriptor, never kill a multi-day run.
  netd::IgnoreSigpipe();
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> positional;
  const auto flags = ParseFlags(argc, argv, 2, &positional);
  try {
    if (command == "generate") return CmdGenerate(flags);
    if (command == "summary" && positional.size() == 1) {
      return CmdSummary(positional[0]);
    }
    if (command == "query" && positional.size() == 1) {
      return CmdQuery(positional[0], flags);
    }
    if (command == "report" && positional.size() == 2) {
      return CmdReport(positional[0], positional[1]);
    }
    if (command == "predict" && positional.size() == 1) {
      return CmdPredict(positional[0]);
    }
    if (command == "collab" && positional.size() == 1) {
      return CmdCollab(positional[0]);
    }
    if (command == "convert" && positional.size() == 2) {
      return CmdConvert(positional[0], positional[1], flags);
    }
    if (command == "watch" && positional.size() == 1) {
      return CmdWatch(positional[0], flags);
    }
    if (command == "metrics" && positional.size() == 1) {
      return CmdMetrics(positional[0]);
    }
    if (command == "batch" && positional.size() == 1) {
      return CmdBatch(positional[0], flags);
    }
    if (command == "serve" && positional.empty()) {
      return CmdServe(flags);
    }
    if (command == "feed" && positional.size() == 2) {
      return CmdFeed(positional[0], positional[1], flags);
    }
    if (command == "geo") {
      return CmdGeo(positional, flags);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ddoscope %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return Usage();
}
