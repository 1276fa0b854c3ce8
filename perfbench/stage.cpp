// Input staging: one botsim trace, replayed into a feed of about the run's
// length, written as CSV, DDBINREC and DDGEOMDB, together with the
// single-thread reference digests every run is checked against.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "botsim/family_profile.h"
#include "botsim/simulator.h"
#include "data/binrecords.h"
#include "data/csv.h"
#include "geo/geo_db.h"
#include "geo/mmdb.h"
#include "stream/engine.h"

namespace ddos::perfbench {

namespace fs = std::filesystem;

namespace {

// Staged records per second of run: about a quarter of what daemon_feed,
// the slowest workload, ingests in a second. Even the daemon then makes
// four passes in a run and the replays a dozen or more, and each run
// reports the median of its passes (this host's per-pass noise is ~10%).
constexpr double kRecordsPerRunSecond = 27500.0;

void WriteDigest(std::ostream& out, const std::string& prefix, const Digest& d) {
  char buf[64];
  out << prefix << "attacks " << d.attacks << '\n';
  out << prefix << "countries " << d.countries << '\n';
  out << prefix << "families";
  for (const auto f : d.families) out << ' ' << f;
  out << '\n';
  std::snprintf(buf, sizeof buf, "%.17g", d.fraction_concurrent);
  out << prefix << "fraction_concurrent " << buf << '\n';
  std::snprintf(buf, sizeof buf, "%.17g", d.fraction_under_4h);
  out << prefix << "fraction_under_4h " << buf << '\n';
  out << prefix << "collab " << d.collab_events << ' ' << d.collab_intra << '\n';
  out << prefix << "geo " << (d.has_geo ? 1 : 0) << ' ' << d.geo_enriched << ' '
      << d.geo_out_of_space << '\n';
  out << prefix << "top_countries";
  for (const auto& [label, count] : d.top_countries) {
    out << ' ' << label << ':' << count;
  }
  out << '\n';
}

Digest ReadDigest(const std::map<std::string, std::string>& kv,
                  const std::string& prefix) {
  const auto field = [&](const std::string& key) {
    const auto it = kv.find(prefix + key);
    if (it == kv.end()) {
      throw std::runtime_error("stage: reference lacks " + prefix + key);
    }
    return std::istringstream(it->second);
  };
  Digest d;
  field("attacks") >> d.attacks;
  field("countries") >> d.countries;
  {
    auto in = field("families");
    std::uint64_t v = 0;
    while (in >> v) d.families.push_back(v);
  }
  {
    std::string text;
    field("fraction_concurrent") >> text;
    d.fraction_concurrent = std::stod(text);
    field("fraction_under_4h") >> text;
    d.fraction_under_4h = std::stod(text);
  }
  field("collab") >> d.collab_events >> d.collab_intra;
  {
    int has = 0;
    field("geo") >> has >> d.geo_enriched >> d.geo_out_of_space;
    d.has_geo = has != 0;
  }
  {
    auto in = field("top_countries");
    std::string item;
    while (in >> item) {
      const std::size_t colon = item.rfind(':');
      d.top_countries.emplace_back(item.substr(0, colon),
                                   std::stoull(item.substr(colon + 1)));
    }
  }
  return d;
}

}  // namespace

Digest DigestOf(const stream::StreamSnapshot& snap) {
  Digest d;
  d.attacks = snap.attacks;
  d.countries = snap.countries;
  d.families.assign(snap.family_attacks.begin(), snap.family_attacks.end());
  d.fraction_concurrent = snap.intervals.fraction_concurrent;
  d.fraction_under_4h = snap.durations.fraction_under_4h;
  d.collab_events = snap.collab.events;
  d.collab_intra = snap.collab.intra_family_events;
  if (snap.geo.has_value()) {
    d.has_geo = true;
    d.geo_enriched = snap.geo->enriched;
    d.geo_out_of_space = snap.geo->out_of_space;
    for (const auto& e : snap.geo->top_countries) {
      d.top_countries.emplace_back(e.label, e.count);
    }
  }
  return d;
}

std::string CompareDigests(const Digest& want, const Digest& got) {
  const auto diff = [](const char* what, auto a, auto b) {
    std::ostringstream out;
    out << what << ": want " << a << ", got " << b;
    return out.str();
  };
  if (want.attacks != got.attacks) return diff("attacks", want.attacks, got.attacks);
  if (want.countries != got.countries) {
    return diff("countries", want.countries, got.countries);
  }
  for (std::size_t i = 0; i < want.families.size(); ++i) {
    const std::uint64_t g = i < got.families.size() ? got.families[i] : 0;
    if (want.families[i] != g) return diff("family tally", want.families[i], g);
  }
  if (want.fraction_concurrent != got.fraction_concurrent) {
    return diff("concurrent fraction", want.fraction_concurrent,
                got.fraction_concurrent);
  }
  if (want.fraction_under_4h != got.fraction_under_4h) {
    return diff("under-4h fraction", want.fraction_under_4h, got.fraction_under_4h);
  }
  if (want.collab_events != got.collab_events ||
      want.collab_intra != got.collab_intra) {
    return diff("collab events", want.collab_events, got.collab_events);
  }
  if (want.has_geo != got.has_geo) return diff("geo view", want.has_geo, got.has_geo);
  if (!want.has_geo) return "";
  if (want.geo_enriched != got.geo_enriched ||
      want.geo_out_of_space != got.geo_out_of_space) {
    return diff("geo enriched", want.geo_enriched, got.geo_enriched);
  }
  // Top countries: equal counts rank by rank; labels must agree except
  // among entries tied with the last one shown, whose order is arbitrary.
  if (want.top_countries.size() != got.top_countries.size()) {
    return diff("top countries", want.top_countries.size(),
                got.top_countries.size());
  }
  const std::uint64_t floor =
      want.top_countries.empty() ? 0 : want.top_countries.back().second;
  for (std::size_t i = 0; i < want.top_countries.size(); ++i) {
    const auto& w = want.top_countries[i];
    const auto& g = got.top_countries[i];
    if (w.second != g.second || (w.second > floor && w.first != g.first)) {
      return diff("top country", w.first + ":" + std::to_string(w.second),
                  g.first + ":" + std::to_string(g.second));
    }
  }
  return "";
}

std::uint64_t TargetRecords(double seconds) {
  return static_cast<std::uint64_t>(
      std::llround(std::max(1.0, seconds) * kRecordsPerRunSecond));
}

void StageInputs(std::uint64_t seed, double seconds, const std::string& dir) {
  const fs::path tmp = dir + ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  double t = NowSeconds();
  const auto phase = [&t](const char* what) {
    const double now = NowSeconds();
    std::printf("stage: %-28s %6.2f s\n", what, now - t);
    t = now;
  };

  const geo::GeoDatabase db = geo::GeoDatabase::MakeDefault(seed);
  sim::SimConfig config;
  config.seed = seed;
  sim::TraceSimulator simulator(db, sim::DefaultProfiles(), config);
  const data::Dataset trace = simulator.Generate();
  const auto attacks = trace.attacks();
  if (attacks.empty()) throw std::runtime_error("stage: empty botsim trace");
  phase("botsim trace");

  // Replays shift time by the trace span and ddos_id by the largest id, so
  // the feed stays chronological and every id stays unique.
  const std::uint64_t replays =
      (TargetRecords(seconds) + attacks.size() - 1) / attacks.size();
  const std::int64_t span =
      trace.window_end() - trace.window_begin() + kSecondsPerDay;
  std::uint64_t id_stride = 0;
  for (const auto& a : attacks) id_stride = std::max(id_stride, a.ddos_id);
  ++id_stride;

  const auto for_each_record = [&](const auto& visit) {
    for (std::uint64_t pass = 0; pass < replays; ++pass) {
      for (data::AttackRecord a : attacks) {
        a.ddos_id += pass * id_stride;
        a.start_time += static_cast<std::int64_t>(pass) * span;
        a.end_time += static_cast<std::int64_t>(pass) * span;
        visit(a);
      }
    }
  };
  const std::string geo_path = (tmp / "geo.ddgeomdb").string();
  geo::CompileGeoDatabase(db, geo_path);
  const geo::GeoMmdb mmdb = geo::GeoMmdb::Open(geo_path);

  // Three independent writers over the same records: the CSV file, the
  // DDBINREC file with the plain reference engine, and the geo reference.
  // The references are single-thread engines fed the records themselves,
  // so a decoder that drops or alters a field shows as a mismatch.
  stream::StreamEngine reference;
  stream::StreamEngine reference_geo;
  reference_geo.EnableGeo(&mmdb);
  std::vector<std::string> errors(3);
  const auto guarded = [&errors](std::size_t slot, const auto& body) {
    return [&errors, slot, body] {
      try {
        body();
      } catch (const std::exception& e) {
        errors[slot] = e.what();
      }
    };
  };
  std::vector<std::thread> writers;
  writers.emplace_back(guarded(0, [&] {
    const std::string path = (tmp / "feed.csv").string();
    std::ofstream out(path, std::ios::binary);
    out << data::AttackCsvHeader() << '\n';
    for_each_record([&](const data::AttackRecord& a) { data::WriteAttackCsvRow(out, a); });
    out.flush();
    if (!out) throw std::runtime_error("stage: cannot write " + path);
  }));
  writers.emplace_back(guarded(1, [&] {
    data::BinaryRecordWriter writer((tmp / "feed.bin").string());
    for_each_record([&](const data::AttackRecord& a) {
      writer.Write(a);
      reference.Push(a);
    });
    writer.Close();
    reference.Finish();
  }));
  writers.emplace_back(guarded(2, [&] {
    for_each_record([&](const data::AttackRecord& a) { reference_geo.Push(a); });
    reference_geo.Finish();
  }));
  for (auto& w : writers) w.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  // Flush the staged files now, so their writeback does not run beside
  // the first measured passes.
  for (const auto& entry : fs::directory_iterator(tmp)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      throw std::runtime_error("stage: cannot flush " + entry.path().string());
    }
    ::close(fd);
  }
  phase("feed files + references");
  {
    std::ofstream out(tmp / "reference.txt");
    out << "seed " << seed << '\n';
    out << "trace_records " << attacks.size() << '\n';
    out << "replays " << replays << '\n';
    out << "records " << attacks.size() * replays << '\n';
    WriteDigest(out, "", DigestOf(reference.Snapshot()));
    WriteDigest(out, "geo.", DigestOf(reference_geo.Snapshot()));
    out.flush();
    if (!out) throw std::runtime_error("stage: cannot write reference");
  }
  fs::remove_all(dir);
  fs::rename(tmp, dir);
}

Staged LoadStaged(const std::string& dir) {
  std::ifstream in(fs::path(dir) / "reference.txt");
  if (!in) throw std::runtime_error("stage: no reference in " + dir);
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t sp = line.find(' ');
    kv[line.substr(0, sp)] = sp == std::string::npos ? "" : line.substr(sp + 1);
  }
  Staged s;
  s.dir = dir;
  s.csv_path = (fs::path(dir) / "feed.csv").string();
  s.bin_path = (fs::path(dir) / "feed.bin").string();
  s.geo_path = (fs::path(dir) / "geo.ddgeomdb").string();
  s.seed = std::stoull(kv.at("seed"));
  s.trace_records = std::stoull(kv.at("trace_records"));
  s.replays = std::stoull(kv.at("replays"));
  s.records = std::stoull(kv.at("records"));
  s.reference = ReadDigest(kv, "");
  s.reference_geo = ReadDigest(kv, "geo.");
  return s;
}

}  // namespace ddos::perfbench
