// Shared declarations of the ddoscope end-to-end benchmark (ddbench).
//
// The benchmark drives the layers only through their public functions:
// data (line scan, pre-scan, parse, DDBINREC), geo (DDGEOMDB), stream (the
// single and sharded engines), netd (the ingest daemon, its framer,
// protocol and journal) and obs (metrics registry, trace recorder), with
// inputs from botsim. Every timing is taken here, around those calls.
#ifndef DDOSCOPE_PERFBENCH_BENCH_H_
#define DDOSCOPE_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "stream/engine.h"

namespace ddos::perfbench {

// ---------------------------------------------------------------- util.cpp

double NowSeconds();          // steady clock
double ProcessCpuSeconds();   // getrusage(RUSAGE_SELF) user + sys
double ThreadCpuSeconds();    // CLOCK_THREAD_CPUTIME_ID of the caller
// Resets the kernel's peak-RSS mark to the current RSS (clear_refs 5);
// throws when the kernel refuses, since VmHWM would then be the peak of the
// whole process rather than of one pass.
void ResetPeakRss();
double PeakRssMiB();          // VmHWM
// CPU time the hypervisor gave to other guests, summed over all CPUs.
double StealSeconds();
std::string CpuModel();
// Records one span [start_s, end_s] (NowSeconds() stamps); no-op when
// `trace` is null.
void Span(obs::TraceRecorder* trace, const char* name, double start_s,
          double end_s);
unsigned HostCores();

double Median(std::vector<double> values);
// Python's statistics.quantiles(values, n=4) (exclusive method); a single
// value yields three copies of itself.
std::vector<double> Quartiles(std::vector<double> values);
// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> values, double p);

// ------------------------------------------------------------- stage.cpp

// The exact counters of a StreamSnapshot that the output check compares.
struct Digest {
  std::uint64_t attacks = 0;
  std::uint64_t countries = 0;
  std::vector<std::uint64_t> families;
  double fraction_concurrent = 0.0;
  double fraction_under_4h = 0.0;
  std::uint64_t collab_events = 0;
  std::uint64_t collab_intra = 0;
  bool has_geo = false;
  std::uint64_t geo_enriched = 0;
  std::uint64_t geo_out_of_space = 0;
  std::vector<std::pair<std::string, std::uint64_t>> top_countries;
};

Digest DigestOf(const stream::StreamSnapshot& snap);
// Empty when equal, else the first difference.
std::string CompareDigests(const Digest& want, const Digest& got);

// What `ddbench stage` leaves in its directory.
struct Staged {
  std::string dir;
  std::string csv_path;   // header + records, attack CSV
  std::string bin_path;   // the same records, DDBINREC
  std::string geo_path;   // DDGEOMDB of the database the trace was drawn from
  std::uint64_t seed = 0;
  std::uint64_t trace_records = 0;  // one botsim trace
  std::uint64_t replays = 0;
  std::uint64_t records = 0;        // trace_records * replays
  Digest reference;                 // single-thread engine over the CSV
  Digest reference_geo;             // single-thread engine + geo over DDBINREC
};

// Records the staged input is made of for a run of `seconds`.
std::uint64_t TargetRecords(double seconds);
void StageInputs(std::uint64_t seed, double seconds, const std::string& dir);
Staged LoadStaged(const std::string& dir);

// ---------------------------------------------------------- workloads.cpp

inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kBatchRows = 1024;

// One measured pass of a workload.
struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;        // program CPU over the measured region
  std::uint64_t offered = 0;
  std::uint64_t ingested = 0;
  std::uint64_t failed = 0;  // rejected, lost, unACKed, or all if unchecked
  double peak_rss_mib = 0.0;
  std::vector<double> batch_ms;   // per-batch ingest latency
  std::vector<double> status_ms;  // live status round trips
  Digest digest;                  // of the final snapshot
  std::string error;              // non-empty when the output check failed
  // Per-layer figures, keyed by metric name: gen.cpu_share on every daemon
  // pass, the rest on traced passes only.
  std::map<std::string, double> layer;
};

// The daemon generator's wire bytes, rendered before any clock starts.
struct RenderedFeed {
  std::string bytes;                  // rows, each batch closed by PING
  std::vector<std::size_t> batch_end; // end offset of each batch in bytes
  std::uint64_t rows = 0;
};
RenderedFeed RenderFeed(const std::string& csv_path, std::uint64_t max_rows,
                        std::size_t batch_rows);

struct RunContext {
  const Staged* staged = nullptr;
  const RenderedFeed* feed = nullptr;     // daemon_feed: the whole feed
  std::string work_dir;                   // scratch files of this run
  obs::TraceRecorder* trace = nullptr;    // set: a traced pass
};

// Set-up only (no records), torn down again; returns its seconds.
double SetupOnly(const std::string& workload, const RunContext& ctx);
PassResult RunPass(const std::string& workload, const RunContext& ctx);

// Daemon pass over pre-rendered batches (also the netd probe of the
// replay workloads). `check` compares the result with the references.
PassResult DaemonPass(const RenderedFeed& feed, const RunContext& ctx,
                      bool check);
// Replays the last daemon pass's journal sequentially into a StreamEngine;
// empty when its snapshot equals `daemon`, else the difference. Run once per
// run, after the passes: reading a whole journal back fragments the heap,
// which would inflate the next pass's peak RSS.
std::string CheckJournal(const RunContext& ctx, const Digest& daemon);

// ------------------------------------------------------------ probes.cpp

// Stage-alone costs over a sample of the staged input, each layer call
// timed on its own. Keys are per-layer metric names.
std::map<std::string, double> RunProbes(const std::string& workload,
                                        const RunContext& ctx);

}  // namespace ddos::perfbench

#endif  // DDOSCOPE_PERFBENCH_BENCH_H_
