// ddoscoped: the multi-client TCP ingest daemon.
//
// The paper's dataset is a continuously collected, multi-source attack
// feed; IngestServer gives the reproduction that operational shape. One
// poll()-driven, non-blocking event loop owns two listeners:
//
//  * an ingest port speaking the line protocol of netd/connection.h, where
//    many concurrent clients stream Table-I attack rows into one
//    ShardedStreamEngine (the loop thread is the engine's single router,
//    so the sharded engine's SPSC contract holds by construction);
//  * an HTTP port answering GET /metrics (Prometheus text exposition of
//    the full ddoscope_* registry via obs/export.h), GET /status (a JSON
//    engine snapshot: tallies, shard queue depths, connected clients), and
//    GET /healthz.
//
// Backpressure has two independent guards. Inbound, the engine itself is
// the throttle: Push blocks in bounded backoff when shard rings fill, which
// stops the loop from reading more socket bytes - TCP flow control then
// pushes back on every producer. Outbound, a slow client that stops
// reading its ACKs accrues pending reply bytes; past max_output_buffer the
// connection is closed (reason "slow-client") rather than buffering
// without bound.
//
// Lifecycle: Bind() resolves the listeners (port 0 = ephemeral, for tests)
// and, under resume, restores the engine from the checkpoint; Run() blocks
// in the event loop until a drain completes. RequestDrain() - thread-safe,
// with an async-signal-safe variant for SIGTERM/SIGINT handlers - stops
// accepting, final-ACKs every client (`ACK <n> drain`, the client's durable
// high-water mark; rows after it are the unacked tail to replay after
// restart), flushes, writes a final checkpoint (stream/checkpoint.h
// sharded format, atomic rename), and returns from Run(). The
// checkpoint precedes StreamEngine::Finish for the same reason the watch
// CLI's does: Finish sweeps pending collaboration state that a later
// resume must still be able to stitch.
#ifndef DDOSCOPE_NETD_SERVER_H_
#define DDOSCOPE_NETD_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/ingest_error.h"
#include "geo/mmdb.h"
#include "netd/auth.h"
#include "netd/connection.h"
#include "netd/framer.h"
#include "netd/journal.h"
#include "netd/socket.h"
#include "obs/metrics.h"
#include "stream/engine.h"
#include "stream/sharded.h"

namespace ddos::netd {

struct NetdConfig {
  std::string host = "127.0.0.1";
  std::uint16_t ingest_port = 0;  // 0 = ephemeral (tests/benches)
  std::uint16_t http_port = 0;

  AuthTable auth;       // empty = authentication disabled
  IngestLimits limits;  // ack cadence, anonymous quota, dedupe

  std::size_t shards = 1;  // worker engines behind the router loop
  stream::StreamEngineConfig engine;

  // Compiled geo database (geo/mmdb.h) for live hot-path enrichment. When
  // set, Bind() maps the file once and every shard tags records through
  // the shared mapping; /status grows a "geo" section and /metrics the
  // ddoscope_geo_* series. Enrichment is a live view - it is never
  // checkpointed, and a resumed daemon restarts its geo tallies.
  std::string geo_path;
  stream::GeoEnrichConfig geo_enrich;

  std::size_t max_line_bytes = 1 << 20;        // per-row cap (framer)
  std::size_t max_output_buffer = 256 << 10;   // slow-client write budget
  std::size_t max_connections = 256;           // concurrent ingest+http fds

  // Persistence. checkpoint_every counts accepted records between periodic
  // checkpoints (0 = final drain checkpoint only); resume restores from
  // checkpoint_path when the file exists (a missing file starts fresh, so
  // a supervisor can always pass --resume). journal_path, when set,
  // receives every accepted row, as received, in exact ingest order -
  // the daemon's archival feed, and the reference a sequential replay must
  // match bit-for-bit.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  bool resume = false;
  std::string journal_path;

  // Journal durability (netd/journal.h documents the loss windows).
  FsyncPolicy journal_fsync = FsyncPolicy::kInterval;
  std::uint64_t journal_fsync_every = 4096;

  // Watchdog: every watchdog_interval_ms the loop compares per-shard
  // progress; a shard with queued work and no progress for stuck_after_ms
  // is reported stuck (gauge + degraded /healthz). 0 disables.
  int watchdog_interval_ms = 1000;
  int stuck_after_ms = 5000;

  // Slow-loris guard: an HTTP connection that has not completed its
  // request head within this deadline gets `408` and the door. The http
  // connection count is additionally capped (excess accepts are shed)
  // so probes cannot crowd out ingest fds.
  int http_header_timeout_ms = 5000;
  std::size_t max_http_connections = 32;
};

class IngestServer {
 public:
  explicit IngestServer(NetdConfig config);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  // Binds listeners, opens the journal, restores a resumed engine. Throws
  // std::runtime_error on failure. Call once, before Run().
  void Bind();

  std::uint16_t ingest_port() const { return ingest_port_; }
  std::uint16_t http_port() const { return http_port_; }

  // Seeds the engine from an on-disk feed before serving: "csv" reads an
  // attack table (malformed rows skipped and tallied in error_report()),
  // "bin" a `ddoscope convert` binary file (data/binrecords.h; corruption
  // throws - startup must fail loudly, not serve half a preload). Records
  // flow through the same parsed-record Push path as client rows but are
  // neither journaled nor counted as accepted, so checkpoint meta.records
  // keeps its journal-coverage meaning. Call between Bind() and Run();
  // returns the number of records pushed.
  std::uint64_t Preload(const std::string& path, const std::string& format);
  std::uint64_t preloaded_records() const { return preloaded_records_; }

  // The blocking event loop; returns once a requested drain has completed
  // (all clients final-ACKed and closed, final checkpoint written).
  void Run();

  // Graceful-drain triggers. RequestDrain is safe from any thread;
  // RequestDrainFromSignal is additionally async-signal-safe (one atomic
  // store and one write(2) on the wake pipe).
  void RequestDrain();
  void RequestDrainFromSignal() noexcept;

  // Crash simulation (thread-safe): Run() returns at the top of the next
  // tick with NO drain, NO final ACKs, NO checkpoint, and NO journal sync
  // - the in-process equivalent of kill -9. Everything the recovery path
  // guarantees must hold from the journal alone after this.
  void RequestHardStop() noexcept;

  // Post-Run() accessors.
  std::uint64_t accepted_records() const { return total_accepted_; }
  const data::IngestErrorReport& error_report() const { return errors_; }
  std::uint64_t connections_seen() const { return connections_seen_; }
  // Folds the shards (ShardedStreamEngine::Finish, first call only) and
  // snapshots the final engine state. Only valid after Run() returned.
  stream::StreamSnapshot FinishAndSnapshot();

  // The daemon's metric registry (always armed; /metrics serves it).
  obs::MetricsRegistry& metrics() { return registry_; }

  // Journal-replayed records during a resumed Bind() (0 on fresh starts).
  std::uint64_t replayed_records() const { return replayed_records_; }

  // The underlying engine; valid after Bind(). Exposed for chaos tests
  // (ChaosStallShard); production callers have no business here.
  stream::ShardedStreamEngine& engine() { return *engine_; }

 private:
  struct Conn;

  void AcceptPending(int listener_fd, bool http);
  void HandleIngestRead(Conn& conn);
  void HandleHttpRead(Conn& conn);
  void ProcessFrames(Conn& conn);
  // Write-ahead commit of a tick's accepted records: journal append of
  // their rows as received (all or nothing), then engine pushes, then the
  // session table - all before the protocol output flushes, so no ACK ever
  // outruns the journal.
  void CommitPending(Conn& conn);
  void FlushOutput(Conn& conn);
  void SyncRejectCounters(Conn& conn);
  void CloseConn(Conn& conn, CloseReason reason);
  void BeginDrain();
  bool DrainComplete() const;
  void MirrorJournalFsyncFailures();
  void RunWatchdog(std::chrono::steady_clock::time_point now);
  void ScanHttpDeadlines(std::chrono::steady_clock::time_point now);
  std::size_t CountHttpConns() const;
  void WriteCheckpoint();
  void MaybePeriodicCheckpoint();
  data::IngestErrorReport AggregateErrors() const;
  std::string BuildStatusJson();
  std::string RouteHttp(const std::string& head);
  void ResolveMetricHandles();

  NetdConfig config_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<geo::GeoMmdb> geo_;  // mapped once, shared by all shards
  std::unique_ptr<stream::ShardedStreamEngine> engine_;

  FdHandle ingest_listener_;
  FdHandle http_listener_;
  std::uint16_t ingest_port_ = 0;
  std::uint16_t http_port_ = 0;
  FdHandle wake_rd_, wake_wr_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::unique_ptr<Journal> journal_;
  std::vector<JournalRow> journal_rows_;  // CommitPending's reused scratch
  SessionTable sessions_;
  bool bound_ = false;
  bool running_ = false;
  bool draining_ = false;
  bool finished_ = false;
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> hard_stop_{false};
  std::chrono::steady_clock::time_point drain_started_{};
  std::chrono::steady_clock::time_point started_{};
  std::chrono::steady_clock::time_point accept_cooldown_until_{};
  std::chrono::steady_clock::time_point last_watchdog_{};

  std::uint64_t total_accepted_ = 0;       // engine-ingested records, ever
  std::uint64_t preloaded_records_ = 0;    // Preload() seeds (not accepted)
  std::uint64_t accepted_at_checkpoint_ = 0;
  std::uint64_t connections_seen_ = 0;
  std::uint64_t replayed_records_ = 0;     // journal tail replayed at Bind
  std::uint64_t journal_fsync_failures_seen_ = 0;  // mirrored to obs
  data::IngestErrorReport errors_;         // closed-connection tallies

  // Watchdog state: last seen per-shard applied counts and, for shards
  // currently making no progress with queued work, when that started.
  std::vector<std::uint64_t> watchdog_prev_;
  std::vector<std::chrono::steady_clock::time_point> watchdog_stuck_since_;
  std::size_t stuck_shards_ = 0;

  // Resolved obs handles (registry_ outlives them by construction).
  obs::Counter* obs_connections_ = nullptr;
  obs::Gauge* obs_active_ = nullptr;
  obs::Counter* obs_bytes_in_ = nullptr;
  obs::Counter* obs_bytes_out_ = nullptr;
  obs::Counter* obs_records_ = nullptr;
  obs::Counter* obs_rejected_ = nullptr;
  obs::Counter* obs_auth_failures_ = nullptr;
  obs::Counter* obs_quota_rejections_ = nullptr;
  obs::Counter* obs_slow_closes_ = nullptr;
  std::array<obs::Counter*, 4> obs_http_requests_{};  // metrics/status/healthz/other
  obs::Histogram* obs_checkpoint_seconds_ = nullptr;
  obs::Gauge* obs_drain_millis_ = nullptr;
  obs::Gauge* obs_stuck_shards_ = nullptr;
  obs::Counter* obs_accept_shed_ = nullptr;
  obs::Counter* obs_http_timeouts_ = nullptr;
  obs::Counter* obs_http_sheds_ = nullptr;
  obs::Counter* obs_journal_failures_ = nullptr;
  obs::Counter* obs_journal_fsync_failures_ = nullptr;
  obs::Counter* obs_replayed_ = nullptr;
  obs::Counter* obs_checkpoint_failures_ = nullptr;
  obs::Counter* obs_resumed_sessions_ = nullptr;
  std::array<obs::Counter*, data::kIngestErrorKindCount> obs_errors_{};
};

}  // namespace ddos::netd

#endif  // DDOSCOPE_NETD_SERVER_H_
