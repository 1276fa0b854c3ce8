#include "netd/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/iohooks.h"
#include "common/strings.h"
#include "data/binrecords.h"
#include "data/csv.h"
#include "data/taxonomy.h"
#include "netd/http.h"
#include "obs/export.h"
#include "stream/checkpoint.h"

namespace ddos::netd {

namespace {

using Clock = std::chrono::steady_clock;

// Stragglers that have not flushed their final drain ACK within this long
// are force-closed; a graceful shutdown must not hang on one dead peer.
constexpr std::chrono::seconds kDrainDeadline{5};

constexpr std::size_t kReadChunk = 64 << 10;
constexpr std::size_t kMaxHttpHead = 16 << 10;
constexpr std::string_view kMetricsContentType =
    "text/plain; version=0.0.4; charset=utf-8";

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

bool FileExists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path, std::ios::binary));
}

}  // namespace

// One poll-loop client: either an ingest feed (framer + protocol) or an
// HTTP probe (request buffer). Output is queued here and flushed
// opportunistically; `dead` marks the slot for reaping at end of tick.
struct IngestServer::Conn {
  Conn(FdHandle f, bool is_http, std::size_t max_line_bytes)
      : fd(std::move(f)), http(is_http), framer(max_line_bytes) {}

  FdHandle fd;
  bool http;
  LineFramer framer;
  std::unique_ptr<IngestProtocol> protocol;  // ingest connections only
  std::string http_in;
  std::chrono::steady_clock::time_point accepted_at{};  // slow-loris clock

  // Records the protocol accepted this tick, awaiting the write-ahead
  // commit (CommitPending), each beside the row it was parsed from as
  // received: the rows sit back to back in pending_rows (its capacity is
  // reused across ticks) and pending_ends[i] is row i's end offset there
  // and its session sequence number.
  std::vector<data::AttackRecord> pending;
  std::string pending_rows;
  std::vector<std::pair<std::size_t, std::uint64_t>> pending_ends;

  // Queues a record the protocol just accepted from `line`. Accounting
  // (ACK/PONG numbers) is immediate; the commit waits for CommitPending.
  // The record is copied, not moved: moving the parser's strings into
  // `pending` raised the daemon_feed benchmark's peak RSS by ~1.4 MiB
  // (glibc malloc) for no speed-up that rose above run-to-run noise.
  void Stage(const std::string& line, const data::AttackRecord& record) {
    protocol->OnRecordIngested();
    pending.push_back(record);
    pending_rows += line;
    pending_ends.emplace_back(pending_rows.size(), protocol->session_total());
  }

  void ClearPending() {
    pending.clear();
    pending_rows.clear();
    pending_ends.clear();
  }

  std::string out;
  std::size_t out_off = 0;
  bool close_after_flush = false;
  bool session_counted = false;  // resumed-session metric bumped once
  bool dead = false;
  CloseReason reason = CloseReason::kNone;
  data::IngestErrorReport reported;  // reject counts already mirrored to obs
};

IngestServer::IngestServer(NetdConfig config) : config_(std::move(config)) {
  ResolveMetricHandles();
}

IngestServer::~IngestServer() = default;

void IngestServer::ResolveMetricHandles() {
  obs_connections_ = registry_.GetCounter(
      "ddoscope_netd_connections_total", "Connections accepted by ddoscoped");
  obs_active_ = registry_.GetGauge("ddoscope_netd_active_connections",
                                   "Currently open daemon connections");
  obs_bytes_in_ = registry_.GetCounter("ddoscope_netd_bytes_read_total",
                                       "Bytes read from daemon clients");
  obs_bytes_out_ = registry_.GetCounter("ddoscope_netd_bytes_written_total",
                                        "Bytes written to daemon clients");
  obs_records_ = registry_.GetCounter(
      "ddoscope_netd_records_total",
      "Attack records accepted into the engine by the daemon");
  obs_rejected_ = registry_.GetCounter(
      "ddoscope_netd_rejected_rows_total",
      "Rows rejected by the daemon ingest protocol (all kinds)");
  obs_auth_failures_ =
      registry_.GetCounter("ddoscope_netd_auth_failures_total",
                           "Connections closed for missing or bad tokens");
  obs_quota_rejections_ =
      registry_.GetCounter("ddoscope_netd_quota_rejections_total",
                           "Connections closed for exceeding record quotas");
  obs_slow_closes_ = registry_.GetCounter(
      "ddoscope_netd_slow_client_closes_total",
      "Connections closed for exceeding the output byte budget");
  static constexpr std::string_view kEndpoints[4] = {"metrics", "status",
                                                     "healthz", "other"};
  for (std::size_t i = 0; i < obs_http_requests_.size(); ++i) {
    obs_http_requests_[i] = registry_.GetCounter(
        "ddoscope_netd_http_requests_total", "HTTP requests served",
        {{"endpoint", std::string(kEndpoints[i])}});
  }
  obs_checkpoint_seconds_ = registry_.GetHistogram(
      "ddoscope_netd_checkpoint_seconds",
      "Daemon checkpoint write latency (periodic and final)",
      obs::ExponentialBounds(1e-4, 4.0, 10));
  obs_drain_millis_ =
      registry_.GetGauge("ddoscope_netd_drain_millis",
                         "Wall time of the last graceful drain, milliseconds");
  obs_stuck_shards_ = registry_.GetGauge(
      "ddoscope_netd_stuck_shards",
      "Shards with queued work and no progress past the watchdog deadline");
  obs_accept_shed_ = registry_.GetCounter(
      "ddoscope_netd_accept_shed_total",
      "Accepts shed under fd pressure (EMFILE/ENFILE/ENOBUFS)");
  obs_http_timeouts_ = registry_.GetCounter(
      "ddoscope_netd_http_timeouts_total",
      "HTTP connections closed with 408 for a slow request head");
  obs_http_sheds_ = registry_.GetCounter(
      "ddoscope_netd_http_sheds_total",
      "HTTP connections shed at the concurrent-connection cap");
  obs_journal_failures_ = registry_.GetCounter(
      "ddoscope_netd_journal_failures_total",
      "Journal batch appends that failed (records refused, not ACKed)");
  obs_journal_fsync_failures_ = registry_.GetCounter(
      "ddoscope_netd_journal_fsync_failures_total",
      "Journal fsyncs that failed (durability degraded, ingest continues)");
  obs_replayed_ = registry_.GetCounter(
      "ddoscope_netd_replayed_records_total",
      "Journal-tail records replayed into the engine during resume");
  obs_checkpoint_failures_ = registry_.GetCounter(
      "ddoscope_netd_checkpoint_failures_total",
      "Checkpoint writes that failed (retried at the next trigger)");
  obs_resumed_sessions_ = registry_.GetCounter(
      "ddoscope_netd_resumed_sessions_total",
      "RESUME handshakes accepted by the daemon");
  for (int k = 0; k < data::kIngestErrorKindCount; ++k) {
    obs_errors_[static_cast<std::size_t>(k)] = registry_.GetCounter(
        "ddoscope_netd_reject_total", "Rows rejected by error kind",
        {{"kind", std::string(data::IngestErrorKindName(
                      static_cast<data::IngestErrorKind>(k)))}});
  }
}

void IngestServer::Bind() {
  if (bound_) throw std::runtime_error("netd: Bind called twice");

  stream::ShardedStreamEngineConfig sharded;
  sharded.shards = std::max<std::size_t>(1, config_.shards);
  sharded.engine = config_.engine;
  sharded.metrics = &registry_;
  if (!config_.geo_path.empty()) {
    // Map the compiled database once; every shard's enricher walks the
    // same read-only pages. Open() validates checksum and structure, so a
    // corrupt file fails Bind loudly instead of serving wrong lookups.
    geo_ = std::make_unique<geo::GeoMmdb>(geo::GeoMmdb::Open(config_.geo_path));
    sharded.geo = geo_.get();
    sharded.geo_enrich = config_.geo_enrich;
  }

  bool resumed = false;
  if (config_.resume && !config_.checkpoint_path.empty() &&
      FileExists(config_.checkpoint_path)) {
    stream::ShardedCheckpointState state =
        stream::ReadShardedCheckpoint(config_.checkpoint_path);
    sharded.engine = stream::RequestedEngineConfig(state);
    config_.engine = sharded.engine;
    engine_ = std::make_unique<stream::ShardedStreamEngine>(sharded);
    engine_->RestoreFrom(state);
    total_accepted_ = state.meta.records;
    accepted_at_checkpoint_ = total_accepted_;
    errors_ = state.meta.errors;
    resumed = true;
  }
  if (engine_ == nullptr) {
    engine_ = std::make_unique<stream::ShardedStreamEngine>(sharded);
  }

  if (!config_.journal_path.empty()) {
    const bool have_journal = FileExists(config_.journal_path);
    if (config_.resume && have_journal) {
      // Crash recovery: the journal is the source of truth. Replay the
      // tail past what the checkpoint (if any) already restored, rebuild
      // the per-session committed counts RESUME answers from, and then
      // keep appending - the journal stays the one complete feed across
      // restarts, which is what the replay-equivalence check consumes.
      const JournalContents contents = ReadJournal(config_.journal_path);
      if (contents.entries.size() < total_accepted_) {
        throw std::runtime_error(StrFormat(
            "netd: journal %s has %zu records but checkpoint claims %llu - "
            "refusing to resume from a truncated journal",
            config_.journal_path.c_str(), contents.entries.size(),
            static_cast<unsigned long long>(total_accepted_)));
      }
      for (std::size_t i = total_accepted_; i < contents.entries.size(); ++i) {
        engine_->Push(contents.entries[i].record);
      }
      replayed_records_ = contents.entries.size() - total_accepted_;
      obs_replayed_->Add(replayed_records_);
      total_accepted_ = contents.entries.size();
      for (const auto& [session, high] : contents.session_high) {
        sessions_.Set(session, high);
      }
      resumed = true;
    }
    journal_ = std::make_unique<Journal>(
        config_.journal_path, /*append_existing=*/resumed && have_journal,
        config_.journal_fsync, config_.journal_fsync_every);
  }

  ingest_listener_ = Listen(config_.host, config_.ingest_port, &ingest_port_);
  http_listener_ = Listen(config_.host, config_.http_port, &http_port_);
  std::tie(wake_rd_, wake_wr_) = MakeWakePipe();
  bound_ = true;
}

void IngestServer::RequestDrain() { RequestDrainFromSignal(); }

void IngestServer::RequestHardStop() noexcept {
  hard_stop_.store(true, std::memory_order_release);
  if (wake_wr_.valid()) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_.get(), &byte, 1);
  }
}

void IngestServer::RequestDrainFromSignal() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_wr_.valid()) {
    const char byte = 1;
    // Failure (full pipe) is fine: the loop polls the flag on every tick.
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_.get(), &byte, 1);
  }
}

std::uint64_t IngestServer::Preload(const std::string& path,
                                    const std::string& format) {
  if (!bound_) throw std::runtime_error("netd: Preload called before Bind");
  if (running_) throw std::runtime_error("netd: Preload while running");
  std::uint64_t pushed = 0;
  data::AttackRecord record;
  if (format == "bin") {
    data::BinaryRecordReader reader(path);
    while (reader.Next(&record)) {
      engine_->Push(record);
      ++pushed;
    }
  } else if (format == "csv") {
    data::AttackCsvReader reader(path, data::ParseOptions::Skip());
    while (reader.Next(&record)) {
      engine_->Push(record);
      ++pushed;
    }
    errors_.Merge(reader.error_report());
  } else {
    throw std::runtime_error("netd: unknown preload format '" + format + "'");
  }
  preloaded_records_ += pushed;
  return pushed;
}

void IngestServer::Run() {
  if (!bound_) throw std::runtime_error("netd: Run called before Bind");
  running_ = true;
  started_ = Clock::now();

  std::vector<pollfd> pfds;
  for (;;) {
    if (hard_stop_.load(std::memory_order_acquire)) {
      // Simulated kill -9: abandon everything mid-flight. Committed
      // records are already write(2)'d to the journal, which is exactly
      // the state a real SIGKILL leaves behind.
      running_ = false;
      return;
    }
    pfds.clear();
    pfds.push_back({wake_rd_.get(), POLLIN, 0});
    int ingest_idx = -1;
    int http_idx = -1;
    // After an EMFILE-style accept failure the listeners sit out a short
    // cooldown; re-arming them immediately would spin the level-triggered
    // poll at 100% while the fd table is still full.
    if (!draining_ && conns_.size() < config_.max_connections &&
        Clock::now() >= accept_cooldown_until_) {
      ingest_idx = static_cast<int>(pfds.size());
      pfds.push_back({ingest_listener_.get(), POLLIN, 0});
      http_idx = static_cast<int>(pfds.size());
      pfds.push_back({http_listener_.get(), POLLIN, 0});
    }
    const std::size_t conn_base = pfds.size();
    for (const auto& conn : conns_) {
      short events = 0;
      if (!conn->close_after_flush) events |= POLLIN;
      if (conn->out_off < conn->out.size()) events |= POLLOUT;
      pfds.push_back({conn->fd.get(), events, 0});
    }

    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                          draining_ ? 50 : 200);
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("netd: poll failed: ") +
                               std::strerror(errno));
    }

    if (pfds[0].revents & POLLIN) {
      char sink[64];
      while (::read(wake_rd_.get(), sink, sizeof sink) > 0) {
      }
    }
    if (!draining_ && drain_requested_.load(std::memory_order_acquire)) {
      BeginDrain();
    }

    if (ingest_idx >= 0 && (pfds[ingest_idx].revents & POLLIN) != 0) {
      AcceptPending(ingest_listener_.get(), /*http=*/false);
    }
    if (http_idx >= 0 && (pfds[http_idx].revents & POLLIN) != 0) {
      AcceptPending(http_listener_.get(), /*http=*/true);
    }

    // Only the conns_ prefix snapshotted into pfds has revents; connections
    // accepted above wait for the next poll round. Index into pfds, not a
    // pointer walk, so handler-side appends to conns_ stay harmless too.
    const std::size_t live = pfds.size() - conn_base;
    for (std::size_t i = 0; i < live; ++i) {
      Conn& conn = *conns_[i];
      const short revents = pfds[conn_base + i].revents;
      if (revents == 0 || conn.dead) continue;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !conn.close_after_flush) {
        conn.http ? HandleHttpRead(conn) : HandleIngestRead(conn);
      }
      if (!conn.dead && (revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
        FlushOutput(conn);
      }
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->dead;
                                }),
                 conns_.end());
    obs_active_->Set(static_cast<std::int64_t>(conns_.size()));

    const Clock::time_point now = Clock::now();
    RunWatchdog(now);
    ScanHttpDeadlines(now);

    MaybePeriodicCheckpoint();

    if (draining_) {
      if (Clock::now() - drain_started_ > kDrainDeadline) {
        for (auto& conn : conns_) CloseConn(*conn, CloseReason::kDrained);
        conns_.clear();
      }
      if (DrainComplete()) {
        WriteCheckpoint();
        // The journal must be durable and complete after a drain even when
        // checkpointing is off (WriteCheckpoint is a no-op then).
        if (journal_ != nullptr) {
          journal_->Sync();
          journal_.reset();
        }
        obs_drain_millis_->Set(
            static_cast<std::int64_t>(SecondsSince(drain_started_) * 1e3));
        break;
      }
    }
  }
  running_ = false;
}

bool IngestServer::DrainComplete() const { return conns_.empty(); }

void IngestServer::MirrorJournalFsyncFailures() {
  const std::uint64_t failures = journal_->fsync_failures();
  if (failures > journal_fsync_failures_seen_) {
    obs_journal_fsync_failures_->Add(failures - journal_fsync_failures_seen_);
    journal_fsync_failures_seen_ = failures;
  }
}

void IngestServer::RunWatchdog(Clock::time_point now) {
  if (config_.watchdog_interval_ms <= 0 || config_.stuck_after_ms <= 0) return;
  if (now - last_watchdog_ <
      std::chrono::milliseconds(config_.watchdog_interval_ms)) {
    return;
  }
  last_watchdog_ = now;
  const std::vector<std::uint64_t> processed = engine_->ProcessedCounts();
  const std::vector<std::size_t> depths = engine_->QueueDepths();
  if (watchdog_prev_.size() != processed.size()) {
    watchdog_prev_ = processed;
    watchdog_stuck_since_.assign(processed.size(), Clock::time_point{});
    return;  // first sample: nothing to compare against yet
  }
  std::size_t stuck = 0;
  for (std::size_t i = 0; i < processed.size(); ++i) {
    const bool frozen_with_work =
        depths[i] > 0 && processed[i] == watchdog_prev_[i];
    if (!frozen_with_work) {
      watchdog_stuck_since_[i] = Clock::time_point{};
    } else if (watchdog_stuck_since_[i] == Clock::time_point{}) {
      watchdog_stuck_since_[i] = now;
    } else if (now - watchdog_stuck_since_[i] >=
               std::chrono::milliseconds(config_.stuck_after_ms)) {
      ++stuck;
    }
    watchdog_prev_[i] = processed[i];
  }
  stuck_shards_ = stuck;
  obs_stuck_shards_->Set(static_cast<std::int64_t>(stuck));
}

void IngestServer::ScanHttpDeadlines(Clock::time_point now) {
  if (config_.http_header_timeout_ms <= 0) return;
  const auto deadline = std::chrono::milliseconds(config_.http_header_timeout_ms);
  for (auto& conn : conns_) {
    if (!conn->http || conn->dead || conn->close_after_flush) continue;
    if (now - conn->accepted_at <= deadline) continue;
    // Slow loris: the request head never finished arriving. 408 and the
    // door, so held-open sockets cannot pin connection slots.
    obs_http_timeouts_->Add();
    conn->out += BuildHttpResponse(408, "text/plain", "request timeout\n");
    conn->close_after_flush = true;
    conn->reason = CloseReason::kSlowClient;
    FlushOutput(*conn);
  }
}

std::size_t IngestServer::CountHttpConns() const {
  std::size_t n = 0;
  for (const auto& conn : conns_) {
    if (conn->http && !conn->dead) ++n;
  }
  return n;
}

void IngestServer::BeginDrain() {
  draining_ = true;
  drain_started_ = Clock::now();
  for (auto& conn : conns_) {
    if (conn->dead) continue;
    conn->close_after_flush = true;
    if (!conn->http) {
      // Framed lines were already processed after the last read; the
      // unterminated tail stays unacknowledged on purpose - it is exactly
      // the part the client must replay after the restart.
      conn->protocol->OnDrain();
      conn->out += conn->protocol->TakeOutput();
      conn->reason = CloseReason::kDrained;
    }
    FlushOutput(*conn);  // closes immediately when nothing is pending
  }
}

void IngestServer::AcceptPending(int listener_fd, bool http) {
  for (;;) {
    const int fd = common::io_hooks()->Accept(listener_fd);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds: shed instead of dying, and bench the listeners for a
        // beat - the pending connection stays queued and poll would
        // otherwise wake hot on it forever.
        obs_accept_shed_->Add();
        accept_cooldown_until_ = Clock::now() + std::chrono::milliseconds(50);
        break;
      }
      break;  // EAGAIN (drained) or transient accept error: poll again
    }
    if (conns_.size() >= config_.max_connections ||
        (http && CountHttpConns() >= config_.max_http_connections)) {
      if (http) obs_http_sheds_->Add();
      ::close(fd);
      continue;
    }
    try {
      SetNonBlocking(fd);
      if (!http) SetNoDelay(fd);
    } catch (const std::runtime_error&) {
      ::close(fd);
      continue;
    }
    auto conn =
        std::make_unique<Conn>(FdHandle(fd), http, config_.max_line_bytes);
    conn->accepted_at = Clock::now();
    if (!http) {
      conn->protocol = std::make_unique<IngestProtocol>(
          &config_.auth, config_.limits, &sessions_);
    }
    ++connections_seen_;
    obs_connections_->Add();
    conns_.push_back(std::move(conn));
  }
  obs_active_->Set(static_cast<std::int64_t>(conns_.size()));
}

void IngestServer::HandleIngestRead(Conn& conn) {
  char buf[kReadChunk];
  // Bounded reads per poll tick so one fast producer cannot starve the
  // rest of the loop; leftover bytes re-arm POLLIN immediately.
  for (int round = 0; round < 4; ++round) {
    const ssize_t n = common::io_hooks()->Recv(conn.fd.get(), buf, sizeof buf, 0);
    if (n > 0) {
      obs_bytes_in_->Add(static_cast<std::uint64_t>(n));
      conn.framer.Append(buf, static_cast<std::size_t>(n));
      ProcessFrames(conn);
      if (conn.dead || conn.close_after_flush) return;
      if (static_cast<std::size_t>(n) < sizeof buf) return;
      continue;
    }
    if (n == 0) {
      // Peer closed. A newline-less final row is still a complete record if
      // it parses (mirroring AttackCsvReader's final-line tolerance).
      std::string line;
      bool overflow = false;
      if (conn.framer.TakePartial(&line, &overflow)) {
        data::AttackRecord record;
        const IngestProtocol::LineResult r =
            conn.protocol->OnLine(line, overflow, &record);
        if (r.has_record) conn.Stage(line, record);
      }
      CommitPending(conn);
      CloseConn(conn, conn.protocol->close_reason() == CloseReason::kNone
                          ? CloseReason::kEndOfFeed
                          : conn.protocol->close_reason());
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CommitPending(conn);
    CloseConn(conn, CloseReason::kProtocolError);
    return;
  }
}

void IngestServer::ProcessFrames(Conn& conn) {
  std::string line;
  bool overflow = false;
  data::AttackRecord record;
  while (conn.framer.Next(&line, &overflow)) {
    const IngestProtocol::LineResult r =
        conn.protocol->OnLine(line, overflow, &record);
    // The journal/engine commit is deferred to CommitPending below - which
    // runs before any of this output flushes, so the ACKs never outrun the
    // journal.
    if (r.has_record) conn.Stage(line, record);
    if (r.close && !conn.close_after_flush) {
      conn.close_after_flush = true;
      conn.reason = conn.protocol->close_reason();
      if (conn.reason == CloseReason::kAuthFailure) {
        obs_auth_failures_->Add();
      } else if (conn.reason == CloseReason::kQuotaExceeded) {
        obs_quota_rejections_->Add();
      }
      // Keep draining the framer: the protocol is closing and discards the
      // remaining lines, which empties the buffered backlog cheaply.
    }
  }
  if (!conn.session_counted && !conn.protocol->session_id().empty()) {
    conn.session_counted = true;
    obs_resumed_sessions_->Add();
  }
  CommitPending(conn);
  SyncRejectCounters(conn);
  if (conn.protocol->has_output()) conn.out += conn.protocol->TakeOutput();
  if (conn.out_off < conn.out.size()) FlushOutput(conn);
  if (!conn.dead &&
      conn.out.size() - conn.out_off > config_.max_output_buffer) {
    obs_slow_closes_->Add();
    CloseConn(conn, CloseReason::kSlowClient);
  }
}

void IngestServer::CommitPending(Conn& conn) {
  if (conn.pending.empty()) return;
  const std::string session =
      conn.protocol != nullptr ? conn.protocol->session_id() : std::string();
  if (journal_ != nullptr) {
    // RESUME is only accepted before any data, so every pending row
    // belongs to `session`.
    journal_rows_.clear();
    std::size_t begin = 0;
    for (const auto& [end, seq] : conn.pending_ends) {
      journal_rows_.push_back(
          {std::string_view(conn.pending_rows).substr(begin, end - begin),
           seq});
      begin = end;
    }
    if (!journal_->AppendRows(session, journal_rows_)) {
      // The write-ahead append failed (ENOSPC/EIO): these records are NOT
      // committed. Drop them before the engine sees them, retract every
      // reply referencing them, and tell the client to replay against a
      // healthy server - its unacked window holds exactly this batch.
      obs_journal_failures_->Add();
      conn.ClearPending();
      if (conn.protocol != nullptr) (void)conn.protocol->TakeOutput();
      conn.out += "ERR journal-failed\n";
      conn.close_after_flush = true;
      conn.reason = CloseReason::kJournalFailure;
      return;
    }
    MirrorJournalFsyncFailures();
  }
  for (const data::AttackRecord& record : conn.pending) {
    engine_->Push(record);
  }
  total_accepted_ += conn.pending.size();
  obs_records_->Add(conn.pending.size());
  if (!session.empty()) {
    sessions_.Set(session, conn.pending_ends.back().second);
  }
  conn.ClearPending();
}

void IngestServer::SyncRejectCounters(Conn& conn) {
  const auto& now = conn.protocol->errors().counts;
  for (int k = 0; k < data::kIngestErrorKindCount; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const std::uint64_t delta = now[i] - conn.reported.counts[i];
    if (delta != 0) {
      obs_errors_[i]->Add(delta);
      obs_rejected_->Add(delta);
      conn.reported.counts[i] = now[i];
    }
  }
}

void IngestServer::HandleHttpRead(Conn& conn) {
  char buf[8192];
  for (;;) {
    const ssize_t n = common::io_hooks()->Recv(conn.fd.get(), buf, sizeof buf, 0);
    if (n > 0) {
      obs_bytes_in_->Add(static_cast<std::uint64_t>(n));
      conn.http_in.append(buf, static_cast<std::size_t>(n));
      std::size_t head_bytes = 0;
      if (HttpHeadComplete(conn.http_in, &head_bytes)) {
        conn.out += RouteHttp(conn.http_in.substr(0, head_bytes));
        conn.close_after_flush = true;
        conn.reason = CloseReason::kEndOfFeed;
        FlushOutput(conn);
        return;
      }
      if (conn.http_in.size() > kMaxHttpHead) {
        conn.out +=
            BuildHttpResponse(400, "text/plain", "request head too large\n");
        conn.close_after_flush = true;
        FlushOutput(conn);
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return;
      continue;
    }
    if (n == 0) {
      CloseConn(conn, CloseReason::kEndOfFeed);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn, CloseReason::kProtocolError);
    return;
  }
}

std::string IngestServer::RouteHttp(const std::string& head) {
  HttpRequest req;
  std::string error;
  if (!ParseHttpRequest(head, &req, &error)) {
    obs_http_requests_[3]->Add();
    return BuildHttpResponse(400, "text/plain", error + "\n");
  }
  std::string target = req.target.substr(0, req.target.find('?'));
  const int endpoint = target == "/metrics"   ? 0
                       : target == "/status"  ? 1
                       : target == "/healthz" ? 2
                                              : 3;
  obs_http_requests_[static_cast<std::size_t>(endpoint)]->Add();
  if (req.method != "GET") {
    return BuildHttpResponse(405, "text/plain", "method not allowed\n");
  }
  switch (endpoint) {
    case 0:
      // Refresh the aggregate geo gauges at scrape cadence. We are the
      // router thread, so the snapshot barrier is legal here (same
      // reasoning as BuildStatusJson).
      if (geo_ != nullptr) {
        const stream::StreamSnapshot snap = engine_->Snapshot(5);
        if (snap.geo.has_value()) {
          stream::PublishGeoGauges(&registry_, *snap.geo);
        }
      }
      return BuildHttpResponse(200, kMetricsContentType,
                               obs::RenderPrometheusText(registry_.Snapshot()));
    case 1:
      return BuildHttpResponse(200, "application/json", BuildStatusJson());
    case 2:
      if (draining_) return BuildHttpResponse(503, "text/plain", "draining\n");
      if (stuck_shards_ > 0) {
        return BuildHttpResponse(
            503, "text/plain",
            StrFormat("degraded: %zu stuck shards\n", stuck_shards_));
      }
      return BuildHttpResponse(200, "text/plain", "ok\n");
    default:
      return BuildHttpResponse(404, "text/plain", "not found\n");
  }
}

std::string IngestServer::BuildStatusJson() {
  // Snapshot takes the shard barrier; we are the router thread, so this is
  // the one place it is legal - and it is bounded by the in-flight batch.
  const stream::StreamSnapshot snap = engine_->Snapshot(5);
  const std::vector<std::size_t> depths = engine_->QueueDepths();

  std::string j = "{";
  j += StrFormat("\"draining\":%s", draining_ ? "true" : "false");
  j += StrFormat(",\"uptime_seconds\":%.3f", SecondsSince(started_));
  j += StrFormat(",\"accepted_records\":%llu",
                 static_cast<unsigned long long>(total_accepted_));
  j += StrFormat(",\"rejected_rows\":%llu",
                 static_cast<unsigned long long>(AggregateErrors().total()));
  j += StrFormat(",\"connections\":{\"active\":%zu,\"total\":%llu}",
                 conns_.size(),
                 static_cast<unsigned long long>(connections_seen_));
  j += StrFormat(",\"stuck_shards\":%zu", stuck_shards_);
  j += StrFormat(",\"sessions\":%zu", sessions_.size());

  j += ",\"clients\":[";
  bool first = true;
  for (const auto& conn : conns_) {
    if (conn->http || conn->dead) continue;
    if (!first) j += ',';
    first = false;
    j += "{\"name\":";
    AppendJsonString(&j, conn->protocol->client_name());
    j += StrFormat(",\"state\":\"%s\",\"records\":%llu,\"rejected\":%llu}",
                   conn->protocol->state() == ConnState::kAwaitAuth
                       ? "await-auth"
                       : conn->protocol->state() == ConnState::kStreaming
                             ? "streaming"
                             : "closing",
                   static_cast<unsigned long long>(conn->protocol->records()),
                   static_cast<unsigned long long>(conn->protocol->rejected()));
  }
  j += ']';

  j += StrFormat(",\"shards\":{\"count\":%zu,\"queue_depths\":[",
                 engine_->shard_count());
  for (std::size_t i = 0; i < depths.size(); ++i) {
    if (i != 0) j += ',';
    j += StrFormat("%zu", depths[i]);
  }
  j += "]}";

  j += StrFormat(
      ",\"engine\":{\"attacks\":%llu,\"countries\":%llu,"
      "\"distinct_targets\":%.1f,\"distinct_botnets\":%.1f,"
      "\"attacks_in_window\":%llu,\"collab_events\":%llu,"
      "\"memory_bytes\":%zu",
      static_cast<unsigned long long>(snap.attacks),
      static_cast<unsigned long long>(snap.countries), snap.distinct_targets,
      snap.distinct_botnets,
      static_cast<unsigned long long>(snap.attacks_in_window),
      static_cast<unsigned long long>(snap.collab.events),
      snap.engine_memory_bytes);
  j += ",\"families\":[";
  first = true;
  for (int f = 0; f < data::kFamilyCount; ++f) {
    const std::uint64_t n = snap.family_attacks[static_cast<std::size_t>(f)];
    if (n == 0) continue;
    if (!first) j += ',';
    first = false;
    j += "{\"family\":";
    AppendJsonString(&j, data::FamilyName(static_cast<data::Family>(f)));
    j += StrFormat(",\"attacks\":%llu}", static_cast<unsigned long long>(n));
  }
  j += "]}";

  if (snap.geo.has_value()) {
    const stream::GeoEnrichSnapshot& geo = *snap.geo;
    // Status cadence doubles as the gauge-publication cadence: one writer
    // (this thread), off the ingest path.
    stream::PublishGeoGauges(&registry_, geo);
    j += StrFormat(
        ",\"geo\":{\"enriched\":%llu,\"out_of_space\":%llu,"
        "\"tracked_botnets\":%zu,\"dropped_botnets\":%llu",
        static_cast<unsigned long long>(geo.enriched),
        static_cast<unsigned long long>(geo.out_of_space), geo.tracked_botnets,
        static_cast<unsigned long long>(geo.dropped_botnets));
    j += ",\"top_countries\":[";
    first = true;
    for (const stream::GeoTopEntry& e : geo.top_countries) {
      if (!first) j += ',';
      first = false;
      j += "{\"cc\":";
      AppendJsonString(&j, e.label);
      j += StrFormat(",\"attacks\":%llu}",
                     static_cast<unsigned long long>(e.count));
    }
    j += "],\"top_asns\":[";
    first = true;
    for (const stream::GeoTopEntry& e : geo.top_asns) {
      if (!first) j += ',';
      first = false;
      j += "{\"asn\":";
      AppendJsonString(&j, e.label);
      j += StrFormat(",\"attacks\":%llu}",
                     static_cast<unsigned long long>(e.count));
    }
    j += "],\"top_dispersed\":[";
    first = true;
    for (const stream::BotnetGeoStat& b : geo.top_dispersed) {
      if (!first) j += ',';
      first = false;
      j += StrFormat(
          "{\"botnet\":%u,\"attacks\":%llu,\"mean_distance_km\":%.1f}",
          b.botnet_id, static_cast<unsigned long long>(b.attacks),
          b.mean_distance_km);
    }
    j += "]}";
  }

  j += '}';
  return j;
}

void IngestServer::FlushOutput(Conn& conn) {
  if (conn.dead) return;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = common::io_hooks()->Send(
        conn.fd.get(), conn.out.data() + conn.out_off,
        conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      obs_bytes_out_->Add(static_cast<std::uint64_t>(n));
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Peer vanished (EPIPE/ECONNRESET under MSG_NOSIGNAL) or hard error.
    CloseConn(conn, conn.reason != CloseReason::kNone
                        ? conn.reason
                        : CloseReason::kProtocolError);
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) CloseConn(conn, conn.reason);
  } else if (conn.out_off > kReadChunk) {
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
}

void IngestServer::CloseConn(Conn& conn, CloseReason reason) {
  if (conn.dead) return;
  if (!conn.http && conn.protocol != nullptr) {
    if (!conn.protocol->session_id().empty()) {
      // Free the session for the client's next connection to reclaim.
      sessions_.Release(conn.protocol->session_id());
    }
    SyncRejectCounters(conn);
    errors_.Merge(conn.protocol->errors());
  }
  conn.reason = reason;
  conn.fd.Reset();
  conn.dead = true;
}

data::IngestErrorReport IngestServer::AggregateErrors() const {
  data::IngestErrorReport report = errors_;
  for (const auto& conn : conns_) {
    if (conn->http || conn->dead || conn->protocol == nullptr) continue;
    report.Merge(conn->protocol->errors());
  }
  return report;
}

void IngestServer::WriteCheckpoint() {
  if (config_.checkpoint_path.empty()) return;
  // Journal first: the checkpoint claims N accepted records, and the
  // durable journal must always cover at least that many.
  if (journal_ != nullptr) {
    journal_->Sync();
    MirrorJournalFsyncFailures();
  }
  if (const int err =
          common::io_hooks()->PrepareFileWrite(config_.checkpoint_path.c_str());
      err != 0) {
    // Simulated disk-full: skip this checkpoint. accepted_at_checkpoint_
    // stays put, so the next trigger retries; the journal still covers
    // everything, so recovery is unaffected.
    obs_checkpoint_failures_->Add();
    return;
  }
  stream::CheckpointMeta meta;
  meta.records = total_accepted_;
  meta.source_line = 0;  // the daemon has no single source file position
  meta.errors = AggregateErrors();
  const Clock::time_point t0 = Clock::now();
  try {
    engine_->SaveCheckpoint(config_.checkpoint_path, meta);
  } catch (const std::runtime_error&) {
    obs_checkpoint_failures_->Add();
    return;
  }
  obs_checkpoint_seconds_->Observe(SecondsSince(t0));
  accepted_at_checkpoint_ = total_accepted_;
}

void IngestServer::MaybePeriodicCheckpoint() {
  if (config_.checkpoint_path.empty() || config_.checkpoint_every == 0) return;
  if (total_accepted_ - accepted_at_checkpoint_ < config_.checkpoint_every) {
    return;
  }
  WriteCheckpoint();
}

stream::StreamSnapshot IngestServer::FinishAndSnapshot() {
  if (running_) throw std::runtime_error("netd: FinishAndSnapshot while running");
  if (engine_ == nullptr) throw std::runtime_error("netd: not bound");
  if (!finished_) {
    engine_->Finish();
    finished_ = true;
  }
  return engine_->merged().Snapshot();
}

}  // namespace ddos::netd
