#include "netd/resilient_client.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "data/csv.h"

namespace ddos::netd {

namespace {

// The server's mind is made up: reconnecting and retrying cannot change
// an auth or session-identity rejection.
bool IsFatalHandshakeError(const std::string& what) {
  return what.find("unauthorized") != std::string::npos ||
         what.find("auth-required") != std::string::npos ||
         what.find("bad-session-id") != std::string::npos ||
         what.find("unexpected-resume") != std::string::npos;
}

// `ERR journal-failed` is the server shedding a batch it could not make
// durable (disk full, injected ENOSPC). Unlike a quota or protocol
// verdict it says nothing about future batches: the records were NOT
// committed, the connection was closed, and a reconnect + resend is the
// correct (and safe - nothing was acked) response.
bool IsTransientServerError(const std::string& err) {
  return err.find("journal-failed") != std::string::npos;
}

}  // namespace

ResilientFeedClient::ResilientFeedClient(const std::string& host,
                                         std::uint16_t port,
                                         const ResilientFeedOptions& options)
    : host_(host), port_(port), options_(options), rng_(options.seed) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  if (options_.window_records < 1) options_.window_records = 1;
  if (options_.metrics != nullptr) {
    obs_reconnects_ = options_.metrics->GetCounter(
        "ddoscope_feed_reconnects_total",
        "Feed connections re-established after a failure.");
    obs_resent_ = options_.metrics->GetCounter(
        "ddoscope_feed_resent_total",
        "Window records resent after a reconnect.");
    obs_backoff_ = options_.metrics->GetHistogram(
        "ddoscope_feed_backoff_seconds",
        "Delay slept before reconnect attempts.",
        obs::ExponentialBounds(0.01, 2.0, 10));
  }
  Reconnect();
}

void ResilientFeedClient::SleepBackoff(int attempt) {
  const int shift = std::min(attempt, 20);
  double delay_ms = static_cast<double>(options_.backoff_initial_ms) *
                    static_cast<double>(std::uint64_t{1} << shift);
  delay_ms = std::min(delay_ms, static_cast<double>(options_.backoff_max_ms));
  delay_ms *= 0.5 + rng_.NextDouble();  // +-50% jitter against thundering herds
  obs::MaybeObserve(obs_backoff_, delay_ms / 1000.0);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<std::int64_t>(delay_ms)));
}

void ResilientFeedClient::PruneWindow(std::uint64_t acked) {
  while (!window_.empty() && window_.front().seq <= acked) {
    window_.pop_front();
  }
}

void ResilientFeedClient::NoteAcked(std::uint64_t acked) {
  if (acked > acked_floor_) acked_floor_ = acked;
  PruneWindow(acked_floor_);
}

void ResilientFeedClient::Reconnect() {
  client_.reset();
  int attempt = 0;
  std::string handshake_error;
  for (;;) {
    if (attempt > 0 || connected_once_) SleepBackoff(attempt);
    const std::uint64_t floor_before = acked_floor_;
    try {
      FeedClient::Options copts;
      copts.recv_timeout_ms = options_.recv_timeout_ms;
      auto fresh = std::make_unique<FeedClient>(host_, port_, copts);
      if (!options_.token.empty()) fresh->Auth(options_.token);
      const std::uint64_t have =
          fresh->Resume(options_.client_id, acked_floor_);
      if (connected_once_) {
        ++reconnects_;
        obs::MaybeAdd(obs_reconnects_);
      }
      connected_once_ = true;
      // `have` above next_seq_ means this client-id fed the server in a
      // previous process: continue its numbering so seqs keep matching
      // the server's session-cumulative counts.
      if (have > next_seq_) next_seq_ = have;
      NoteAcked(have);
      bool resend_ok = true;
      for (const auto& entry : window_) {
        fresh->SendLine(entry.line);
        if (fresh->closed_by_server()) {
          resend_ok = false;
          break;
        }
        ++records_resent_;
        obs::MaybeAdd(obs_resent_);
      }
      NoteAcked(fresh->last_acked());
      if (!fresh->last_error().empty()) last_error_ = fresh->last_error();
      if (resend_ok) {
        // A successful re-handshake supersedes an earlier transient
        // verdict; only errors that still stand should reach the caller.
        if (IsTransientServerError(last_error_)) last_error_.clear();
        client_ = std::move(fresh);
        return;
      }
      // Died mid-resend; some rows may still have landed - the next
      // RESUME will tell, and pruning counts as progress below.
    } catch (const std::runtime_error& error) {
      if (IsFatalHandshakeError(error.what())) throw;
      handshake_error = error.what();
    }
    if (acked_floor_ > floor_before) {
      attempt = 0;  // the server is alive and committing; keep at it
      continue;
    }
    if (++attempt >= options_.max_attempts) {
      std::string detail = last_error_.empty() ? handshake_error : last_error_;
      throw std::runtime_error(StrFormat(
          "netd client: feed '%s' gave up: %s:%u unreachable after %d "
          "attempts%s%s",
          options_.client_id.c_str(), host_.c_str(),
          static_cast<unsigned>(port_), options_.max_attempts,
          detail.empty() ? "" : ": ", detail.c_str()));
    }
  }
}

void ResilientFeedClient::EnsureConnected() {
  if (client_ == nullptr || client_->closed_by_server()) Reconnect();
}

void ResilientFeedClient::SyncWindow() {
  int stale = 0;
  while (window_.size() >= options_.window_records) {
    EnsureConnected();
    const std::uint64_t floor_before = acked_floor_;
    bool ping_ok = true;
    try {
      NoteAcked(client_->Ping());
    } catch (const std::runtime_error&) {
      ping_ok = false;  // read timeout: connection state is unknowable
    }
    if (!client_->last_error().empty()) last_error_ = client_->last_error();
    if (!ping_ok || client_->closed_by_server()) Reconnect();
    if (acked_floor_ > floor_before) {
      stale = 0;
    } else if (++stale >= options_.max_attempts) {
      throw std::runtime_error(StrFormat(
          "netd client: feed '%s' stalled: server will not acknowledge "
          "%zu in-flight records%s%s",
          options_.client_id.c_str(), window_.size(),
          last_error_.empty() ? "" : ": ", last_error_.c_str()));
    }
  }
}

void ResilientFeedClient::SendLine(const std::string& raw) {
  std::string line = raw;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  if (line.empty()) return;
  if (line.rfind("ddos_id,", 0) == 0) {
    // Header: the server skips it; losing one to a reset is harmless, so
    // it is not windowed and not resent.
    EnsureConnected();
    client_->SendLine(line);
    return;
  }
  data::AttackRecord record;
  data::IngestError err;
  if (!data::TryParseAttackLine(line, &record, &err)) {
    // Malformed rows never advance the server's accepted count, so they
    // must not consume a sequence number; pass through so the server's
    // reject accounting still sees them.
    EnsureConnected();
    client_->SendLine(line);
    return;
  }
  if (!seen_ids_.Insert(record.ddos_id)) {
    // Mirror the server's per-session dedup client-side: a duplicate
    // would be rejected there without advancing the count, which would
    // let our numbering drift from the server's.
    ++duplicates_dropped_;
    return;
  }
  if (window_.size() >= options_.window_records) SyncWindow();
  EnsureConnected();
  ++next_seq_;
  window_.push_back(WindowEntry{next_seq_, std::move(line)});
  client_->SendLine(window_.back().line);
  if (client_->closed_by_server()) {
    Reconnect();
  } else {
    NoteAcked(client_->last_acked());
  }
}

void ResilientFeedClient::SendRecord(const data::AttackRecord& record) {
  SendLine(FormatAttackLine(record));
}

std::uint64_t ResilientFeedClient::Finish() {
  int stale = 0;
  for (;;) {
    EnsureConnected();
    const std::uint64_t floor_before = acked_floor_;
    bool end_ok = true;
    std::uint64_t final_count = 0;
    try {
      final_count = client_->End();
    } catch (const std::runtime_error&) {
      end_ok = false;  // read timeout mid-END
    }
    if (end_ok) NoteAcked(final_count);
    if (!client_->last_error().empty()) last_error_ = client_->last_error();
    if (end_ok && client_->saw_final_ack() && window_.empty()) {
      return acked_floor_;  // every windowed row is committed and covered
    }
    if (end_ok && !client_->last_error().empty() &&
        !IsTransientServerError(client_->last_error())) {
      // A fatal server verdict (quota, protocol): the unacked tail will
      // never be accepted; surface it via last_error() instead of
      // retrying forever. Transient verdicts (journal-failed) fall
      // through to the reconnect-and-resend path instead.
      return acked_floor_;
    }
    // Either the END exchange was lost or the final ACK does not cover
    // the whole window (rows died with an earlier connection): resend
    // and try END again.
    if (acked_floor_ > floor_before) {
      stale = 0;
    } else if (++stale >= options_.max_attempts) {
      throw std::runtime_error(StrFormat(
          "netd client: feed '%s' gave up: server vanished with %zu "
          "unacknowledged records after %d END attempts",
          options_.client_id.c_str(), window_.size(), options_.max_attempts));
    }
    Reconnect();
  }
}

}  // namespace ddos::netd
