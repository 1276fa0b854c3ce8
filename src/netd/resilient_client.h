// ResilientFeedClient: FeedClient plus reconnect, backoff, and a bounded
// replay window - the exactly-once client side of the RESUME handshake.
//
// The plain FeedClient treats a dead socket as the end of the
// conversation. This wrapper treats it as weather: every send that fails
// (or reply that never arrives) triggers a reconnect with jittered
// exponential backoff, a `RESUME <client-id> <last-acked-seq>` handshake,
// and a resend of exactly the window entries the server's committed count
// says it never saw. Combined with the server's write-ahead journal this
// gives exactly-once ingest across connection resets AND daemon restarts:
//
//   * every valid attack row gets a client-side sequence number and sits
//     in the in-flight window until an ACK/PONG covers it;
//   * the window is bounded (window_records); when full the client syncs
//     with a PING before accepting more, so memory and replay cost are
//     capped;
//   * on reconnect the server answers RESUME with its committed count
//     `have`; entries <= have are pruned (they are durable server-side),
//     the rest are resent in order. Nothing is lost, nothing is ingested
//     twice.
//
// Sequencing subtlety: the server's committed count only advances for rows
// it ACCEPTS, so the client must number rows exactly the way the server
// counts them. Therefore only parseable attack rows with fresh ddos_ids
// enter the window - header lines and malformed rows pass through
// unsequenced (the server rejects and never counts them), and duplicate
// ddos_ids are dropped client-side, mirroring the server's dedup policy.
// Feeds that disable server-side dedup should not reuse ids.
//
// Fatal versus retryable: `ERR unauthorized` / `ERR auth-required` /
// `ERR bad-session-id` end the feed (retrying cannot help);
// `ERR session-busy` is retried (a predecessor connection the server has
// not reaped yet still holds the session); everything else - resets,
// timeouts, EOF - is retried until max_attempts consecutive attempts make
// no progress, then ResilientFeedClient throws std::runtime_error.
#ifndef DDOSCOPE_NETD_RESILIENT_CLIENT_H_
#define DDOSCOPE_NETD_RESILIENT_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "common/id_set.h"
#include "common/rng.h"
#include "data/records.h"
#include "netd/client.h"
#include "obs/metrics.h"

namespace ddos::netd {

struct ResilientFeedOptions {
  std::string token;            // "" = no AUTH handshake
  std::string client_id = "feed";
  int max_attempts = 8;         // consecutive no-progress attempts before giving up
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2000;
  std::uint64_t seed = 1;       // backoff jitter stream
  std::size_t window_records = 4096;  // in-flight (unacked) row cap
  int recv_timeout_ms = 10000;
  obs::MetricsRegistry* metrics = nullptr;  // optional instrumentation
};

class ResilientFeedClient {
 public:
  // Connects (with retries); throws std::runtime_error when the server is
  // unreachable after max_attempts.
  ResilientFeedClient(const std::string& host, std::uint16_t port,
                      const ResilientFeedOptions& options);

  // Feeds one raw protocol line. Valid attack rows are sequenced into the
  // replay window; headers and malformed rows pass through; duplicate
  // ddos_ids are dropped. Reconnects as needed; throws when the server is
  // gone for good.
  void SendLine(const std::string& raw);
  void SendRecord(const data::AttackRecord& record);

  // END handshake with retries: returns only once the server has
  // acknowledged every windowed row (ACK ... end/drain) or delivered a
  // fatal verdict. Throws when the server disappears permanently.
  // Returns the server's final acknowledged count.
  std::uint64_t Finish();

  std::uint64_t reconnects() const { return reconnects_; }
  std::uint64_t records_resent() const { return records_resent_; }
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  std::uint64_t sequenced() const { return next_seq_; }  // rows windowed
  // Highest server-committed sequence seen (ACK/PONG/RESUME).
  std::uint64_t acked() const { return acked_floor_; }
  // Last `ERR ...` verdict from the server ("" when none).
  const std::string& last_error() const { return last_error_; }

 private:
  struct WindowEntry {
    std::uint64_t seq;  // 1-based: the server's count after accepting it
    std::string line;
  };

  void Reconnect();                // throws after max_attempts no-progress
  void EnsureConnected();
  void PruneWindow(std::uint64_t acked);
  void NoteAcked(std::uint64_t acked);
  void SyncWindow();               // PING round trip + prune
  void SleepBackoff(int attempt);

  std::string host_;
  std::uint16_t port_;
  ResilientFeedOptions options_;
  Rng rng_;
  std::unique_ptr<FeedClient> client_;
  std::deque<WindowEntry> window_;
  common::IdSet seen_ids_;
  bool connected_once_ = false;
  std::uint64_t next_seq_ = 0;     // == rows sequenced so far
  std::uint64_t acked_floor_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t records_resent_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::string last_error_;
  obs::Counter* obs_reconnects_ = nullptr;
  obs::Counter* obs_resent_ = nullptr;
  obs::Histogram* obs_backoff_ = nullptr;
};

}  // namespace ddos::netd

#endif  // DDOSCOPE_NETD_RESILIENT_CLIENT_H_
