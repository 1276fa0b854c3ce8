// The per-connection ingest protocol state machine.
//
// One ddoscoped ingest connection speaks a line protocol over TCP:
//
//   client                                server
//   ------                                ------
//   AUTH <token>                          OK <name>            (or ERR ... + close)
//   RESUME <client-id> <last-acked-seq>   OK RESUME <have>     (optional)
//   <attack CSV row>                      -
//   <attack CSV row>                      ACK <n>              (every ack_every rows)
//   PING                                  PONG <n>
//   <attack CSV row>                      -
//   END                                   ACK <n> end  + close
//
// RESUME binds the connection to a named session whose committed record
// count survives reconnects (and, via the journal, server restarts). The
// server answers with its committed count `have` for that session; the
// client drops everything it sent at-or-below `have` and resends the rest,
// which makes reconnect exactly-once: nothing the server already committed
// is ever pushed twice, and nothing unacked is lost. After a RESUME every
// number the server speaks (ACK/PONG) is session-cumulative, not
// per-connection. A session can be held by only one live connection
// (`ERR session-busy` - retryable, since a dead predecessor releases it
// when the server reaps the socket).
//
// The AUTH exchange is required only when the server has tokens configured;
// with an empty AuthTable a client streams rows immediately (the `nc`
// path). Rows are the Table-I attack CSV schema, one record per line; a
// header line is recognized and skipped so `ddoscope feed` can replay a
// saved trace verbatim. Malformed rows are counted per IngestErrorKind and
// dropped (the daemon equivalent of `--on-error skip`); they never kill the
// connection. Exceeding the client's record quota, failing auth, or
// breaking the protocol does: the server sends a final `ERR <reason>` line
// and closes. On graceful drain the server sends `ACK <n> drain`, so the
// client's durable high-water mark is always the last ACK it saw - the
// records after it are the unacked tail to replay after a restart.
//
// IngestProtocol is pure state machine: complete lines in, replies and
// parsed records out. Sockets, polling, and the engine live in
// netd/server.cpp; tests drive this class directly with strings.
#ifndef DDOSCOPE_NETD_CONNECTION_H_
#define DDOSCOPE_NETD_CONNECTION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/id_set.h"
#include "data/ingest_error.h"
#include "data/records.h"
#include "netd/auth.h"

namespace ddos::netd {

// Committed record counts per named session, plus which sessions are
// currently bound to a live connection. Owned and touched only by the
// server's router thread (same single-thread contract as the engine
// router), so it needs no locking.
class SessionTable {
 public:
  std::uint64_t Get(const std::string& id) const {
    const auto it = counts_.find(id);
    return it == counts_.end() ? 0 : it->second;
  }
  void Set(const std::string& id, std::uint64_t committed) {
    counts_[id] = committed;
  }
  // Binds `id` to a connection; false when another live connection holds it.
  bool Acquire(const std::string& id) { return active_.insert(id).second; }
  void Release(const std::string& id) { active_.erase(id); }
  std::size_t size() const { return counts_.size(); }

 private:
  std::unordered_map<std::string, std::uint64_t> counts_;
  std::unordered_set<std::string> active_;
};

enum class ConnState : std::uint8_t {
  kAwaitAuth,   // waiting for the AUTH line
  kStreaming,   // accepting records
  kClosing,     // terminal reply queued; close after it flushes
};

enum class CloseReason : std::uint8_t {
  kNone = 0,
  kEndOfFeed,      // client sent END
  kAuthFailure,    // unknown token or missing AUTH
  kQuotaExceeded,  // per-client record quota hit
  kProtocolError,  // e.g. AUTH mid-stream
  kDrained,        // server-side graceful drain
  kSlowClient,     // pending replies exceeded the output byte budget
  kJournalFailure, // write-ahead journal append failed; records not committed
};

std::string_view CloseReasonName(CloseReason reason);

struct IngestLimits {
  std::uint64_t ack_every = 1024;          // rows between periodic ACKs
  std::uint64_t default_max_records = 0;   // quota for unauthenticated feeds
  bool detect_duplicate_ids = true;        // per-connection ddos_id dedupe
};

class IngestProtocol {
 public:
  struct LineResult {
    bool has_record = false;  // *record is valid; the caller must ingest it
                              // and then call OnRecordIngested()
    bool close = false;       // close after flushing TakeOutput()
  };

  // `auth` may be null or empty (authentication disabled); `sessions` may
  // be null (RESUME rejected as a protocol error). Both must outlive the
  // protocol object.
  IngestProtocol(const AuthTable* auth, const IngestLimits& limits,
                 SessionTable* sessions = nullptr);

  // Consumes one complete line (terminator already stripped). `overflow`
  // marks a line the framer truncated (counted as kTruncatedLine).
  LineResult OnLine(const std::string& line, bool overflow,
                    data::AttackRecord* record);

  // Acknowledges that the record returned by the last OnLine call was
  // pushed into the engine; queues a periodic ACK when one is due.
  void OnRecordIngested();

  // Graceful server-side drain: queues the final `ACK <n> drain` and moves
  // to kClosing.
  void OnDrain();

  // Protocol bytes waiting for the client; the caller owns flushing them.
  std::string TakeOutput() { return std::move(output_); }
  bool has_output() const { return !output_.empty(); }

  ConnState state() const { return state_; }
  CloseReason close_reason() const { return close_reason_; }
  const std::string& client_name() const { return client_name_; }
  std::uint64_t records() const { return records_; }
  std::uint64_t rejected() const { return rejected_; }
  const data::IngestErrorReport& errors() const { return errors_; }

  // "" until a RESUME succeeded on this connection.
  const std::string& session_id() const { return session_id_; }
  // Session-cumulative count: the base committed before this connection
  // plus rows accepted on it. Equals records() for sessionless feeds.
  std::uint64_t session_total() const { return session_base_ + records_; }

 private:
  void Reject(data::IngestErrorKind kind);
  void CloseWith(CloseReason reason, const std::string& err_line);
  LineResult HandleResume(const std::string& line);

  const AuthTable* auth_;
  IngestLimits limits_;
  SessionTable* sessions_;
  ConnState state_;
  CloseReason close_reason_ = CloseReason::kNone;
  std::string client_name_ = "anonymous";
  std::string session_id_;
  std::uint64_t session_base_ = 0;  // committed before this connection
  std::uint64_t max_records_ = 0;  // resolved quota; 0 = unlimited
  std::uint64_t records_ = 0;      // accepted (ingested) rows
  std::uint64_t rejected_ = 0;     // malformed / duplicate rows dropped
  data::IngestErrorReport errors_;
  common::IdSet seen_ids_;  // per connection: a reconnect starts empty
  std::string output_;
};

}  // namespace ddos::netd

#endif  // DDOSCOPE_NETD_CONNECTION_H_
