#include "netd/connection.h"

#include "common/strings.h"
#include "data/csv.h"

namespace ddos::netd {

namespace {

// A row starting with the first header column is the archival header line;
// tolerated so saved traces replay verbatim.
bool IsHeaderLine(const std::string& line) {
  return line.rfind("ddos_id,", 0) == 0;
}

bool IsValidSessionId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::string_view CloseReasonName(CloseReason reason) {
  switch (reason) {
    case CloseReason::kNone: return "none";
    case CloseReason::kEndOfFeed: return "end";
    case CloseReason::kAuthFailure: return "auth";
    case CloseReason::kQuotaExceeded: return "quota";
    case CloseReason::kProtocolError: return "protocol";
    case CloseReason::kDrained: return "drain";
    case CloseReason::kSlowClient: return "slow-client";
    case CloseReason::kJournalFailure: return "journal";
  }
  return "unknown";
}

IngestProtocol::IngestProtocol(const AuthTable* auth,
                               const IngestLimits& limits,
                               SessionTable* sessions)
    : auth_(auth), limits_(limits), sessions_(sessions) {
  const bool auth_required = auth_ != nullptr && !auth_->empty();
  state_ = auth_required ? ConnState::kAwaitAuth : ConnState::kStreaming;
  if (!auth_required) max_records_ = limits_.default_max_records;
}

void IngestProtocol::Reject(data::IngestErrorKind kind) {
  errors_.Add(kind);
  ++rejected_;
}

void IngestProtocol::CloseWith(CloseReason reason,
                               const std::string& err_line) {
  state_ = ConnState::kClosing;
  close_reason_ = reason;
  output_ += err_line;
}

IngestProtocol::LineResult IngestProtocol::OnLine(const std::string& line,
                                                  bool overflow,
                                                  data::AttackRecord* record) {
  LineResult result;
  if (state_ == ConnState::kClosing) {
    result.close = true;
    return result;
  }

  if (state_ == ConnState::kAwaitAuth) {
    if (line.rfind("AUTH ", 0) != 0) {
      CloseWith(CloseReason::kAuthFailure, "ERR auth-required\n");
      result.close = true;
      return result;
    }
    const std::string_view token = Trim(std::string_view(line).substr(5));
    const TokenSpec* spec = auth_->Lookup(token);
    if (spec == nullptr) {
      CloseWith(CloseReason::kAuthFailure, "ERR unauthorized\n");
      result.close = true;
      return result;
    }
    client_name_ = spec->name;
    max_records_ = spec->max_records;
    state_ = ConnState::kStreaming;
    output_ += "OK " + client_name_ + "\n";
    return result;
  }

  // kStreaming.
  if (overflow) {
    Reject(data::IngestErrorKind::kTruncatedLine);
    return result;
  }
  if (line.empty() || IsHeaderLine(line)) return result;
  if (line.rfind("RESUME ", 0) == 0) return HandleResume(line);
  if (line == "PING") {
    output_ += StrFormat("PONG %llu\n",
                         static_cast<unsigned long long>(session_total()));
    return result;
  }
  if (line == "END") {
    CloseWith(CloseReason::kEndOfFeed,
              StrFormat("ACK %llu end\n",
                        static_cast<unsigned long long>(session_total())));
    result.close = true;
    return result;
  }
  if (line.rfind("AUTH ", 0) == 0) {
    CloseWith(CloseReason::kProtocolError, "ERR unexpected-auth\n");
    result.close = true;
    return result;
  }

  data::IngestError err;
  if (!data::TryParseAttackLine(line, record, &err)) {
    Reject(err.kind);
    return result;
  }
  if (limits_.detect_duplicate_ids && !seen_ids_.Insert(record->ddos_id)) {
    Reject(data::IngestErrorKind::kDuplicateId);
    return result;
  }
  if (max_records_ > 0 && records_ >= max_records_) {
    CloseWith(CloseReason::kQuotaExceeded,
              StrFormat("ERR quota-exceeded after %llu records\n",
                        static_cast<unsigned long long>(records_)));
    result.close = true;
    return result;
  }
  result.has_record = true;
  return result;
}

IngestProtocol::LineResult IngestProtocol::HandleResume(
    const std::string& line) {
  LineResult result;
  // RESUME must come before any data: once rows were accepted under one
  // identity, rebinding the counts mid-stream would corrupt both sessions.
  if (sessions_ == nullptr || records_ > 0 || !session_id_.empty()) {
    CloseWith(CloseReason::kProtocolError, "ERR unexpected-resume\n");
    result.close = true;
    return result;
  }
  const auto parts = Split(Trim(std::string_view(line).substr(7)), ' ');
  if (parts.empty() || parts.size() > 2 || !IsValidSessionId(parts[0])) {
    CloseWith(CloseReason::kProtocolError, "ERR bad-session-id\n");
    result.close = true;
    return result;
  }
  const std::string id(parts[0]);
  if (!sessions_->Acquire(id)) {
    CloseWith(CloseReason::kProtocolError, "ERR session-busy\n");
    result.close = true;
    return result;
  }
  session_id_ = id;
  session_base_ = sessions_->Get(id);
  // The client's claimed last-acked seq (parts[1], when present) is
  // informational: the server's committed count is authoritative and is
  // what the client prunes against.
  output_ += StrFormat("OK RESUME %llu\n",
                       static_cast<unsigned long long>(session_base_));
  return result;
}

void IngestProtocol::OnRecordIngested() {
  ++records_;
  if (limits_.ack_every > 0 && records_ % limits_.ack_every == 0) {
    output_ += StrFormat("ACK %llu\n",
                         static_cast<unsigned long long>(session_total()));
  }
}

void IngestProtocol::OnDrain() {
  if (state_ == ConnState::kClosing) return;
  CloseWith(CloseReason::kDrained,
            StrFormat("ACK %llu drain\n",
                      static_cast<unsigned long long>(session_total())));
}

}  // namespace ddos::netd
