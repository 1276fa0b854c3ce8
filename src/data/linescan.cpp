#include "data/linescan.h"

#include <cstring>

#include "net/ipv4.h"

namespace ddos::data {

bool LineSpanScanner::Next(LineSpan* out) {
  if (pos_ >= buffer_.size()) return false;
  const std::size_t start = static_cast<std::size_t>(pos_);
  const void* nl =
      std::memchr(buffer_.data() + start, '\n', buffer_.size() - start);
  std::size_t end;
  bool saw_newline;
  if (nl != nullptr) {
    end = static_cast<std::size_t>(static_cast<const char*>(nl) -
                                   buffer_.data());
    pos_ = end + 1;
    saw_newline = true;
  } else {
    end = buffer_.size();
    pos_ = end;
    saw_newline = false;
  }
  std::size_t len = end - start;
  // CRLF: the '\r' is line-ending bytes, not data (same as ReadCsvLine).
  if (len > 0 && buffer_[start + len - 1] == '\r') --len;
  out->text = buffer_.substr(start, len);
  out->line_no = ++line_no_;
  out->offset = start;
  out->saw_newline = saw_newline;
  return true;
}

bool AttackLinePreScanner::Scan(std::string_view line, AttackLinePreScan* out,
                                IngestError* err) {
  // The full parse's tokenizer, shape check and column checks, run only on
  // the routed columns and in the full parse's column order.
  if (!SplitAttackRow(line, &tokenizer_, err)) return false;
  const auto f = tokenizer_.fields();
  net::IPv4Address target;
  TimePoint start;
  TimePoint end;
  if (!ParseAttackId(f[0], &out->ddos_id, err) ||
      !ParseAttackU32("botnet_id", f[1], &out->botnet_id, err) ||
      !ParseAttackIp(f[4], &target, err) ||
      !ParseAttackTimes(f[5], f[6], &start, &end, err)) {
    return false;
  }
  out->target_bits = target.bits();
  out->start_s = start.seconds();
  out->end_s = end.seconds();
  return true;
}

}  // namespace ddos::data
