#include "data/ingest_error.h"

#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "common/strings.h"

namespace ddos::data {

std::string_view IngestErrorKindName(IngestErrorKind kind) {
  switch (kind) {
    case IngestErrorKind::kBadFieldCount:
      return "bad-field-count";
    case IngestErrorKind::kUnparseableNumber:
      return "unparseable-number";
    case IngestErrorKind::kUnterminatedQuote:
      return "unterminated-quote";
    case IngestErrorKind::kOutOfRangeTimestamp:
      return "out-of-range-timestamp";
    case IngestErrorKind::kNegativeDuration:
      return "negative-duration";
    case IngestErrorKind::kDuplicateId:
      return "duplicate-id";
    case IngestErrorKind::kTruncatedLine:
      return "truncated-line";
  }
  return "unknown";
}

std::string StrictErrorMessage(const IngestError& error) {
  return StrFormat("CSV: %s: %s at line %zu",
                   std::string(IngestErrorKindName(error.kind)).c_str(),
                   error.detail.c_str(), error.line_no);
}

std::string IngestErrorReport::ToString() const {
  std::string out;
  for (int k = 0; k < kIngestErrorKindCount; ++k) {
    if (counts[static_cast<std::size_t>(k)] == 0) continue;
    out += StrFormat(
        "  %s: %llu\n",
        std::string(IngestErrorKindName(static_cast<IngestErrorKind>(k)))
            .c_str(),
        static_cast<unsigned long long>(counts[static_cast<std::size_t>(k)]));
  }
  return out;
}

QuarantineWriter::QuarantineWriter(const std::string& path)
    : path_(path), tmp_path_(path + ".tmp"), file_(tmp_path_), out_(&file_) {
  if (!file_) {
    throw std::runtime_error("QuarantineWriter: cannot open " + tmp_path_);
  }
}

QuarantineWriter::QuarantineWriter(std::ostream& out) : out_(&out) {}

QuarantineWriter::~QuarantineWriter() {
  try {
    Close();
  } catch (...) {
    // Close() already removed the stage file; a destructor cannot usefully
    // propagate the failure.
  }
}

void QuarantineWriter::Write(const IngestError& error) {
  if (closed_) {
    throw std::runtime_error("QuarantineWriter: Write after Close");
  }
  *out_ << "# line " << error.line_no << ": "
        << IngestErrorKindName(error.kind) << ": " << error.detail << '\n'
        << error.raw_line << '\n';
  ++written_;
}

void QuarantineWriter::Close() {
  if (closed_) return;
  closed_ = true;
  if (tmp_path_.empty()) {
    out_->flush();
    return;
  }
  file_.flush();
  const bool write_ok = static_cast<bool>(file_);
  file_.close();
  if (!write_ok) {
    std::remove(tmp_path_.c_str());
    throw std::runtime_error("QuarantineWriter: write failed: " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    throw std::runtime_error("QuarantineWriter: cannot rename " + tmp_path_ +
                             " to " + path_);
  }
}

}  // namespace ddos::data
