// Differential fuzz of the CSV tokenizer and the attack-row parse built on
// it. Botsim rows are mutated (quote/comma/CR/space insertions, truncation,
// splicing two rows) by forked Rng substreams, and every mutant must:
//
//  * split exactly as the reference character-at-a-time RFC-4180 state
//    machine below does (fields, field count, unterminated flag);
//  * get the same TryParseAttackLine verdict, kind, detail and record as
//    validating the reference split;
//  * honor the pre-scan contract (data/linescan.h): a pre-scan rejection
//    implies a full-parse rejection, of the same kind and detail when the
//    mutant carries a single mutation;
//  * read the same value from every field through ParseInt64, IPv4 parsing
//    and family/protocol matching as reference copies of the string-based
//    implementations those fast paths stand in for.
#include <charconv>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "data/csv.h"
#include "data/linescan.h"
#include "net/ipv4.h"
#include "test_support.h"

namespace ddos::data {
namespace {

// The reference splitter: one state machine over every byte, appending
// into std::strings.
void ReferenceSplit(std::string_view line, std::vector<std::string>* fields,
                    bool* unterminated_quote) {
  fields->assign(1, std::string());
  std::string* current = &fields->back();
  bool in_quotes = false;
  bool at_field_start = true;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current->push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current->push_back(c);
      }
    } else if (c == '"' && at_field_start) {
      in_quotes = true;
      at_field_start = false;
    } else if (c == ',') {
      fields->emplace_back();
      current = &fields->back();
      at_field_start = true;
    } else {
      current->push_back(c);
      at_field_start = false;
    }
  }
  *unterminated_quote = in_quotes;
}

std::optional<std::int64_t> ReferenceInt64(std::string_view text) {
  std::string_view s = Trim(text);
  if (!s.empty() && s.front() == '+') {
    s.remove_prefix(1);
    if (s.empty() || s.front() == '-' || s.front() == '+') return std::nullopt;
  }
  if (s.empty()) return std::nullopt;
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::uint32_t> ReferenceIpv4Bits(std::string_view text) {
  const auto parts = Split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t bits = 0;
  for (const auto& part : parts) {
    const auto v = ReferenceInt64(part);
    if (!v || *v < 0 || *v > 255) return std::nullopt;
    bits = (bits << 8) | static_cast<std::uint32_t>(*v);
  }
  return bits;
}

// Name matching as ToLower on both sides; `lower` is ToLower(field).
std::optional<Family> ReferenceFamily(const std::string& lower) {
  for (const Family f : AllFamilies()) {
    if (ToLower(FamilyName(f)) == lower) return f;
  }
  return std::nullopt;
}

std::optional<Protocol> ReferenceProtocol(const std::string& lower) {
  for (const Protocol p : AllProtocols()) {
    if (ToLower(ProtocolName(p)) == lower) return p;
  }
  return std::nullopt;
}

std::string RowFor(const AttackRecord& record) {
  std::ostringstream out;
  WriteAttackCsvRow(out, record);
  std::string row = out.str();
  row.pop_back();  // '\n'
  return row;
}

// Botsim rows, plus copies whose text columns need quoting (a comma, a
// doubled quote, a leading quote) so mutations also land in quoted fields.
std::vector<std::string> BaseRows() {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < attacks.size() && rows.size() < 400; ++i) {
    rows.push_back(RowFor(attacks[i]));
    if (i % 4 == 0) {
      AttackRecord quoted = attacks[i];
      quoted.city = "Washington, DC";
      quoted.organization = "Org \"Q\" Ltd";
      quoted.cc = "\"U";
      rows.push_back(RowFor(quoted));
    }
  }
  return rows;
}

struct Mutant {
  std::string line;
  int mutations = 0;
};

Mutant Mutate(const std::vector<std::string>& rows, Rng& rng) {
  static constexpr std::string_view kInserts[] = {",", "\"", "\"\"", "\r", " "};
  const auto pick_row = [&]() -> const std::string& {
    return rows[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(rows.size()) - 1))];
  };
  const auto pos_in = [&](const std::string& s) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(s.size())));
  };
  Mutant m{pick_row(), static_cast<int>(rng.UniformInt(1, 3))};
  for (int i = 0; i < m.mutations; ++i) {
    switch (rng.UniformInt(0, 4)) {
      case 0:
      case 1:
      case 2: {  // insertion, the commonest corruption
        const std::string_view text =
            kInserts[static_cast<std::size_t>(rng.UniformInt(0, 4))];
        m.line.insert(pos_in(m.line), text);
        break;
      }
      case 3:  // truncation
        m.line.resize(pos_in(m.line));
        break;
      default: {  // splice: a prefix of this row, a suffix of another
        const std::string& other = pick_row();
        m.line = m.line.substr(0, pos_in(m.line)) + other.substr(pos_in(other));
        break;
      }
    }
  }
  return m;
}

void ExpectSameRecord(const AttackRecord& a, const AttackRecord& b) {
  EXPECT_EQ(a.ddos_id, b.ddos_id);
  EXPECT_EQ(a.botnet_id, b.botnet_id);
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.category, b.category);
  EXPECT_EQ(a.target_ip, b.target_ip);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.asn, b.asn);
  EXPECT_EQ(a.cc, b.cc);
  EXPECT_EQ(a.city, b.city);
  EXPECT_EQ(a.location, b.location);
  EXPECT_EQ(a.organization, b.organization);
  EXPECT_EQ(a.magnitude, b.magnitude);
}

TEST(CsvTokenizerFuzz, MutantsMatchTheReferenceEverywhere) {
  const std::vector<std::string> rows = BaseRows();
  ASSERT_GT(rows.size(), 100u);
  const Rng root(20150622);
  CsvTokenizer tokenizer;
  AttackLinePreScanner prescan;
  std::vector<std::string> ref;
  std::vector<std::string_view> ref_views;
  int rejected = 0;
  int prescan_rejected = 0;
  constexpr int kMutants = 20000;
  for (int i = 0; i < kMutants; ++i) {
    Rng rng = root.Fork(static_cast<std::uint64_t>(i));
    const Mutant m = Mutate(rows, rng);
    SCOPED_TRACE(m.line);

    bool ref_unterminated = false;
    ReferenceSplit(m.line, &ref, &ref_unterminated);
    const auto fields = tokenizer.Split(m.line);
    EXPECT_EQ(tokenizer.unterminated(), ref_unterminated);
    ASSERT_EQ(fields.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      ASSERT_EQ(fields[k], ref[k]) << "field " << k;
    }

    // The full parse against validation of the reference split.
    ref_views.assign(ref.begin(), ref.end());
    AttackRecord want;
    IngestError want_err;
    bool want_ok = false;
    if (ref_unterminated) {
      want_err.kind = IngestErrorKind::kUnterminatedQuote;
      want_err.detail = "line ended inside a quoted field";
    } else {
      want_ok = TryParseAttackFields(ref_views, &want, &want_err);
    }
    AttackRecord got;
    IngestError got_err;
    const bool got_ok = TryParseAttackLine(m.line, &got, &got_err);
    ASSERT_EQ(got_ok, want_ok);
    if (got_ok) {
      ExpectSameRecord(got, want);
    } else {
      ++rejected;
      EXPECT_EQ(got_err.kind, want_err.kind);
      EXPECT_EQ(got_err.detail, want_err.detail);
    }

    AttackLinePreScan scan;
    IngestError pre_err;
    if (!prescan.Scan(m.line, &scan, &pre_err)) {
      ++prescan_rejected;
      EXPECT_FALSE(got_ok) << "pre-scan rejected: " << pre_err.detail;
      if (m.mutations == 1) {
        EXPECT_EQ(pre_err.kind, got_err.kind);
        EXPECT_EQ(pre_err.detail, got_err.detail);
      }
    } else if (got_ok) {
      EXPECT_EQ(scan.ddos_id, got.ddos_id);
      EXPECT_EQ(scan.botnet_id, got.botnet_id);
      EXPECT_EQ(scan.target_bits, got.target_ip.bits());
      EXPECT_EQ(scan.start_s, got.start_time.seconds());
      EXPECT_EQ(scan.end_s, got.end_time.seconds());
    }

    for (const std::string& f : ref) {
      EXPECT_EQ(ParseInt64(f), ReferenceInt64(f)) << f;
      const auto ip = net::IPv4Address::Parse(f);
      const auto ref_ip = ReferenceIpv4Bits(f);
      ASSERT_EQ(ip.has_value(), ref_ip.has_value()) << f;
      if (ip) {
        EXPECT_EQ(ip->bits(), *ref_ip) << f;
      }
      // No family or protocol name is longer than 12 bytes, so longer
      // fields skip the (allocating) reference match.
      if (f.size() <= 12) {
        const std::string lower = ToLower(f);
        EXPECT_EQ(ParseFamily(f), ReferenceFamily(lower)) << f;
        EXPECT_EQ(ParseProtocol(f), ReferenceProtocol(lower)) << f;
      }
    }
  }
  // The mutations must reach both verdicts and every rejection site, or
  // the agreement above shows little.
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_LT(rejected, kMutants);
  EXPECT_GT(prescan_rejected, kMutants / 8);
}

// Hand-picked shapes the fast paths split differently from the state
// machine: views between quotes, unescaping into scratch, text after a
// closing quote, and several unescaped fields in one line (scratch must not
// move under an earlier view).
TEST(CsvTokenizer, EdgeShapesMatchTheReference) {
  const std::string_view lines[] = {
      "",
      ",",
      "\"",
      "\"\"",
      "\"\"\"",
      "\"\"\"\"",
      "a,\"\"",
      "\"a\"b,c",
      "\"a\"\"b\",\"c\"\"d\",\"e\"f\"g,h",
      "\"a\",\"b\"",
      "a\"b\",c",
      "\"a,b",
      "\"a\"\"",
      "x,\"\"\"\",\"\"y",
      "\"ab\"\"cd\"ef\"\"gh,\"\"\"\"\"\"",
      "\r,\"\r\",\" \"\r",
  };
  CsvTokenizer tokenizer;
  std::vector<std::string> ref;
  for (const std::string_view line : lines) {
    SCOPED_TRACE(std::string(line));
    bool ref_unterminated = false;
    ReferenceSplit(line, &ref, &ref_unterminated);
    const auto fields = tokenizer.Split(line);
    EXPECT_EQ(tokenizer.unterminated(), ref_unterminated);
    ASSERT_EQ(fields.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) EXPECT_EQ(fields[k], ref[k]);
    bool unterminated = !ref_unterminated;
    EXPECT_EQ(ParseCsvLine(line, &unterminated), ref);
    EXPECT_EQ(unterminated, ref_unterminated);
  }
}

}  // namespace
}  // namespace ddos::data
