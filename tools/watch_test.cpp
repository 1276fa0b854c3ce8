// End-to-end characterization of `ddoscope watch`, driving the built binary
// over a `ddoscope generate` trace:
//
//  * every source - a CSV file, CSV on stdin, a `ddoscope convert` binary
//    file - prints the same stdout at the same shard count K, also when
//    blank and rejected lines sit at a --every boundary;
//  * a run checkpointed on a line-aligned prefix and resumed over the full
//    feed ends with the view of an uninterrupted run, writing the
//    checkpoint version its mode writes (5 at K=1, 6 above);
//  * on an errorful feed, --on-error quarantine=F writes byte-identical
//    quarantine files and --on-error abort the same message and exit code
//    for every CSV source and K.
//
// Lines that report memory, rates or timing ("engine state ~N KiB",
// "[stats] ...") are dropped before comparing. The K=2 source runs arm the
// --stats-interval ticker, which reads the engine from the router thread
// while the shard workers apply.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/fault_injector.h"

namespace {

enum class Source { kCsvFile, kStdin, kBinFile };
constexpr Source kSources[] = {Source::kCsvFile, Source::kStdin,
                               Source::kBinFile};

struct Mode {
  Source source;
  int shards;
};

std::string ModeName(const Mode& m) {
  static const char* const kNames[] = {"csv-file", "stdin", "bin-file"};
  return std::string(kNames[static_cast<int>(m.source)]) + "/K" +
         std::to_string(m.shards);
}

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

// Drops the lines whose content depends on memory layout or the clock.
std::string Normalize(const std::string& out) {
  std::istringstream in(out);
  std::string line;
  std::string kept;
  while (std::getline(in, line)) {
    if (line.rfind("[stats] ", 0) == 0) continue;
    if (line.rfind("engine state ~", 0) == 0) continue;
    kept += line + "\n";
  }
  return kept;
}

std::string FinalView(const std::string& out) {
  const std::size_t at = out.find("---- final summary");
  return at == std::string::npos ? std::string() : Normalize(out.substr(at));
}

class WatchCli : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per process: gtest_discover_tests runs every case as its own process,
    // so a shared directory would be written and removed concurrently.
    dir_ = new std::string(testing::TempDir() + "ddoscope_watch_test_" +
                           std::to_string(::getpid()));
    std::filesystem::create_directories(*dir_);
    const RunResult gen =
        Cli("generate --scale 0.2 --days 60 --seed 7 --out " +
            Quote(Path("trace.csv")));
    ASSERT_EQ(gen.exit_code, 0) << gen.err;
    const RunResult conv = Cli("convert " + Quote(Path("trace.csv")) + " " +
                               Quote(Path("trace.bin")));
    ASSERT_EQ(conv.exit_code, 0) << conv.err;
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static std::string Path(const std::string& name) {
    return *dir_ + "/" + name;
  }

  // Runs `ddoscope ARGS [< stdin_path]`, capturing stdout and stderr.
  static RunResult Cli(const std::string& args,
                       const std::string& stdin_path = "") {
    const std::string out = Path("stdout.txt");
    const std::string err = Path("stderr.txt");
    std::string cmd = Quote(DDOSCOPE_CLI) + " " + args;
    if (!stdin_path.empty()) cmd += " < " + Quote(stdin_path);
    cmd += " > " + Quote(out) + " 2> " + Quote(err);
    const int status = std::system(cmd.c_str());
    RunResult r;
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.out = ReadFile(out);
    r.err = ReadFile(err);
    return r;
  }

  // `watch` over `stem`.csv (or .bin for the binary source) in mode `m`.
  static RunResult Watch(const Mode& m, const std::string& stem,
                         const std::string& extra) {
    std::string args;
    std::string stdin_path;
    switch (m.source) {
      case Source::kCsvFile:
        args = "watch " + Quote(Path(stem + ".csv"));
        break;
      case Source::kStdin:
        args = "watch -";
        stdin_path = Path(stem + ".csv");
        break;
      case Source::kBinFile:
        args = "watch " + Quote(Path(stem + ".bin")) + " --input-format bin";
        break;
    }
    args += " --shards " + std::to_string(m.shards) + " " + extra;
    return Cli(args, stdin_path);
  }

  static void ExpectSourcesAgree(int shards, const std::string& extra) {
    const Mode reference{Source::kCsvFile, shards};
    const RunResult ref = Watch(reference, "trace", "--every 1000");
    ASSERT_EQ(ref.exit_code, 0) << ref.err;
    ASSERT_NE(FinalView(ref.out), "");
    for (const Source s : kSources) {
      const Mode m{s, shards};
      SCOPED_TRACE(ModeName(m));
      const RunResult r = Watch(m, "trace", "--every 1000 " + extra);
      ASSERT_EQ(r.exit_code, 0) << r.err;
      EXPECT_EQ(Normalize(r.out), Normalize(ref.out));
    }
  }

  // Writes `to`.csv: the header plus the first `rows` data rows of
  // `from`.csv, a line-aligned byte prefix.
  static void WritePrefix(const std::string& from, const std::string& to,
                          int rows) {
    std::ifstream in(Path(from + ".csv"));
    std::ofstream out(Path(to + ".csv"));
    std::string line;
    for (int i = 0; i <= rows && std::getline(in, line); ++i) {
      out << line << "\n";
    }
  }

  static void ExpectResumeMatchesUninterruptedRun(int shards) {
    // 2,500 rows end off both the --every and the --checkpoint-every grid.
    WritePrefix("trace", "prefix", 2500);
    const RunResult conv = Cli("convert " + Quote(Path("prefix.csv")) + " " +
                               Quote(Path("prefix.bin")));
    ASSERT_EQ(conv.exit_code, 0) << conv.err;
    for (const Source s : kSources) {
      ExpectResumeMatches({s, shards}, "trace", "prefix", "--every 1000");
    }
  }

  // A run over `prefix` checkpointed, then resumed over `stem`, ends with
  // the view of an uninterrupted run over `stem`.
  static void ExpectResumeMatches(const Mode& m, const std::string& stem,
                                  const std::string& prefix,
                                  const std::string& extra) {
    SCOPED_TRACE(ModeName(m));
    const std::string ckpt = Path("watch.ckpt");
    std::filesystem::remove(ckpt);
    const RunResult full = Watch(m, stem, extra);
    ASSERT_EQ(full.exit_code, 0) << full.err;
    const std::string flags = extra + " --checkpoint " + Quote(ckpt) +
                              " --checkpoint-every 700";
    const RunResult first = Watch(m, prefix, flags);
    ASSERT_EQ(first.exit_code, 0) << first.err;

    // Checkpoint format version: u32 little-endian after the 8-byte magic.
    const std::string bytes = ReadFile(ckpt);
    ASSERT_GE(bytes.size(), 12u);
    std::uint32_t version = 0;
    for (int i = 3; i >= 0; --i) {
      version = version << 8 | static_cast<std::uint8_t>(bytes[8 + i]);
    }
    EXPECT_EQ(version, m.shards == 1 ? 5u : 6u);

    const RunResult resumed = Watch(m, stem, flags + " --resume");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.err;
    EXPECT_EQ(resumed.out.rfind("resumed from ", 0), 0u) << resumed.out;
    EXPECT_EQ(FinalView(resumed.out), FinalView(full.out));
    // Every line after the resume point - live views, the rejection
    // report, the final view - is the uninterrupted run's.
    const std::string tail =
        Normalize(resumed.out.substr(resumed.out.find('\n') + 1));
    const std::string whole = Normalize(full.out);
    ASSERT_GE(whole.size(), tail.size());
    EXPECT_EQ(whole.substr(whole.size() - tail.size()), tail);
  }

  // A fault-injected copy of the trace: every fault class at 2 %, plus a
  // torn final row.
  static void WriteErrorfulFeed() {
    std::ifstream clean(Path("trace.csv"));
    ddos::data::FaultInjector faults(
        clean, ddos::data::FaultInjectorConfig::AllFaults(11, 0.02));
    std::ofstream out(Path("faulty.csv"));
    out << faults.stream().rdbuf();
  }

  static std::string* dir_;
};

std::string* WatchCli::dir_ = nullptr;

const std::vector<Mode> kCsvModes = {{Source::kCsvFile, 1},
                                     {Source::kCsvFile, 2},
                                     {Source::kStdin, 1},
                                     {Source::kStdin, 2}};

TEST_F(WatchCli, SourcesPrintTheSameViewAtK1) { ExpectSourcesAgree(1, ""); }

TEST_F(WatchCli, SourcesPrintTheSameViewAtK2WithTheTickerArmed) {
  ExpectSourcesAgree(2, "--stats-interval 0.0001");
}

TEST_F(WatchCli, ResumeMatchesUninterruptedRunAtK1) {
  ExpectResumeMatchesUninterruptedRun(1);
}

TEST_F(WatchCli, ResumeMatchesUninterruptedRunAtK2) {
  ExpectResumeMatchesUninterruptedRun(2);
}

// Under --on-error skip a row repeating the id of a row ingested before
// the checkpoint is a duplicate after --resume too: the checkpoint carries
// the seen ids (a CSV file), or the replayed prefix rebuilds them (stdin).
TEST_F(WatchCli, ResumeStillRejectsARepeatOfAnIdIngestedBeforeTheCheckpoint) {
  {
    std::ifstream in(Path("trace.csv"));
    std::ofstream out(Path("repeat.csv"));
    std::string line;
    std::string row100;
    for (int i = 0; std::getline(in, line); ++i) {
      out << line << "\n";
      if (i == 100) row100 = line;
      if (i == 2000) out << row100 << "\n";
    }
  }
  WritePrefix("repeat", "repeat_prefix", 1500);
  const std::string flags = "--every 1000 --on-error skip";
  const RunResult full = Watch({Source::kCsvFile, 1}, "repeat", flags);
  ASSERT_EQ(full.exit_code, 0) << full.err;
  EXPECT_NE(full.out.find("1 malformed rows rejected:\n  duplicate-id: 1\n"),
            std::string::npos)
      << full.out;
  for (const Mode& m : kCsvModes) {
    ExpectResumeMatches(m, "repeat", "repeat_prefix", flags);
  }
}

// A blank line and a row the span router rejects leave attacks_seen()
// unchanged: the span path must not repeat the live view on them.
TEST_F(WatchCli, RejectedLinesDoNotRepeatTheLiveViewAtK2) {
  {
    std::ifstream in(Path("trace.csv"));
    std::ofstream out(Path("gappy.csv"));
    std::string line;
    for (int i = 0; std::getline(in, line); ++i) {
      out << line << "\n";
      if (i == 1000) out << "\nonly,five,fields,in,total\n";
    }
  }
  const std::string flags = "--every 1000 --on-error skip";
  const RunResult records = Watch({Source::kStdin, 2}, "gappy", flags);
  const RunResult spans = Watch({Source::kCsvFile, 2}, "gappy", flags);
  ASSERT_EQ(records.exit_code, 0) << records.err;
  ASSERT_EQ(spans.exit_code, 0) << spans.err;
  EXPECT_EQ(Normalize(spans.out), Normalize(records.out));
}

TEST_F(WatchCli, QuarantineIsByteIdenticalAcrossCsvSourcesAndK) {
  WriteErrorfulFeed();
  std::string reference;
  for (const Mode& m : kCsvModes) {
    SCOPED_TRACE(ModeName(m));
    const std::string q = Path("quarantine.csv");
    const RunResult r = Watch(m, "faulty", "--every 0 --on-error quarantine=" +
                                               Quote(q));
    ASSERT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("malformed rows rejected"), std::string::npos);
    const std::string bytes = ReadFile(q);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) reference = bytes;
    EXPECT_EQ(bytes, reference);
  }
}

TEST_F(WatchCli, AbortGivesTheSameMessageAndExitCodeAcrossCsvSourcesAndK) {
  WriteErrorfulFeed();
  RunResult reference;
  for (const Mode& m : kCsvModes) {
    SCOPED_TRACE(ModeName(m));
    const RunResult r = Watch(m, "faulty", "--every 0 --on-error abort");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find(" at line "), std::string::npos) << r.err;
    if (reference.exit_code == -1) reference = r;
    EXPECT_EQ(r.err, reference.err);
  }
}

}  // namespace
