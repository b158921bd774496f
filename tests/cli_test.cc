// `fixrep_cli repair` end to end: one streaming pipeline behind every
// flag combination.
//
// * Bad inputs (an unwritable --out, an unterminated quote in --in, a
//   missing or malformed --rules) exit 1 with the error on stderr and
//   leave nothing under --out's directory — never an abort.
// * Engines, widths, routings, chunk sizes, the rule backend and the
//   error policy change no output byte, and under quarantine no byte of
//   the dead-letter file either.
// * --log prints the cRepair chase's write log: on the travel example,
//   the cell repairs of Fig. 8.
// * A flag the command does not read exits 2 before any file is opened,
//   and every command line perfbench/run.py runs exits 0.

#include <sched.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "relation/csv.h"
#include "repair/session.h"
#include "rulegen/rulegen.h"
#include "rules/rule_io.h"
#include "testing_util.h"

namespace fixrep {
namespace {

using ::fixrep::testing::TestTempPath;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

std::string ToCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

struct CliRun {
  int status = -1;  // as std::system returns it
  std::string out;
  std::string err;

  bool ExitedWith(int code) const {
    return WIFEXITED(status) && WEXITSTATUS(status) == code;
  }
};

class CliRepairTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef FIXREP_CLI_PATH
    GTEST_SKIP() << "built without FIXREP_CLI_PATH";
#else
    cli_ = FIXREP_CLI_PATH;
    if (!std::ifstream(cli_).good()) {
      GTEST_SKIP() << "fixrep_cli not built at " << cli_;
    }
#endif
  }

  // Runs `fixrep_cli <args>` with its stdout and stderr captured.
  CliRun Run(const std::string& args) const {
    const std::string out = TestTempPath("stdout.txt");
    const std::string err = TestTempPath("stderr.txt");
    const std::string command = cli_ + " " + args + " >" + out + " 2>" + err;
    CliRun run;
    run.status = std::system(command.c_str());
    run.out = ReadFile(out);
    run.err = ReadFile(err);
    return run;
  }

  // Noisy hosp rows and rules mined from them, on disk.
  void WriteHosp(const std::string& dirty_path,
                 const std::string& rules_path) const {
    HospOptions options;
    options.rows = 600;
    options.num_hospitals = 40;
    GeneratedData data = GenerateHosp(options);
    Table dirty = data.clean;
    InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
    RuleGenOptions rulegen;
    rulegen.max_rules = 150;
    const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
    ASSERT_GT(rules.size(), 0u);
    WriteFile(dirty_path, ToCsv(dirty));
    ASSERT_TRUE(TryWriteRulesFile(rules, rules_path).ok());
  }

  std::string cli_;
};

TEST_F(CliRepairTest, BadInputsExitOneAndLeaveNoOutput) {
  TravelExample example;
  const std::string dirty = TestTempPath("dirty.csv");
  const std::string rules = TestTempPath("rules.txt");
  const std::string unterminated = TestTempPath("unterminated.csv");
  const std::string garbled = TestTempPath("garbled_rules.txt");
  WriteFile(dirty, ToCsv(example.dirty));
  ASSERT_TRUE(TryWriteRulesFile(example.rules, rules).ok());
  WriteFile(unterminated, ToCsv(example.dirty) + "\"Ian,China,Tokyo\n");
  WriteFile(garbled, "RULE\n  IF no_such_attribute = x\n"
                     "  WRONG capital IN Tokyo\n  THEN capital = Beijing\n"
                     "END\n");
  const std::string out_dir = TestTempPath("out");
  const std::string out = out_dir + "/fixed.csv";
  std::filesystem::create_directories(out_dir);

  struct Case {
    const char* name;
    std::string args;
  };
  const Case cases[] = {
      {"unwritable --out", "--rules " + rules + " --in " + dirty +
                               " --out " + TestTempPath("missing/fixed.csv")},
      {"unterminated quote", "--rules " + rules + " --in " + unterminated +
                                 " --out " + out},
      {"missing --rules", "--rules " + TestTempPath("no_such_rules.txt") +
                              " --in " + dirty + " --out " + out},
      {"malformed --rules",
       "--rules " + garbled + " --in " + dirty + " --out " + out},
  };
  for (const Case& c : cases) {
    for (const char* extra : {"", " --stream", " --engine crepair"}) {
      const std::string context = std::string(c.name) + extra;
      const CliRun run = Run("repair " + c.args + extra);
      EXPECT_TRUE(run.ExitedWith(1))
          << context << ": status " << run.status << ", stderr: " << run.err;
      EXPECT_NE(run.err.find("error"), std::string::npos)
          << context << ": stderr: " << run.err;
      EXPECT_TRUE(std::filesystem::is_empty(out_dir)) << context;
    }
  }
  EXPECT_FALSE(std::filesystem::exists(TestTempPath("missing")));
}

TEST_F(CliRepairTest, EveryRouteWritesTheSameBytes) {
  const std::string dirty = TestTempPath("dirty.csv");
  const std::string rules = TestTempPath("rules.txt");
  const std::string dict = TestTempPath("rules.frd");
  ASSERT_NO_FATAL_FAILURE(WriteHosp(dirty, rules));
  ASSERT_TRUE(Run("rules compile --rules " + rules + " --data " + dirty +
                  " --out " + dict)
                  .ExitedWith(0));

  const std::string reference = TestTempPath("reference.csv");
  const CliRun base = Run("repair --rules " + rules + " --in " + dirty +
                          " --out " + reference);
  ASSERT_TRUE(base.ExitedWith(0)) << base.err;
  EXPECT_NE(base.out.find("repaired 600 rows"), std::string::npos)
      << base.out;
  const std::string want = ReadFile(reference);
  ASSERT_FALSE(want.empty());
  ASSERT_NE(want, ReadFile(dirty));  // the rules changed something

  const std::string quarantine = TestTempPath("q.csv");
  const std::string wal = TestTempPath("repair.wal");
  for (const std::string& flags : std::vector<std::string>{
           "--stream --chunk-rows 7", "--chunk-rows 4096 --wal " + wal,
           "--engine crepair", "--threads 2", "--shards 2",
           "--on-error=quarantine --quarantine-out " + quarantine,
           "--rules-dict " + dict}) {
    const std::string out = TestTempPath("out.csv");
    std::remove(wal.c_str());
    const CliRun run = Run("repair --rules " + rules + " --in " + dirty +
                           " --out " + out + " " + flags);
    ASSERT_TRUE(run.ExitedWith(0)) << flags << ": " << run.err;
    EXPECT_EQ(ReadFile(out), want) << flags;
  }
  // Nothing failed, so the dead-letter file is its header alone.
  EXPECT_EQ(ReadFile(quarantine).find('\n') + 1, ReadFile(quarantine).size());

  // An input past the reader's keep bound, so every route splices
  // several kept chunks: the reference is the whole table read, repaired
  // and rendered in process.
  const std::string big = TestTempPath("big.csv");
  std::string bytes = ReadFile(dirty);
  const std::string body = bytes.substr(bytes.find('\n') + 1);
  while (bytes.size() <= 2 * CsvChunkReader::kKeepBytes) bytes += body;
  WriteFile(big, bytes);
  std::string big_want;
  {
    auto pool = std::make_shared<ValuePool>();
    Table table = ReadCsvFile(big, "data", pool);
    const RuleSet rule_set = ParseRulesFile(rules, table.schema_ptr(), pool);
    ASSERT_TRUE(RepairSession(&rule_set).Repair(&table).ok());
    big_want = ToCsv(table);
  }
  ASSERT_NE(big_want, bytes);
  for (const std::string& flags : std::vector<std::string>{
           "", "--wal " + wal, "--chunk-rows 4096 --wal " + wal,
           "--chunk-rows 7 --threads 2", "--chunk-rows whole-file"}) {
    const std::string out = TestTempPath("big_out.csv");
    std::remove(wal.c_str());
    const CliRun run = Run("repair --rules " + rules + " --in " + big +
                           " --out " + out + " " + flags);
    ASSERT_TRUE(run.ExitedWith(0)) << flags << ": " << run.err;
    EXPECT_EQ(ReadFile(out), big_want) << flags;
  }
}

TEST_F(CliRepairTest, QuarantineFilesMatchOnEveryRoute) {
  const std::string dirty = TestTempPath("dirty.csv");
  const std::string rules = TestTempPath("rules.txt");
  const std::string dict = TestTempPath("rules.frd");
  ASSERT_NO_FATAL_FAILURE(WriteHosp(dirty, rules));
  ASSERT_TRUE(Run("rules compile --rules " + rules + " --data " + dirty +
                  " --out " + dict)
                  .ExitedWith(0));
  // A record of the wrong arity after the header: a csv diagnostic.
  std::string bytes = ReadFile(dirty);
  bytes.insert(bytes.find('\n') + 1, "only,three,fields\n");
  WriteFile(dirty, bytes);

  // A budget of one pop fails every cascading tuple.
  const std::string policy = " --on-error=quarantine --max-chase-steps 1";
  const std::string want_out = TestTempPath("want.csv");
  const std::string want_q = TestTempPath("want_q.csv");
  const CliRun base = Run("repair --rules " + rules + " --in " + dirty +
                          " --out " + want_out + " --quarantine-out " +
                          want_q + policy);
  ASSERT_TRUE(base.ExitedWith(0)) << base.err;
  const std::string quarantined = ReadFile(want_q);
  EXPECT_NE(quarantined.find("\ncsv,"), std::string::npos) << quarantined;
  EXPECT_NE(quarantined.find("\nrepair,"), std::string::npos) << quarantined;

  for (const std::string& flags : std::vector<std::string>{
           "--stream --chunk-rows 7", "--threads 2", "--shards 2",
           "--rules-dict " + dict}) {
    const std::string out = TestTempPath("out.csv");
    const std::string q = TestTempPath("q.csv");
    const CliRun run = Run("repair --rules " + rules + " --in " + dirty +
                           " --out " + out + " --quarantine-out " + q +
                           policy + " " + flags);
    ASSERT_TRUE(run.ExitedWith(0)) << flags << ": " << run.err;
    EXPECT_EQ(ReadFile(out), ReadFile(want_out)) << flags;
    EXPECT_EQ(ReadFile(q), quarantined) << flags;
  }
}

TEST_F(CliRepairTest, LogPrintsTheChaseWriteLog) {
  TravelExample example;
  const std::string dirty = TestTempPath("dirty.csv");
  const std::string rules = TestTempPath("rules.txt");
  const std::string out = TestTempPath("fixed.csv");
  WriteFile(dirty, ToCsv(example.dirty));
  ASSERT_TRUE(TryWriteRulesFile(example.rules, rules).ok());

  const CliRun run =
      Run("repair --log --rules " + rules + " --in " + dirty + " --out " + out);
  ASSERT_TRUE(run.ExitedWith(0)) << run.err;
  std::vector<std::string> lines;
  std::istringstream stdout_lines(run.out);
  for (std::string line; std::getline(stdout_lines, line);) {
    lines.push_back(line);
  }
  // Fig. 8: each of phi_1..phi_4 repairs one cell, then the report.
  ASSERT_EQ(lines.size(), 5u) << run.out;
  EXPECT_EQ(lines[0], "row 1 capital: 'Shanghai' -> 'Beijing' by rule #0");
  EXPECT_EQ(lines[1], "row 1 city: 'Hongkong' -> 'Shanghai' by rule #3");
  EXPECT_EQ(lines[2], "row 2 country: 'China' -> 'Japan' by rule #2");
  EXPECT_EQ(lines[3], "row 3 capital: 'Toronto' -> 'Ottawa' by rule #1");
  EXPECT_EQ(lines[4].rfind("repaired 4 rows (4 cells changed, 1 chunks)", 0),
            0u)
      << lines[4];
  EXPECT_EQ(ReadFile(out), ToCsv(example.clean));
}

// The CLI opens and binds --rules-dict itself, before --out exists: a
// missing file, a file that is no dictionary and a dictionary compiled
// for other attributes each exit 1 with the Status on stderr.
TEST_F(CliRepairTest, RulesDictErrorsExitOneAndLeaveNoOutput) {
  const std::string dirty = TestTempPath("dirty.csv");
  const std::string rules = TestTempPath("rules.txt");
  ASSERT_NO_FATAL_FAILURE(WriteHosp(dirty, rules));
  const std::string bad_magic = TestTempPath("bad_magic.frd");
  WriteFile(bad_magic, std::string(4096, 'x'));
  TravelExample example;
  const std::string travel_csv = TestTempPath("travel.csv");
  const std::string travel_rules = TestTempPath("travel_rules.txt");
  const std::string travel_dict = TestTempPath("travel.frd");
  WriteFile(travel_csv, ToCsv(example.dirty));
  ASSERT_TRUE(TryWriteRulesFile(example.rules, travel_rules).ok());
  ASSERT_TRUE(Run("rules compile --rules " + travel_rules + " --data " +
                  travel_csv + " --out " + travel_dict)
                  .ExitedWith(0));
  const std::string out_dir = TestTempPath("out");
  std::filesystem::create_directories(out_dir);

  struct Case {
    std::string dict;
    const char* status;  // a phrase of the Status message
  };
  for (const Case& c : {Case{TestTempPath("no_such.frd"), "cannot open"},
                        Case{bad_magic, "bad magic"},
                        Case{travel_dict, "schema does not match"}}) {
    for (const bool wal : {false, true}) {
      std::string args = "repair --rules-dict " + c.dict + " --in " + dirty +
                         " --out " + out_dir + "/fixed.csv";
      if (wal) args += " --wal " + out_dir + "/run.wal";
      const CliRun run = Run(args);
      EXPECT_TRUE(run.ExitedWith(1))
          << args << ": status " << run.status << ", stderr: " << run.err;
      EXPECT_NE(run.err.find("--rules-dict"), std::string::npos) << run.err;
      EXPECT_NE(run.err.find(c.status), std::string::npos) << run.err;
      EXPECT_TRUE(std::filesystem::is_empty(out_dir)) << args;
    }
  }
}

// Each command reads a declared set of flags (plus the global ones); a
// typo exits 2 and names the flag before a file is opened or written, so
// it never runs with the default in its place.
TEST_F(CliRepairTest, UnknownFlagExitsTwoBeforeAnyFile) {
  const std::string dirty = TestTempPath("dirty.csv");
  const std::string rules = TestTempPath("rules.txt");
  ASSERT_NO_FATAL_FAILURE(WriteHosp(dirty, rules));
  const std::string out_dir = TestTempPath("out");
  std::filesystem::create_directories(out_dir);
  const std::string outputs = " --out " + out_dir + "/fixed.csv" +
                              " --metrics-out " + out_dir + "/m.json" +
                              " --telemetry-out " + out_dir + "/j.jsonl";

  struct Case {
    std::string args;
    const char* flag;
  };
  const Case cases[] = {
      {"repair --rules " + rules + " --in " + dirty + " --chunk-row 7",
       "--chunk-row"},
      {"repair --rules " + rules + " --in " + dirty + " --prune",
       "--prune"},
      // No memory budget: byte-bounded chunks bound a stream's memory.
      {"repair --rules " + rules + " --in " + dirty + " --memory-budget 1MB",
       "--memory-budget"},
      // Valid for `repair`, not for `submit`.
      {"submit --port 1 --tenant hosp --in " + dirty + " --wal w.bin",
       "--wal"},
      {"gen-data --dataset hosp --rows 10 --rowz 20", "--rowz"},
  };
  for (const Case& c : cases) {
    const CliRun run = Run(c.args + outputs);
    EXPECT_TRUE(run.ExitedWith(2))
        << c.args << ": status " << run.status << ", stderr: " << run.err;
    EXPECT_NE(run.err.find(std::string("unknown flag ") + c.flag),
              std::string::npos)
        << c.args << ": " << run.err;
    EXPECT_TRUE(std::filesystem::is_empty(out_dir)) << c.args;
  }
}

// `repair` checks every flag before it opens --in, so a usage error
// exits 2 with nothing read and no output, even where --in and --rules
// name no file (reading either first would exit 1 with an I/O error).
TEST_F(CliRepairTest, RepairFlagErrorsExitTwoBeforeAnythingIsRead) {
  const std::string out_dir = TestTempPath("out");
  std::filesystem::create_directories(out_dir);
  const std::string in = " --in " + TestTempPath("no_such.csv");
  const std::string rules = " --rules " + TestTempPath("no_such_rules.txt");
  const std::string out = " --out " + out_dir + "/fixed.csv";

  struct Case {
    std::string args;
    const char* message;  // a phrase of stderr
  };
  const Case cases[] = {
      {rules + in, "missing required --out"},
      {in + out, "missing required --rules"},
      {" --rules-dict=" + in + out, "missing required --rules-dict"},
      {rules + in + out + " --quarantine-out=",
       "missing required --quarantine-out"},
      {rules + in + out + " --chunk-rows abc", "bad --chunk-rows"},
      {rules + in + out + " --resume", "--resume requires --wal"},
      {rules + in + out + " --threads abc", "bad --threads"},
      {rules + in + out + " --engine nope", "bad --engine"},
      {rules + in + out + " --memo-capacity abc", "bad --memo-capacity"},
  };
  for (const Case& c : cases) {
    const CliRun run = Run("repair" + c.args);
    EXPECT_TRUE(run.ExitedWith(2))
        << c.args << ": status " << run.status << ", stderr: " << run.err;
    EXPECT_NE(run.err.find(c.message), std::string::npos)
        << c.args << ": " << run.err;
    EXPECT_EQ(run.err.find("cannot open"), std::string::npos) << run.err;
    EXPECT_TRUE(std::filesystem::is_empty(out_dir)) << c.args;
  }
}

// The input's reader starts reading the first chunk as soon as --in is
// open, before the rules load. A rules error then exits 1 with no --out
// and no staging file, once that read ends: from a pipe whose writer
// stalls, only when the writer closes it. The reader thread is joined,
// never left running at exit. Both --in and the rules are pipes here,
// so the rules arrive only once the first chunk's read has started.
TEST_F(CliRepairTest, RulesErrorAfterTheInputStartedExitsOne) {
  cpu_set_t allowed;
  const bool reader_thread =
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
      CPU_COUNT(&allowed) > 1;
  // Past the header's refill block and a pipe's buffer, so writing it
  // all ends only once the first chunk's read takes from the pipe, and
  // short of a whole chunk, so that read then waits for more.
  TravelExample example;
  std::string input_csv = ToCsv(example.dirty);
  while (input_csv.size() < (size_t{512} << 10)) {
    input_csv += "Ian,China,Tokyo,Shanghai,VLDB\n";
  }
  const std::string out_dir = TestTempPath("out");
  std::filesystem::create_directories(out_dir);
  // On one CPU there is no reader thread: the CLI exits without reading
  // the rest of --in, which must fail the write, not the test.
  struct IgnorePipeSignal {
    void (*saved)(int) = signal(SIGPIPE, SIG_IGN);
    ~IgnorePipeSignal() { signal(SIGPIPE, saved); }
  } ignore_pipe_signal;

  struct Case {
    const char* flag;
    const char* message;
  };
  for (const Case& c : {Case{"--rules", "error reading --rules:"},
                        Case{"--rules-dict", "error reading --rules-dict:"}}) {
    const std::string in_fifo = TestTempPath("in.fifo");
    const std::string rules_fifo = TestTempPath("rules.fifo");
    for (const std::string& fifo : {in_fifo, rules_fifo}) {
      std::filesystem::remove(fifo);
      ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0) << c.flag;
    }
    const std::string err_path = TestTempPath("stderr.txt");
    const std::string command = cli_ + " repair " + c.flag + " " +
                                rules_fifo + " --in " + in_fifo + " --out " +
                                out_dir + "/fixed.csv 2>" + err_path;
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      execl("/bin/sh", "sh", "-c", command.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    struct Reaper {
      pid_t pid;
      ~Reaper() {
        if (pid <= 0) return;
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
    } reaper{child};
    FILE* input = std::fopen(in_fifo.c_str(), "w");  // once the CLI opens it
    ASSERT_NE(input, nullptr) << c.flag;
    std::atomic<bool> fed = false;
    bool written = false;
    std::thread feeder([&] {
      written = std::fwrite(input_csv.data(), 1, input_csv.size(), input) ==
                    input_csv.size() &&
                std::fflush(input) == 0;
      fed = true;
    });
    if (reader_thread) {
      for (int i = 0; i < 1200 && !fed; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
      EXPECT_TRUE(fed) << c.flag << ": the first chunk's read never took "
                       << "the input";
      if (!fed) kill(child, SIGKILL);  // ends the write
      feeder.join();
      EXPECT_TRUE(written) << c.flag;
    }
    // Malformed rules, or a dictionary that is no dictionary.
    FILE* rules = std::fopen(rules_fifo.c_str(), "w");
    ASSERT_NE(rules, nullptr) << c.flag;
    std::fputs("RULE\n  IF no_such_attribute = x\n  THEN capital = y\nEND\n",
               rules);
    std::fclose(rules);
    std::string err;
    for (int i = 0; i < 1200 && err.find(c.message) == std::string::npos;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      err = ReadFile(err_path);
    }
    EXPECT_NE(err.find(c.message), std::string::npos) << c.flag << ": " << err;
    int wstatus = 0;
    if (reader_thread) {
      // The error is out, but the first chunk's read still waits.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      EXPECT_EQ(waitpid(child, &wstatus, WNOHANG), 0) << c.flag;
    } else {
      feeder.join();  // the CLI's exit ends the write
    }
    std::fclose(input);
    ASSERT_EQ(waitpid(child, &wstatus, 0), child) << c.flag;
    reaper.pid = 0;
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 1)
        << c.flag << ": status " << wstatus << ", stderr: " << err;
    EXPECT_TRUE(std::filesystem::is_empty(out_dir)) << c.flag;
  }
}

// Every command line perfbench/run.py runs, at a smaller scale: data
// and rule generation, the dictionary compile, the reference repair,
// the file and stream workloads, and a daemon brought up, pinged,
// submitted to and drained, with the metrics and telemetry outputs the
// traced runs ask for.
TEST_F(CliRepairTest, BenchmarkCommandLinesExitZero) {
  const std::string dir = TestTempPath("bench");
  std::filesystem::create_directories(dir);
  const auto path = [&](const std::string& name) { return dir + "/" + name; };
  const auto ok = [&](const std::string& args) {
    const CliRun run = Run(args);
    EXPECT_TRUE(run.ExitedWith(0)) << args << ": " << run.err;
    return run.ExitedWith(0);
  };
  ASSERT_TRUE(ok("gen-data --dataset hosp --rows 2000 --seed 1 --out " +
                 path("clean.csv") + " --dirty " + path("dirty.csv") +
                 " --fds-out " + path("fds.txt")));
  ASSERT_TRUE(ok("gen-rules --clean " + path("clean.csv") + " --dirty " +
                 path("dirty.csv") + " --fds " + path("fds.txt") + " --out " +
                 path("rules.txt")));
  ASSERT_TRUE(ok("rules compile --rules " + path("rules.txt") + " --data " +
                 path("dirty.csv") + " --out " + path("rules.frd")));
  ASSERT_TRUE(ok("repair --engine crepair --rules " + path("rules.txt") +
                 " --in " + path("dirty.csv") + " --out " +
                 path("reference.csv")));
  const std::string want = ReadFile(path("reference.csv"));
  ASSERT_FALSE(want.empty());

  const std::string args = "--rules " + path("rules.txt") + " --in " +
                           path("dirty.csv") + " --out " + path("out.csv");
  ASSERT_TRUE(ok("repair " + args + " --metrics-out " + path("m0.json")));
  EXPECT_EQ(ReadFile(path("out.csv")), want);
  ASSERT_TRUE(ok("repair --stream --chunk-rows 4096 --wal " +
                 path("wal0.bin") + " " + args + " --metrics-out " +
                 path("m1.json") + " --telemetry-out " + path("j1.jsonl")));
  EXPECT_EQ(ReadFile(path("out.csv")), want);

  const std::string port_file = path("port.txt");
  const std::string ruleset = "hosp=" + path("rules.frd");
  const std::string serve_metrics = path("serve.json");
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    execl(cli_.c_str(), cli_.c_str(), "serve", "--port", "0", "--port-file",
          port_file.c_str(), "--ruleset", ruleset.c_str(), "--metrics-out",
          serve_metrics.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // Stops the daemon however the test leaves this scope.
  struct Reaper {
    pid_t pid;
    ~Reaper() {
      if (pid <= 0) return;
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  } reaper{child};
  std::string port;
  for (int i = 0; i < 400 && port.empty(); ++i) {
    std::ifstream(port_file) >> port;
    if (port.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  ASSERT_FALSE(port.empty()) << "the daemon never published its port";
  ASSERT_TRUE(ok("ping --port " + port));
  ASSERT_TRUE(ok("submit --port " + port + " --tenant hosp --in " +
                 path("dirty.csv") + " --out " + path("out.csv") +
                 " --metrics-out " + path("m2.json")));
  EXPECT_EQ(ReadFile(path("out.csv")), want);

  ASSERT_EQ(kill(child, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  reaper.pid = 0;
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) << wstatus;
  for (const char* written : {"m0.json", "m1.json", "j1.jsonl", "m2.json",
                              "serve.json"}) {
    EXPECT_FALSE(ReadFile(path(written)).empty()) << written;
  }
}

}  // namespace
}  // namespace fixrep
