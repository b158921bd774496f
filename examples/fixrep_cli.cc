// fixrep_cli — the end-to-end command-line front door to the library.
//
//   fixrep_cli gen-data  --dataset hosp|uis|travel --rows N --seed S
//                        --out clean.csv [--dirty dirty.csv]
//                        [--noise 0.1] [--typos 0.5] [--fds-out fds.txt]
//   fixrep_cli gen-rules --clean clean.csv --dirty dirty.csv
//                        --fds fds.txt --out rules.txt [--max N]
//   fixrep_cli gen-rules --scale N --attrs a,b,c|--clean clean.csv
//                        --out rules.txt [--seed S]
//                        emits N synthetic CFD-derived rules (rule-unique
//                        constants, consistent by construction) for
//                        dictionary-scale benches and tests
//   fixrep_cli rules compile --rules rules.txt --attrs a,b,c|--data d.csv
//                        --out dict.frd [--scale N --seed S]
//                        compiles the rule set into the mmap-able
//                        dictionary artifact (rules/rule_dict.h);
//                        --scale appends N synthetic rules before
//                        compiling, so a million-rule corpus needs no
//                        intermediate text file
//   fixrep_cli rules inspect --dict dict.frd
//                        prints the validated header (version,
//                        fingerprint, rule/string counts) and the
//                        per-section offset/size table
//   fixrep_cli discover  --dirty dirty.csv --fds fds.txt --out rules.txt
//                        [--max N] [--confidence 0.8]
//   fixrep_cli check     --rules rules.txt --data any.csv [--strict]
//                        [--resolve pruned_rules.txt]
//   fixrep_cli repair    --rules rules.txt --in dirty.csv --out fixed.csv
//                        [--engine lrepair|crepair] [--threads N]
//                        [--no-memo] [--log] [--chunk-rows N]
//                        [--on-error=abort|skip|quarantine]
//                        [--quarantine-out q.csv] [--max-chase-steps N]
//                        [--wal wal.bin] [--resume]
//                        [--rules-dict dict.frd] [--shards N]
//                        --rules-dict repairs against a compiled
//                        dictionary (mmap, demand-paged) instead of
//                        --rules: it is opened and bound to the header
//                        of --in before --out is created, so a missing,
//                        corrupt or mismatched dictionary exits 1 and
//                        writes nothing; output is byte-identical.
//                        --shards routes tuples to N workers by content
//                        hash (repair/driver.h) instead of claiming row
//                        ranges; output is byte-identical either way.
//                        --threads N claims row ranges on the pool
//                        (N=0 picks the hardware width); repair memoizes
//                        byte-identical tuples by default, --no-memo
//                        disables the cache (output is bit-identical
//                        either way)
//                        --on-error=abort (default) fails fast on the
//                        first malformed row/rule; skip drops bad
//                        records; quarantine drops them and writes
//                        source,line,code,message,raw_text records to
//                        --quarantine-out (docs/robustness.md).
//                        --max-chase-steps bounds the per-tuple chase in
//                        skip/quarantine mode; a tuple exceeding it is
//                        quarantined with its original values intact.
//                        The input streams through the repair in
//                        chunks of at most --chunk-rows rows (default
//                        65536) and 1 MiB of input, whichever ends first,
//                        with peak memory proportional to one chunk; the
//                        output CSV and quarantine file are byte-identical
//                        for every chunk size, engine, width and routing.
//                        --stream is accepted for older scripts and
//                        changes nothing.
//                        --log chases with the cRepair engine and prints
//                        one line per cell write before the report, e.g.
//                        "row 1 capital: 'Shanghai' -> 'Beijing' by
//                        rule #0" (not with --wal).
//                        --wal journals every committed chunk to a
//                        write-ahead log (lrepair only), fsynced before
//                        the chunk's rows are emitted, so it commits at
//                        least once per MiB of input; after a crash,
//                        rerunning with --resume fast-forwards past the
//                        durable chunks and produces output
//                        byte-identical to an uninterrupted run
//                        (docs/durability.md). Outputs land via
//                        temp-file + rename, so a crash never leaves a
//                        partial CSV under --out.
//   fixrep_cli audit     --wal wal.bin [--rules rules.txt]
//                        prints every journaled cell repair and the run
//                        summary straight from the log — no input CSV
//                        needed; --rules additionally checks the log was
//                        written under that rule set (fingerprint).
//   fixrep_cli rollback  --wal wal.bin --rules rules.txt --rule K
//                        --in fixed.csv --out rolled.csv
//                        undoes every cell write rule #K made, verifying
//                        each cell still holds the journaled value;
//                        re-repairing the result restores fixed.csv.
//   fixrep_cli eval      --truth truth.csv --dirty dirty.csv
//                        --repaired fixed.csv
//   fixrep_cli serve     --socket /run/fixrep.sock|--port N
//                        --ruleset NAME=PATH[@a,b,c] [--ruleset ...]
//                        [--max-pending N] [--port-file p.txt]
//                        long-running multi-tenant repair daemon
//                        (docs/serving.md): every --ruleset names a rule
//                        set compiled exactly once — a text rules file
//                        with its schema attrs, or a compiled .frd
//                        dictionary (the file's magic decides) — and
//                        served to concurrent clients over a
//                        length-prefixed binary protocol. --port 0
//                        binds an ephemeral loopback port (see
//                        --port-file); --max-pending bounds admitted
//                        in-flight requests — past it the daemon answers
//                        UNAVAILABLE immediately instead of queueing.
//                        SIGTERM/SIGINT drain in-flight requests to
//                        completion before exit.
//   fixrep_cli submit    --socket S|--port N --tenant NAME --in d.csv
//                        --out fixed.csv [--quarantine-out q.csv]
//                        [--engine ...] [--threads N] [--shards N]
//                        [--no-memo] [--memo-capacity N]
//                        [--on-error=...] [--max-chase-steps N]
//                        repairs one CSV batch through a running
//                        daemon; the repair knobs travel as config
//                        headers (repair/config.h grammar) and the
//                        output is byte-identical to a direct `repair`
//                        run against the tenant's rules
//   fixrep_cli ping      --socket S|--port N
//                        lists the daemon's rule sets (rules,
//                        generation, backend) and request counters
//   fixrep_cli reload    --socket S|--port N --ruleset NAME=SPEC
//                        hot-swaps one rule set; requests in flight
//                        finish on the old rules, later ones see the
//                        new generation — nothing is dropped
//
// A command accepts the flags listed for it above and the global flags
// below; any other --flag exits 2, naming it, before a file is opened.
//
// Global flags (any command, before or after it; --flag=value and
// --flag value are both accepted):
//   --log-level=debug|info|warn|error|off   logger threshold
//                                           (default: $FIXREP_LOG_LEVEL)
//   --metrics-out=metrics.json   dump the metrics registry and the span
//                                timeline as JSON on exit
//   --telemetry-out=run.jsonl    write the live JSONL event journal
//                                (heartbeats, trace spans, per-chunk
//                                stats — docs/observability.md)
//   --heartbeat-ms=1000          heartbeat sampler interval; the sampler
//                                starts whenever --telemetry-out,
//                                --progress, or this flag is given
//   --metrics-socket=PATH        serve GET /metrics (Prometheus text
//                                format) on a unix-domain socket
//   --metrics-port=9464          same, on loopback TCP (0 = ephemeral;
//                                the bound port is printed to stderr)
//   --port-file=PATH             atomically write the bound TCP port to
//                                PATH: the daemon's port under `serve`,
//                                the /metrics port otherwise — pairs
//                                with --port=0 / --metrics-port=0 so
//                                scripts need not scrape stderr
//   --progress                   live one-line progress display on
//                                stderr (chunk, rows/s, resident vs
//                                budget) for streaming runs
//   --no-simd                    pin the scalar probe kernel — disables
//                                the SIMD batched evidence-matching path
//                                (equivalent to FIXREP_SIMD=off; output
//                                is byte-identical either way, see
//                                docs/performance.md)
//
// CSV files are self-describing (header row = schema); the rule and FD
// files use the formats of rules/rule_io.h and deps/fd.h. All inputs of
// one invocation share a value pool, so cross-file cell comparisons are
// exact.

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/metrics_server.h"
#include "common/quarantine.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "common/trace.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "deps/fd.h"
#include "eval/metrics.h"
#include "eval/text_table.h"
#include "relation/csv.h"
#include "repair/config.h"
#include "repair/provenance.h"
#include "repair/recovery.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "rulegen/discovery.h"
#include "rulegen/rulegen.h"
#include "rulegen/scale.h"
#include "rules/consistency.h"
#include "rules/resolution.h"
#include "rules/rule_dict.h"
#include "rules/rule_io.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/registry.h"

namespace fixrep::cli {
namespace {

// Minimal flag parser: --flag value, --flag=value, and bare --flag
// booleans. Flags may appear before or after the command; the command is
// the first non-flag token (a valueless flag directly before the command
// must use --flag= syntax to avoid swallowing it).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        if (command_.empty()) {
          command_ = key;
          continue;
        }
        // Command groups take one subcommand ("rules compile").
        if (subcommand_.empty() && command_ == "rules") {
          subcommand_ = key;
          continue;
        }
        std::cerr << "unexpected argument '" << key << "'\n";
        std::exit(2);
      }
      key = key.substr(2);
      const size_t eq = key.find('=');
      if (eq != std::string::npos) {
        Add(key.substr(0, eq), key.substr(eq + 1));
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        Add(key, argv[++i]);
      } else {
        Add(key, "");  // boolean flag
      }
    }
  }

  const std::string& command() const { return command_; }
  const std::string& subcommand() const { return subcommand_; }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  // Every flag given, once each.
  std::vector<std::string> flags() const {
    std::vector<std::string> out;
    for (const auto& [flag, value] : values_) out.push_back(flag);
    return out;
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string Require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      std::cerr << "missing required --" << key << "\n";
      std::exit(2);
    }
    return it->second;
  }

  size_t GetSizeT(const std::string& key, size_t fallback) const {
    return Has(key) ? std::strtoull(Get(key).c_str(), nullptr, 10)
                    : fallback;
  }

  double GetDouble(const std::string& key, double fallback) const {
    return Has(key) ? std::strtod(Get(key).c_str(), nullptr) : fallback;
  }

  // Every value given for a repeated flag (serve takes one --ruleset per
  // hosted rule set), in command-line order. Get/Require keep their
  // last-one-wins semantics for the scalar flags.
  std::vector<std::string> GetAll(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [flag, value] : ordered_) {
      if (flag == key) out.push_back(value);
    }
    return out;
  }

 private:
  void Add(std::string key, std::string value) {
    ordered_.emplace_back(key, value);
    values_[std::move(key)] = std::move(value);
  }

  std::string command_;
  std::string subcommand_;
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> ordered_;
};

// Applies one --flag through the shared key/value grammar of
// repair/config.h; a parse failure is a usage error.
void ApplyConfigFlag(const Args& args, const std::string& key,
                     RepairConfig* config) {
  std::string value = args.Get(key);
  // Bare --threads means "the pool's full width", as it always has.
  if (key == "threads" && value.empty()) value = "0";
  const Status status = ParseRepairConfig(key, value, config);
  if (!status.ok()) {
    std::cerr << "bad --" << key << ": " << status << "\n";
    std::exit(2);
  }
}

// Builds the RepairConfig shared by all repair flows from the command
// line. Every knob funnels through ParseRepairConfig — the same grammar
// the daemon applies to wire-request config headers — so a flag behaves
// identically on both surfaces. The per-flow callers fill in quarantine
// sinks and chunking.
RepairConfig ConfigFromArgs(const Args& args, OnErrorPolicy policy) {
  RepairConfig config;
  for (const char* key : {"engine", "threads", "shards", "no-memo",
                          "memo-capacity", "max-chase-steps"}) {
    if (args.Has(key)) ApplyConfigFlag(args, key, &config);
  }
  config.on_error = policy;
  return config;
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : text) {
    if (c == ',') {
      out.push_back(token);
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  out.push_back(token);
  return out;
}

// Schema for schema-less commands (gen-rules --scale, rules compile):
// --attrs a,b,c names it directly; --data file.csv borrows a CSV header.
std::shared_ptr<const Schema> SchemaFromArgs(
    const Args& args, const std::string& csv_flag,
    const std::shared_ptr<ValuePool>& pool) {
  if (args.Has("attrs")) {
    return std::make_shared<const Schema>("data",
                                          SplitCommaList(args.Require("attrs")));
  }
  if (args.Has(csv_flag)) {
    const Table data = ReadCsvFile(args.Require(csv_flag), "data", pool);
    return data.schema_ptr();
  }
  std::cerr << "need --attrs a,b,c or --" << csv_flag
            << " file.csv for the schema\n";
  std::exit(2);
}

int Usage() {
  std::cerr << "usage: fixrep_cli "
               "gen-data|gen-rules|rules compile|rules inspect|discover|"
               "check|repair|serve|submit|ping|reload|audit|rollback|eval"
               " [--flags]\n"
               "see the header of examples/fixrep_cli.cc for details\n";
  return 2;
}

int GenData(const Args& args) {
  FIXREP_TRACE_SPAN("cli.gen_data");
  const std::string dataset = args.Require("dataset");
  const uint64_t seed = args.GetSizeT("seed", 1);
  GeneratedData data = [&]() -> GeneratedData {
    if (dataset == "hosp") {
      HospOptions options;
      options.rows = args.GetSizeT("rows", 115000);
      options.num_hospitals =
          std::max<size_t>(options.rows / 30, 50);
      options.seed = seed;
      return GenerateHosp(options);
    }
    if (dataset == "uis") {
      UisOptions options;
      options.rows = args.GetSizeT("rows", 15000);
      options.seed = seed;
      return GenerateUis(options);
    }
    if (dataset == "travel") {
      TravelExample example;
      GeneratedData data(example.pool, example.schema);
      data.clean = example.clean;
      data.fds = {ParseFd(*example.schema, "country -> capital")};
      return data;
    }
    std::cerr << "unknown --dataset '" << dataset << "'\n";
    std::exit(2);
  }();

  WriteCsvFile(data.clean, args.Require("out"));
  std::cout << "wrote " << data.clean.num_rows() << " clean rows to "
            << args.Get("out") << "\n";
  if (args.Has("fds-out")) {
    std::ofstream fds(args.Get("fds-out"));
    for (const auto& fd : data.fds) {
      fds << FormatFd(*data.schema, fd) << "\n";
    }
    std::cout << "wrote " << data.fds.size() << " FDs to "
              << args.Get("fds-out") << "\n";
  }
  if (args.Has("dirty")) {
    Table dirty = data.clean;
    NoiseOptions noise;
    noise.noise_rate = args.GetDouble("noise", 0.10);
    noise.typo_share = args.GetDouble("typos", 0.5);
    noise.seed = seed ^ 0xd1e7;
    const NoiseReport report = InjectNoise(
        &dirty, ConstraintAttributes(*data.schema, data.fds), noise);
    WriteCsvFile(dirty, args.Get("dirty"));
    std::cout << "wrote dirty copy with " << report.rows_corrupted
              << " corrupted rows to " << args.Get("dirty") << "\n";
  }
  return 0;
}

int GenRules(const Args& args) {
  FIXREP_TRACE_SPAN("cli.gen_rules");
  if (args.Has("scale")) {
    auto pool = std::make_shared<ValuePool>();
    const std::shared_ptr<const Schema> schema =
        SchemaFromArgs(args, "clean", pool);
    ScaleRuleGenOptions options;
    options.scale = args.GetSizeT("scale", options.scale);
    options.seed = args.GetSizeT("seed", options.seed);
    Timer timer;
    const RuleSet rules = GenerateScaleRules(schema, pool, options);
    WriteRulesFile(rules, args.Require("out"));
    std::cout << "wrote " << rules.size() << " synthetic rules (seed "
              << options.seed << ") to " << args.Get("out") << " in "
              << FormatDouble(timer.ElapsedMillis(), 1) << " ms\n";
    return 0;
  }
  auto pool = std::make_shared<ValuePool>();
  const Table clean = ReadCsvFile(args.Require("clean"), "data", pool);
  const Table dirty = ReadCsvFile(args.Require("dirty"), "data", pool);
  const auto fds = ParseFdListFile(clean.schema(), args.Require("fds"));
  RuleGenOptions options;
  options.max_rules = args.GetSizeT("max", 1000);
  const RuleSet rules = GenerateRules(clean, dirty, fds, options);
  WriteRulesFile(rules, args.Require("out"));
  std::cout << "wrote " << rules.size() << " rules to " << args.Get("out")
            << "\n";
  return 0;
}

int Discover(const Args& args) {
  auto pool = std::make_shared<ValuePool>();
  const Table dirty = ReadCsvFile(args.Require("dirty"), "data", pool);
  const auto fds = ParseFdListFile(dirty.schema(), args.Require("fds"));
  DiscoveryOptions options;
  options.max_rules = args.GetSizeT("max", 1000);
  options.min_confidence = args.GetDouble("confidence", 0.8);
  const RuleSet rules = DiscoverRules(dirty, fds, options);
  WriteRulesFile(rules, args.Require("out"));
  std::cout << "discovered " << rules.size() << " rules into "
            << args.Get("out") << "\n";
  return 0;
}

int Check(const Args& args) {
  auto pool = std::make_shared<ValuePool>();
  const Table data = ReadCsvFile(args.Require("data"), "data", pool);
  RuleSet rules =
      ParseRulesFile(args.Require("rules"), data.schema_ptr(), pool);
  std::vector<Conflict> conflicts;
  const bool strict = args.Has("strict");
  const bool consistent =
      strict ? IsConsistentStrict(rules, &conflicts, /*find_all=*/true)
             : IsConsistentChar(rules, &conflicts, /*find_all=*/true);
  std::cout << rules.size() << " rules: "
            << (consistent ? "consistent" : "INCONSISTENT")
            << (strict ? " (strict)" : "") << "\n";
  for (const auto& conflict : conflicts) {
    std::cout << conflict.Describe(rules) << "\n";
  }
  if (!consistent && args.Has("resolve")) {
    const auto report = ResolveByPruning(&rules);
    std::cout << "resolved: " << report.patterns_removed
              << " negative patterns removed, "
              << report.dropped_rules.size() << " rules dropped\n";
    WriteRulesFile(rules, args.Get("resolve"));
    std::cout << "wrote " << rules.size() << " consistent rules to "
              << args.Get("resolve") << "\n";
  }
  return consistent ? 0 : 1;
}

// Compiles a rule set (parsed from text and/or synthesized at --scale)
// into the mmap-able dictionary artifact, then reopens it to confirm the
// written file validates.
int RulesCompile(const Args& args) {
  FIXREP_TRACE_SPAN("cli.rules_compile");
  auto pool = std::make_shared<ValuePool>();
  const std::shared_ptr<const Schema> schema =
      SchemaFromArgs(args, "data", pool);
  RuleSet rules(schema, pool);
  if (args.Has("rules")) {
    rules = ParseRulesFile(args.Require("rules"), schema, pool);
  }
  if (args.Has("scale")) {
    ScaleRuleGenOptions options;
    options.scale = args.GetSizeT("scale", options.scale);
    options.seed = args.GetSizeT("seed", options.seed);
    AppendScaleRules(&rules, options);
  }
  if (rules.empty()) {
    std::cerr << "nothing to compile: pass --rules and/or --scale\n";
    return 2;
  }
  const std::string out_path = args.Require("out");
  Timer timer;
  const Status compiled = CompileRuleDict(rules, out_path);
  if (!compiled.ok()) {
    std::cerr << "compile failed: " << compiled << "\n";
    return 1;
  }
  StatusOr<std::unique_ptr<RuleDict>> dict_or = RuleDict::Open(out_path);
  if (!dict_or.ok()) {
    std::cerr << "written dictionary fails validation: " << dict_or.status()
              << "\n";
    return 1;
  }
  const RuleDict& dict = *dict_or.value();
  std::cout << "compiled " << dict.num_rules() << " rules ("
            << dict.header().num_strings << " strings, "
            << dict.image().size() << " bytes, fingerprint "
            << std::hex << dict.fingerprint() << std::dec << ") in "
            << FormatDouble(timer.ElapsedMillis(), 1) << " ms -> "
            << out_path << "\n";
  return 0;
}

// Prints the validated header and the per-section layout of a compiled
// dictionary. Touches only the header pages — O(1) in corpus size.
int RulesInspect(const Args& args) {
  FIXREP_TRACE_SPAN("cli.rules_inspect");
  StatusOr<std::unique_ptr<RuleDict>> dict_or =
      RuleDict::Open(args.Require("dict"));
  if (!dict_or.ok()) {
    std::cerr << "error opening --dict: " << dict_or.status() << "\n";
    return 1;
  }
  const RuleDict& dict = *dict_or.value();
  const RuleDictHeader& header = dict.header();
  std::cout << dict.path() << ": rule dictionary v" << header.version
            << ", " << dict.image().size() << " bytes\n";
  std::cout << "fingerprint " << std::hex << header.fingerprint << std::dec
            << "\n";
  std::cout << header.num_rules << " rules over " << header.arity
            << " attributes (";
  for (size_t a = 0; a < dict.attribute_names().size(); ++a) {
    if (a > 0) std::cout << ", ";
    std::cout << dict.attribute_names()[a];
  }
  std::cout << ")\n";
  std::cout << header.num_keys << " probe keys, " << header.num_postings
            << " postings, " << header.num_strings << " interned strings, "
            << header.num_ev_pairs << " evidence pairs, "
            << header.num_neg_values << " negative patterns\n";
  TextTable table({"section", "offset", "bytes"});
  for (size_t s = 0; s < kNumDictSections; ++s) {
    table.AddRow({DictSectionName(static_cast<DictSection>(s)),
                  std::to_string(header.section_offset[s]),
                  std::to_string(header.section_bytes[s])});
  }
  table.Print(std::cout);
  return 0;
}

// Writes the grouped dead-letter file: csv records, then rule blocks,
// then repaired tuples.
int WriteQuarantineFile(const std::string& path,
                        const VectorQuarantineSink& row_sink,
                        const VectorQuarantineSink& rule_sink,
                        const VectorQuarantineSink& tuple_sink) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot open --quarantine-out path '" << path << "'\n";
    return 1;
  }
  WriteQuarantineHeader(out);
  for (const auto& d : row_sink.diagnostics()) {
    WriteQuarantineRecord(out, "csv", d);
  }
  for (const auto& d : rule_sink.diagnostics()) {
    WriteQuarantineRecord(out, "rules", d);
  }
  for (const auto& d : tuple_sink.diagnostics()) {
    WriteQuarantineRecord(out, "repair", d);
  }
  out.flush();
  if (!out.good()) {
    std::cerr << "write failed for --quarantine-out path '" << path
              << "'\n";
    return 1;
  }
  return 0;
}

// The one repair pipeline: the input streams through chunked repair
// (repair/streaming.h) into --out, so it never lives in memory whole.
// Under skip/quarantine, malformed CSV rows and rule blocks are dropped
// or captured with their raw text, each failing tuple is isolated with
// its original values preserved, and the rest of the batch completes.
// --log chases with cRepair and prints its write log.
int Repair(const Args& args) {
  const std::string on_error = args.Get("on-error", "abort");
  const std::optional<OnErrorPolicy> parsed_policy =
      TryParseOnErrorPolicy(on_error);
  if (!parsed_policy.has_value()) {
    std::cerr << "unknown --on-error '" << on_error
              << "' (want abort|skip|quarantine)\n";
    return 2;
  }
  const OnErrorPolicy policy = *parsed_policy;
  const bool quarantining = policy == OnErrorPolicy::kQuarantine;
  // Every flag is checked before --in is opened: a usage error exits 2
  // with nothing read, and never while the input's reader thread runs.
  const std::string in_path = args.Require("in");
  const std::string out_path = args.Require("out");
  const bool use_dict = args.Has("rules-dict");
  const std::string rules_path =
      args.Require(use_dict ? "rules-dict" : "rules");
  const std::string quarantine_path =
      args.Has("quarantine-out") ? args.Require("quarantine-out") : "";
  RepairConfig config = ConfigFromArgs(args, policy);
  for (const char* key : {"chunk-rows", "wal", "resume"}) {
    if (args.Has(key)) ApplyConfigFlag(args, key, &config);
  }
  if (config.resume && config.wal_path.empty()) {
    std::cerr << "--resume requires --wal=PATH\n";
    return 2;
  }
  // --log audits the reference chase: rule by rule, in Fig. 6 order.
  std::optional<RepairLog> log;
  if (args.Has("log")) {
    config.engine = RepairEngine::kCRepair;
    log.emplace();
  }
  auto pool = std::make_shared<ValuePool>();
  VectorQuarantineSink row_sink;
  VectorQuarantineSink rule_sink;
  VectorQuarantineSink tuple_sink;
  config.quarantine = quarantining ? &tuple_sink : nullptr;

  auto load = std::make_unique<TraceSpan>("cli.load");
  std::ifstream in(in_path);
  if (!in.good()) {
    std::cerr << "error reading --in: cannot open " << in_path << "\n";
    return 1;
  }
  struct stat input_stat;
  if (stat(in_path.c_str(), &input_stat) == 0) {
    // Lets --progress and heartbeats report percent-done: the streaming
    // driver publishes input_bytes_read as it goes.
    MetricsRegistry::Global()
        .GetGauge("fixrep.progress.input_bytes_total")
        ->Set(static_cast<int64_t>(input_stat.st_size));
  }
  CsvReadOptions csv_options;
  csv_options.on_error = policy;
  csv_options.quarantine = quarantining ? &row_sink : nullptr;
  StatusOr<CsvChunkReader> reader_or = [&] {
    FIXREP_TRACE_SPAN("csv.ingest");
    return CsvChunkReader::Open(in, "data", pool, csv_options);
  }();
  if (!reader_or.ok()) {
    std::cerr << "error reading --in: " << reader_or.status() << "\n";
    return 1;
  }
  CsvChunkReader reader = std::move(reader_or).value();
  // The first chunk is read from here on, while the rules load, the
  // session is built and --out and the WAL are created.
  StreamInput input(&reader, config.chunk_rows);
  // The rules: a compiled dictionary opened and bound to the input's
  // schema and pool, or a text file parsed over them.
  std::unique_ptr<RuleDict> dict;
  std::optional<RuleSet> rules;
  if (use_dict) {
    StatusOr<std::unique_ptr<RuleDict>> opened = RuleDict::Open(rules_path);
    Status bound = opened.status();
    if (opened.ok()) {
      dict = std::move(opened).value();
      bound = dict->Bind(*input.schema(), pool);
    }
    if (!bound.ok()) {
      std::cerr << "error reading --rules-dict: " << bound << "\n";
      return 1;
    }
  } else {
    FIXREP_TRACE_SPAN("rules.parse");
    RuleParseOptions rule_options;
    rule_options.on_error = policy;
    rule_options.quarantine = quarantining ? &rule_sink : nullptr;
    StatusOr<RuleSet> rules_or = ParseRulesFileLenient(
        rules_path, input.schema(), pool, rule_options);
    if (!rules_or.ok()) {
      std::cerr << "error reading --rules: " << rules_or.status() << "\n";
      return 1;
    }
    rules.emplace(std::move(rules_or).value());
  }
  load.reset();

  Timer timer;
  RepairReport result;
  {
    FIXREP_TRACE_SPAN("cli.stream");
    // Stage the output in --out.tmp; only a fully repaired (or fully
    // resumed) stream is renamed into place, so a failure or a crash
    // mid-run leaves any previous --out intact (for the WAL to resume
    // against) and never a partial one.
    StatusOr<AtomicFile> out = AtomicFile::Create(out_path);
    if (!out.ok()) {
      std::cerr << "error writing --out: " << out.status() << "\n";
      return 1;
    }
    std::optional<RepairSession> session;
    if (dict != nullptr) {
      session.emplace(dict.get(), config);
    } else {
      session.emplace(&*rules, config);
    }
    StatusOr<RepairReport> result_or = session->RepairStream(
        &input, &out.value(), log ? &log->repairs : nullptr);
    if (!result_or.ok()) {
      std::cerr << "error repairing --in: " << result_or.status() << "\n";
      return 1;
    }
    result = result_or.value();
    const Status committed = out->Commit();
    if (!committed.ok()) {
      std::cerr << "error writing --out: " << committed << "\n";
      return 1;
    }
  }
  if (!quarantine_path.empty()) {
    const int rc =
        WriteQuarantineFile(quarantine_path, row_sink, rule_sink, tuple_sink);
    if (rc != 0) return rc;
  }

  if (log) {
    for (const CellRepair& repair : log->repairs) {
      std::cout << log->Describe(repair, *reader.schema(), *pool) << "\n";
    }
  }
  std::cout << "repaired " << result.rows << " rows ("
            << result.cells_changed << " cells changed, "
            << result.chunks << " chunks) in "
            << FormatDouble(timer.ElapsedMillis(), 1) << " ms -> "
            << out_path << "\n";
  if (!config.wal_path.empty()) {
    std::cout << (config.resume ? "resumed via" : "journaled to") << " WAL "
              << config.wal_path << " (" << result.chunks
              << " durable chunks)\n";
  }
  if (policy != OnErrorPolicy::kAbort) {
    const auto* rows_counter =
        MetricsRegistry::Global().FindCounter("fixrep.quarantine.rows");
    const auto* rules_counter =
        MetricsRegistry::Global().FindCounter("fixrep.quarantine.rules");
    std::cout << "on-error=" << OnErrorPolicyName(policy) << ": dropped "
              << (rows_counter == nullptr ? 0 : rows_counter->Value())
              << " malformed rows, "
              << (rules_counter == nullptr ? 0 : rules_counter->Value())
              << " malformed rule blocks, quarantined "
              << result.tuples_quarantined << " tuples";
    if (!quarantine_path.empty()) std::cout << " -> " << quarantine_path;
    std::cout << "\n";
  }
  return 0;
}

// Offline WAL inspection: renders the log's deltas back into a
// provenance RepairLog and prints one line per journaled cell repair.
// Standalone — the header carries the schema and values travel as
// strings, so nothing but the log is needed; --rules additionally
// verifies the fingerprint and prints per-rule repair counts.
int Audit(const Args& args) {
  FIXREP_TRACE_SPAN("cli.audit");
  StatusOr<RecoveredRun> run_or = ScanWal(args.Require("wal"));
  if (!run_or.ok()) {
    std::cerr << "error scanning --wal: " << run_or.status() << "\n";
    return 1;
  }
  const RecoveredRun run = std::move(run_or).value();
  StatusOr<WalAudit> audit_or = BuildAudit(run);
  if (!audit_or.ok()) {
    std::cerr << "error replaying --wal: " << audit_or.status() << "\n";
    return 1;
  }
  const WalAudit& audit = audit_or.value();

  std::vector<size_t> per_rule;
  if (args.Has("rules")) {
    const RuleSet rules =
        ParseRulesFile(args.Require("rules"), audit.schema, audit.pool);
    const Status match = ValidateWalFingerprint(run.header, rules);
    if (!match.ok()) {
      std::cerr << "--rules does not match the WAL: " << match << "\n";
      return 1;
    }
    per_rule = audit.log.PerRuleCounts(rules.size());
  }

  for (const CellRepair& repair : audit.log.repairs) {
    std::cout << audit.log.Describe(repair, *audit.schema, *audit.pool)
              << "\n";
  }
  size_t quarantined = 0;
  for (const WalChunk& chunk : run.chunks) {
    quarantined += chunk.quarantined.size();
  }
  std::cout << run.chunks.size() << " durable chunks, "
            << run.rows_durable() << " rows, " << audit.log.repairs.size()
            << " cell repairs, " << quarantined
            << " quarantined tuples\n";
  if (run.tail_discarded) {
    std::cout << "uncommitted tail after byte " << run.durable_bytes
              << " (run was interrupted; resume with --wal"
              << " --resume)\n";
  }
  for (size_t k = 0; k < per_rule.size(); ++k) {
    if (per_rule[k] > 0) {
      std::cout << "rule #" << k << ": " << per_rule[k] << " repairs\n";
    }
  }
  return 0;
}

// Rule-level undo: reverts every cell write a rule made, per the WAL,
// against the repaired CSV. Each delta is verified against the current
// cell value before anything is restored, and the result lands
// atomically at --out.
int Rollback(const Args& args) {
  FIXREP_TRACE_SPAN("cli.rollback");
  StatusOr<RecoveredRun> run_or = ScanWal(args.Require("wal"));
  if (!run_or.ok()) {
    std::cerr << "error scanning --wal: " << run_or.status() << "\n";
    return 1;
  }
  const RecoveredRun run = std::move(run_or).value();
  auto pool = std::make_shared<ValuePool>();
  auto schema =
      std::make_shared<const Schema>("wal", run.header.attribute_names);
  const RuleSet rules = ParseRulesFile(args.Require("rules"), schema, pool);
  if (!args.Has("rule")) {
    std::cerr << "missing required --rule (the rule index to undo)\n";
    return 2;
  }
  const size_t rule_index = args.GetSizeT("rule", 0);
  StatusOr<RollbackReport> report_or = RollbackRule(
      run, rules, rule_index, args.Require("in"), args.Require("out"));
  if (!report_or.ok()) {
    std::cerr << "rollback failed: " << report_or.status() << "\n";
    return 1;
  }
  std::cout << "rolled back rule #" << rule_index << ": "
            << report_or.value().cells_restored << " cells restored across "
            << report_or.value().rows_touched << " rows -> "
            << args.Get("out") << "\n";
  return 0;
}

int Eval(const Args& args) {
  auto pool = std::make_shared<ValuePool>();
  auto load = std::make_unique<TraceSpan>("cli.load");
  const Table truth = ReadCsvFile(args.Require("truth"), "data", pool);
  const Table dirty = ReadCsvFile(args.Require("dirty"), "data", pool);
  const Table repaired =
      ReadCsvFile(args.Require("repaired"), "data", pool);
  load.reset();
  FIXREP_TRACE_SPAN("cli.eval");
  const Accuracy accuracy = EvaluateRepair(truth, dirty, repaired);
  TextTable table({"metric", "value"});
  table.AddRow({"erroneous cells",
                std::to_string(accuracy.cells_erroneous)});
  table.AddRow({"changed cells", std::to_string(accuracy.cells_changed)});
  table.AddRow({"corrected cells",
                std::to_string(accuracy.cells_corrected)});
  table.AddRow({"broken cells", std::to_string(accuracy.cells_broken)});
  table.AddRow({"precision", FormatDouble(accuracy.precision())});
  table.AddRow({"recall", FormatDouble(accuracy.recall())});
  table.AddRow({"f1", FormatDouble(accuracy.f1())});
  table.Print(std::cout);
  return 0;
}

// ---- daemon verbs (docs/serving.md) ----

// Atomically (temp + rename) writes the bound TCP port to `path`, so a
// --port=0 / --metrics-port=0 ephemeral listener is discoverable by
// scripts without scraping stderr.
int WritePortFile(const std::string& path, int port) {
  StatusOr<AtomicFile> file = AtomicFile::Create(path);
  if (!file.ok()) {
    std::cerr << "--port-file: " << file.status() << "\n";
    return 1;
  }
  file->stream() << port << "\n";
  const Status committed = file->Commit();
  if (!committed.ok()) {
    std::cerr << "--port-file: " << committed << "\n";
    return 1;
  }
  return 0;
}

// SIGTERM/SIGINT land here while `serve` runs; RequestShutdown is one
// async-signal-safe pipe write that unparks the main thread, which then
// drains gracefully.
std::atomic<serve::RepairDaemon*> g_serving_daemon{nullptr};

void OnShutdownSignal(int) {
  serve::RepairDaemon* daemon =
      g_serving_daemon.load(std::memory_order_acquire);
  if (daemon != nullptr) daemon->RequestShutdown();
}

int Serve(const Args& args) {
  const std::vector<std::string> rulesets = args.GetAll("ruleset");
  if (rulesets.empty()) {
    std::cerr << "serve needs at least one --ruleset NAME=PATH[@a,b,c]\n";
    return 2;
  }
  serve::TenantRegistry registry;
  for (const std::string& entry : rulesets) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::cerr << "bad --ruleset '" << entry
                << "' (want NAME=DICT.frd for a compiled dictionary or "
                   "NAME=RULES.txt@a,b,c for a text rules file)\n";
      return 2;
    }
    const std::string name = entry.substr(0, eq);
    const Status loaded = registry.Load(name, entry.substr(eq + 1));
    if (!loaded.ok()) {
      std::cerr << "cannot load rule set '" << name << "': " << loaded
                << "\n";
      return 1;
    }
    const auto snapshot = registry.Find(name);
    std::cerr << "[fixrep] rule set '" << name << "': "
              << snapshot->num_rules() << " rules ("
              << (snapshot->dict_backed() ? "dictionary" : "text") << ")\n";
  }

  if (args.Has("socket") == args.Has("port")) {
    std::cerr << "serve needs exactly one of --socket PATH and --port N\n";
    return 2;
  }
  serve::DaemonOptions options;
  if (args.Has("socket")) {
    options.unix_socket_path = args.Require("socket");
  } else {
    options.tcp_port = static_cast<int>(args.GetSizeT("port", 0));
  }
  options.max_pending = args.GetSizeT("max-pending", options.max_pending);
  StatusOr<std::unique_ptr<serve::RepairDaemon>> daemon_or =
      serve::RepairDaemon::Start(&registry, std::move(options));
  if (!daemon_or.ok()) {
    std::cerr << "cannot start daemon: " << daemon_or.status() << "\n";
    return 1;
  }
  const std::unique_ptr<serve::RepairDaemon> daemon =
      std::move(daemon_or).value();
  if (args.Has("socket")) {
    std::cerr << "[fixrep] serving " << registry.size() << " rule sets on "
              << daemon->socket_path() << "\n";
  } else {
    std::cerr << "[fixrep] serving " << registry.size()
              << " rule sets on 127.0.0.1:" << daemon->port() << "\n";
    if (args.Has("port-file")) {
      const int rc = WritePortFile(args.Require("port-file"),
                                   daemon->port());
      if (rc != 0) return rc;
    }
  }

  g_serving_daemon.store(daemon.get(), std::memory_order_release);
  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);
  daemon->WaitForShutdownRequest();
  std::cerr << "[fixrep] shutdown requested; draining in-flight"
               " requests\n";
  daemon->Shutdown();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serving_daemon.store(nullptr, std::memory_order_release);
  std::cout << "served " << daemon->requests_served()
            << " requests, rejected " << daemon->requests_rejected()
            << " at admission\n";
  return 0;
}

serve::ClientOptions ClientOptionsFromArgs(const Args& args) {
  if (args.Has("socket") == args.Has("port")) {
    std::cerr << "need exactly one of --socket PATH and --port N for the"
                 " daemon endpoint\n";
    std::exit(2);
  }
  serve::ClientOptions options;
  if (args.Has("socket")) {
    options.unix_socket_path = args.Require("socket");
  } else {
    options.tcp_port = static_cast<int>(args.GetSizeT("port", 0));
  }
  return options;
}

StatusOr<serve::Client> ConnectOrExplain(const Args& args) {
  StatusOr<serve::Client> client =
      serve::Client::Connect(ClientOptionsFromArgs(args));
  if (!client.ok()) {
    std::cerr << "cannot reach daemon: " << client.status() << "\n";
  }
  return client;
}

int Ping(const Args& args) {
  StatusOr<serve::Client> client = ConnectOrExplain(args);
  if (!client.ok()) return 1;
  const StatusOr<serve::PingInfo> info = client->Ping();
  if (!info.ok()) {
    std::cerr << "ping failed: " << info.status() << "\n";
    return 1;
  }
  StatusOr<std::vector<serve::RuleSetInfo>> sets = client->List();
  if (!sets.ok()) {
    std::cerr << "list failed: " << sets.status() << "\n";
    return 1;
  }
  TextTable table({"rule set", "rules", "generation", "backend"});
  for (const serve::RuleSetInfo& info_row : sets.value()) {
    table.AddRow({info_row.name, std::to_string(info_row.num_rules),
                  std::to_string(info_row.generation),
                  info_row.dict_backed ? "dictionary" : "text"});
  }
  table.Print(std::cout);
  std::cout << info->requests_served << " requests served, "
            << info->requests_rejected << " rejected at admission\n";
  return 0;
}

// A whole input file, read once with read(2) to EOF (a pipe or FIFO has
// no size to ask for; a regular file's size, plus one byte to see EOF
// without a grow, only sizes the buffer). The buffer is an anonymous
// mapping made with MAP_POPULATE: its pages are committed in one call
// instead of faulting in one by one as read(2) first touches them, and
// nothing zero-fills them by hand. The file itself is not mapped: a
// truncation while mapped raises SIGBUS, which would kill the process
// before AtomicFile can unlink its staging file.
class InputBytes {
 public:
  static StatusOr<InputBytes> Read(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IoError("cannot open " + path);
    struct stat st;
    const size_t want = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)
                            ? static_cast<size_t>(st.st_size) + 1
                            : size_t{1} << 16;
    InputBytes bytes;
    bytes.capacity_ = want;
    bytes.data_ = static_cast<char*>(
        ::mmap(nullptr, want, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0));
    Status status;
    if (bytes.data_ == MAP_FAILED) {
      bytes.data_ = nullptr;
      status = Status::IoError("out of memory for " + path);
    }
    while (status.ok()) {
      if (bytes.size_ == bytes.capacity_ && !bytes.Grow()) {
        status = Status::IoError("out of memory for " + path);
        break;
      }
      const ssize_t n = ::read(fd, bytes.data_ + bytes.size_,
                               bytes.capacity_ - bytes.size_);
      if (n == 0) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        status = Status::IoError("read failed on " + path);
        break;
      }
      bytes.size_ += static_cast<size_t>(n);
    }
    ::close(fd);
    if (!status.ok()) return status;
    return bytes;
  }

  InputBytes(InputBytes&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(other.size_),
        capacity_(other.capacity_) {}
  InputBytes& operator=(InputBytes&&) = delete;
  ~InputBytes() {
    if (data_ != nullptr) ::munmap(data_, capacity_);
  }

  std::string_view view() const { return {data_, size_}; }

 private:
  InputBytes() = default;

  // Doubles the mapping; mremap moves pages, it does not copy bytes.
  bool Grow() {
    void* grown = ::mremap(data_, capacity_, 2 * capacity_, MREMAP_MAYMOVE);
    if (grown == MAP_FAILED) return false;
    data_ = static_cast<char*>(grown);
    capacity_ *= 2;
    return true;
  }

  char* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

// One CSV batch through a running daemon: the repair knobs serialize as
// config headers (FormatRepairConfig), the repaired bytes land via
// temp + rename -- written as ranges of --in and the daemon's
// replacement bytes, never built in memory -- and the quarantine file
// has the same format as the local repair flows'.
int Submit(const Args& args) {
  const std::string on_error = args.Get("on-error", "abort");
  const std::optional<OnErrorPolicy> policy =
      TryParseOnErrorPolicy(on_error);
  if (!policy.has_value()) {
    std::cerr << "unknown --on-error '" << on_error
              << "' (want abort|skip|quarantine)\n";
    return 2;
  }
  const StatusOr<InputBytes> csv = [&] {
    FIXREP_TRACE_SPAN("cli.load");
    return InputBytes::Read(args.Require("in"));
  }();
  if (!csv.ok()) {
    std::cerr << "error reading --in: " << csv.status().message() << "\n";
    return 1;
  }

  StatusOr<serve::Client> client = ConnectOrExplain(args);
  if (!client.ok()) return 1;
  Timer timer;
  const StatusOr<serve::RepairResult> result = client->Submit(
      args.Require("tenant"),
      FormatRepairConfig(ConfigFromArgs(args, *policy)), csv->view());
  if (!result.ok()) {
    std::cerr << "submit failed: " << result.status() << "\n";
    return 1;
  }
  const Status written = [&]() -> Status {
    FIXREP_TRACE_SPAN("cli.write");
    StatusOr<AtomicFile> out = AtomicFile::Create(args.Require("out"));
    if (!out.ok()) return out.status();
    FIXREP_RETURN_IF_ERROR(
        WriteCsvSplice(csv->view(), result->splice, &out.value()));
    return out->Commit();
  }();
  if (!written.ok()) {
    std::cerr << "error writing --out: " << written << "\n";
    return 1;
  }
  if (args.Has("quarantine-out")) {
    StatusOr<AtomicFile> quarantine =
        AtomicFile::Create(args.Require("quarantine-out"));
    if (!quarantine.ok()) {
      std::cerr << "error writing --quarantine-out: " << quarantine.status()
                << "\n";
      return 1;
    }
    quarantine->stream() << result->quarantine;
    const Status q_committed = quarantine->Commit();
    if (!q_committed.ok()) {
      std::cerr << "error writing --quarantine-out: " << q_committed
                << "\n";
      return 1;
    }
  }
  std::cout << "repaired " << result->rows << " rows ("
            << result->cells_changed << " cells changed) in "
            << FormatDouble(timer.ElapsedMillis(), 1) << " ms -> "
            << args.Get("out") << "\n";
  if (*policy != OnErrorPolicy::kAbort) {
    std::cout << "on-error=" << OnErrorPolicyName(*policy) << ": dropped "
              << result->records_dropped << " malformed rows, quarantined "
              << result->tuples_quarantined << " tuples";
    if (args.Has("quarantine-out")) {
      std::cout << " -> " << args.Get("quarantine-out");
    }
    std::cout << "\n";
  }
  return 0;
}

int Reload(const Args& args) {
  const std::string entry = args.Require("ruleset");
  const size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    std::cerr << "bad --ruleset '" << entry
              << "' (want NAME=DICT.frd or NAME=RULES.txt@a,b,c)\n";
    return 2;
  }
  StatusOr<serve::Client> client = ConnectOrExplain(args);
  if (!client.ok()) return 1;
  const std::string name = entry.substr(0, eq);
  const StatusOr<serve::ReloadResult> result =
      client->Reload(name, entry.substr(eq + 1));
  if (!result.ok()) {
    std::cerr << "reload failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "rule set '" << name << "' now generation "
            << result->generation << " (" << result->num_rules
            << " rules)\n";
  return 0;
}

// The flags Main reads; every command accepts them.
constexpr std::string_view kGlobalFlags[] = {
    "metrics-out",    "telemetry-out", "log-level",
    "no-simd",        "progress",      "heartbeat-ms",
    "metrics-socket", "metrics-port",  "port-file"};

// Every command with the flags it reads beyond the global ones. A flag
// neither list names is a usage error, so a typo never runs with the
// default in its place.
struct Command {
  std::string_view name;  // "rules compile" for a subcommand
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"gen-data", GenData,
       {"dataset", "rows", "seed", "out", "dirty", "noise", "typos",
        "fds-out"}},
      {"gen-rules", GenRules,
       {"scale", "attrs", "seed", "clean", "dirty", "fds", "max", "out"}},
      {"rules compile", RulesCompile,
       {"rules", "attrs", "data", "scale", "seed", "out"}},
      {"rules inspect", RulesInspect, {"dict"}},
      {"discover", Discover, {"dirty", "fds", "max", "confidence", "out"}},
      {"check", Check, {"rules", "data", "strict", "resolve"}},
      {"repair", Repair,
       {"rules", "rules-dict", "in", "out", "engine", "threads", "shards",
        "no-memo", "memo-capacity", "max-chase-steps", "on-error",
        "quarantine-out", "chunk-rows", "wal", "resume", "log",
        "stream"}},
      {"audit", Audit, {"wal", "rules"}},
      {"rollback", Rollback, {"wal", "rules", "rule", "in", "out"}},
      {"eval", Eval, {"truth", "dirty", "repaired"}},
      {"serve", Serve, {"socket", "port", "ruleset", "max-pending"}},
      {"submit", Submit,
       {"socket", "port", "tenant", "in", "out", "quarantine-out", "engine",
        "threads", "shards", "no-memo", "memo-capacity", "max-chase-steps",
        "on-error"}},
      {"ping", Ping, {"socket", "port"}},
      {"reload", Reload, {"socket", "port", "ruleset"}},
  };
  return commands;
}

const Command* FindCommand(const Args& args) {
  std::string name = args.command();
  if (!args.subcommand().empty()) name += " " + args.subcommand();
  for (const Command& command : Commands()) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  InitTraceClock();  // span offsets and total_ns count from program start
  if (argc < 2) return Usage();
  const Args args(argc, argv);
  const Command* command = FindCommand(args);
  if (command == nullptr) return Usage();
  for (const std::string& flag : args.flags()) {
    if (std::find(command->flags.begin(), command->flags.end(), flag) ==
            command->flags.end() &&
        std::find(std::begin(kGlobalFlags), std::end(kGlobalFlags), flag) ==
            std::end(kGlobalFlags)) {
      std::cerr << "unknown flag --" << flag << " for " << command->name
                << "\n";
      return 2;
    }
  }
  if (args.Has("log-level")) {
    const std::string text = args.Require("log-level");
    const std::optional<LogLevel> level = TryParseLogLevel(text);
    if (!level.has_value()) {
      std::cerr << "unknown --log-level '" << text
                << "' (want debug|info|warn|error|off)\n";
      return 2;
    }
    SetGlobalLogLevel(*level);
  }
  // Pin the scalar kernel before any repair work runs; beats FIXREP_SIMD
  // since SetSimdKernel overrides the env-derived default.
  if (args.Has("no-simd")) SetSimdKernel(SimdKernel::kScalar);
  // Live telemetry wraps the whole command: the journal captures every
  // span from load to flush, and the endpoint stays scrapeable until the
  // run exits.
  std::unique_ptr<TelemetryJournal> journal;
  if (args.Has("telemetry-out")) {
    StatusOr<std::unique_ptr<TelemetryJournal>> journal_or =
        TelemetryJournal::Open(args.Require("telemetry-out"));
    if (!journal_or.ok()) {
      std::cerr << "--telemetry-out: " << journal_or.status() << "\n";
      return 2;
    }
    journal = std::move(journal_or).value();
    journal->Append(TelemetryEvent("run_start")
                        .SetString("command", args.command()));
    SetGlobalJournal(journal.get());
  }
  std::unique_ptr<MetricsServer> server;
  if (args.Has("metrics-socket") || args.Has("metrics-port")) {
    if (args.Has("metrics-socket") && args.Has("metrics-port")) {
      std::cerr << "pick one of --metrics-socket and --metrics-port\n";
      return 2;
    }
    MetricsServerOptions options;
    if (args.Has("metrics-socket")) {
      options.unix_socket_path = args.Require("metrics-socket");
    } else {
      options.tcp_port = static_cast<int>(args.GetSizeT("metrics-port", 0));
    }
    StatusOr<std::unique_ptr<MetricsServer>> server_or =
        MetricsServer::Start(std::move(options));
    if (!server_or.ok()) {
      std::cerr << "metrics endpoint: " << server_or.status() << "\n";
      return 2;
    }
    server = std::move(server_or).value();
    if (args.Has("metrics-port")) {
      std::cerr << "[fixrep] serving /metrics on 127.0.0.1:"
                << server->port() << "\n";
      // Under `serve` the daemon port owns --port-file; everywhere else
      // it publishes the /metrics port (pairs with --metrics-port=0).
      if (args.Has("port-file") && args.command() != "serve") {
        const int rc = WritePortFile(args.Require("port-file"),
                                     server->port());
        if (rc != 0) return rc;
      }
    } else {
      std::cerr << "[fixrep] serving /metrics on "
                << server->socket_path() << "\n";
    }
  }
  std::unique_ptr<HeartbeatSampler> sampler;
  if (journal != nullptr || args.Has("progress") ||
      args.Has("heartbeat-ms")) {
    HeartbeatOptions options;
    options.interval_ms = args.GetSizeT("heartbeat-ms", 1000);
    options.journal = journal.get();
    options.progress = args.Has("progress");
    sampler = std::make_unique<HeartbeatSampler>(options);
    sampler->Start();
  }

  const int rc = command->run(args);

  if (sampler != nullptr) sampler->Stop();  // emits the final sample
  if (server != nullptr) server->Stop();
  if (journal != nullptr) {
    SetGlobalJournal(nullptr);
    journal->Append(TelemetryEvent("run_end")
                        .Set("exit_code", static_cast<int64_t>(rc))
                        .Set("rss_peak_bytes", TelemetryPeakRssBytes()));
  }
  if (args.Has("metrics-out")) {
    const std::string path = args.Require("metrics-out");
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open --metrics-out path '" << path << "'\n";
      return 2;
    }
    WriteMetricsJson(out);
    FIXREP_LOG(Info) << "wrote metrics snapshot" << Kv("path", path);
  }
  return rc;
}

}  // namespace
}  // namespace fixrep::cli

int main(int argc, char** argv) { return fixrep::cli::Main(argc, argv); }
