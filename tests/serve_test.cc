// The multi-tenant repair daemon (src/serve/, docs/serving.md): wire
// protocol round trips and corruption handling, tenant registry load /
// hot-reload semantics, request decoding under the shared pool lock
// (ValueIds and diagnostics against a direct parse, fresh values
// interned once under concurrency), tenant metrics on a live /metrics
// scrape, and a live daemon exercised by concurrent
// clients — byte-identity against direct RepairSession runs on the
// travel/hosp/uis workloads (also for splice responses over batches in
// every CSV dialect form, and their size bound), dropped-record counts,
// admission rejection under a full queue,
// reload under load with zero dropped requests, and graceful drain
// (including a real fixrep_cli child on SIGTERM).

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/metrics_server.h"
#include "common/quarantine.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "repair/config.h"
#include "repair/memo_cache.h"
#include "repair/session.h"
#include "rulegen/rulegen.h"
#include "rules/rule_dict.h"
#include "rules/rule_io.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "testing_util.h"

namespace fixrep::serve {
namespace {

using ::fixrep::testing::SplicedCsv;

// Per-test files (sockets, port files) live in the test's own
// directory; the workloads below are built once per process and live in
// the process directory so every test in the binary can load them.
std::string TempPath(const std::string& name) {
  return ::fixrep::testing::TestTempPath(name);
}
std::string SharedPath(const std::string& name) {
  return ::fixrep::testing::ProcessTempPath(name);
}

std::string ToCsv(const Table& table) {
  std::ostringstream out;
  WriteCsv(table, out);
  return out.str();
}

std::string JoinAttrs(const Schema& schema) {
  std::string out;
  for (const std::string& name : schema.attribute_names()) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out;
}

// One self-contained workload: a dirty batch (as CSV bytes), its rules
// on disk (text, and optionally compiled), and the tenant spec that
// serves them.
struct Workload {
  std::string name;
  std::string csv;         // dirty batch, header + rows
  std::string rules_path;  // text rules file
  std::string spec;        // --ruleset value (minus NAME=)
  std::shared_ptr<ValuePool> pool;
  std::shared_ptr<const Schema> schema;
  std::optional<RuleSet> rules;
  std::string expected;  // direct RepairSession output, default config
};

// Mirrors the daemon's request path with a private pool: parse the
// batch leniently, repair through RepairSession, write CSV + the
// quarantine file. Byte-for-byte what a dependable daemon must return.
struct DirectRun {
  Status status = Status::Ok();
  std::string csv;
  std::string quarantine;
  uint64_t tuples_quarantined = 0;
  uint64_t records_dropped = 0;
};

DirectRun DirectRepair(const Workload& w, const RepairConfig& base) {
  DirectRun run;
  RepairConfig config = base;
  const bool quarantining = config.on_error == OnErrorPolicy::kQuarantine;
  VectorQuarantineSink row_sink;
  VectorQuarantineSink tuple_sink;
  if (quarantining) config.quarantine = &tuple_sink;
  auto pool = std::make_shared<ValuePool>();
  StatusOr<RuleSet> rules =
      ParseRulesFileLenient(w.rules_path, w.schema, pool, {});
  if (!rules.ok()) {
    run.status = rules.status();
    return run;
  }
  std::istringstream in(w.csv);
  CsvReadOptions csv_options;
  csv_options.on_error = config.on_error;
  csv_options.quarantine = quarantining ? &row_sink : nullptr;
  StatusOr<CsvChunkReader> reader =
      CsvChunkReader::Open(in, "data", pool, csv_options);
  if (!reader.ok()) {
    run.status = reader.status();
    return run;
  }
  Table table = reader->MakeChunkTable();
  const StatusOr<size_t> read =
      reader->ReadChunk(&table, std::numeric_limits<size_t>::max());
  if (!read.ok()) {
    run.status = read.status();
    return run;
  }
  run.records_dropped = reader->records_read() - table.num_rows();
  RepairSession session(&rules.value(), config);
  StatusOr<RepairReport> report = session.Repair(&table);
  if (!report.ok()) {
    run.status = report.status();
    return run;
  }
  run.csv = ToCsv(table);
  run.tuples_quarantined = report.value().tuples_quarantined;
  if (quarantining && (!row_sink.diagnostics().empty() ||
                       !tuple_sink.diagnostics().empty())) {
    std::ostringstream q;
    WriteQuarantineHeader(q);
    for (const Diagnostic& d : row_sink.diagnostics()) {
      WriteQuarantineRecord(q, "csv", d);
    }
    for (const Diagnostic& d : tuple_sink.diagnostics()) {
      WriteQuarantineRecord(q, "repair", d);
    }
    run.quarantine = q.str();
  }
  return run;
}

Workload MakeTravelWorkload() {
  Workload w;
  w.name = "travel";
  TravelExample example;
  w.pool = example.pool;
  w.schema = example.schema;
  w.csv = ToCsv(example.dirty);
  w.rules_path = SharedPath("travel_rules.txt");
  EXPECT_TRUE(TryWriteRulesFile(example.rules, w.rules_path).ok());
  w.spec = w.rules_path + "@" + JoinAttrs(*example.schema);
  w.rules.emplace(example.rules);
  w.expected = DirectRepair(w, {}).csv;
  return w;
}

Workload MakeGeneratedWorkload(const std::string& name, GeneratedData data,
                               size_t max_rules) {
  Workload w;
  w.name = name;
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions rulegen;
  rulegen.max_rules = max_rules;
  const RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  w.pool = data.pool;
  w.schema = data.schema;
  w.csv = ToCsv(dirty);
  w.rules_path = SharedPath(name + "_rules.txt");
  EXPECT_TRUE(TryWriteRulesFile(rules, w.rules_path).ok());
  w.spec = w.rules_path + "@" + JoinAttrs(*data.schema);
  w.rules.emplace(rules);
  w.expected = DirectRepair(w, {}).csv;
  return w;
}

Workload MakeHospWorkload() {
  HospOptions options;
  options.rows = 1500;
  options.num_hospitals = 60;
  return MakeGeneratedWorkload("hosp", GenerateHosp(options), 150);
}

Workload MakeUisWorkload() {
  UisOptions options;
  options.rows = 600;
  return MakeGeneratedWorkload("uis", GenerateUis(options), 80);
}

// A dict-backed twin of the hosp workload: same rules, compiled to the
// mmap artifact, so the tenant exercises the RuleDict repository path.
Workload MakeHospDictWorkload(const Workload& hosp) {
  Workload w = hosp;
  w.name = "hospdict";
  const std::string dict_path = SharedPath("hosp_rules.frd");
  EXPECT_TRUE(CompileRuleDict(*hosp.rules, dict_path).ok());
  w.spec = dict_path;  // dictionaries are schema-self-describing
  return w;
}

// Built once: rule generation dominates test wall time.
const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload>* workloads = [] {
    auto* all = new std::vector<Workload>();
    all->push_back(MakeTravelWorkload());
    all->push_back(MakeHospWorkload());
    all->push_back(MakeUisWorkload());
    all->push_back(MakeHospDictWorkload((*all)[1]));
    return all;
  }();
  return *workloads;
}

// --- protocol ---

TEST(ServeProtocolTest, RequestRoundTripsEveryVerb) {
  Request repair;
  repair.verb = Verb::kRepair;
  repair.repair.tenant = "hosp";
  repair.repair.config = {{"engine", "crepair"}, {"threads", "4"}};
  repair.repair.csv = "a,b\n1,2\n";
  Request reload;
  reload.verb = Verb::kReload;
  reload.reload.tenant = "hosp";
  reload.reload.spec = "/tmp/rules.txt@a,b";
  Request ping;
  ping.verb = Verb::kPing;
  Request list;
  list.verb = Verb::kList;

  for (const Request& request : {repair, reload, ping, list}) {
    std::string wire;
    AppendFrame(&wire, EncodeRequest(request));
    std::string_view bytes = wire;
    FrameReader reader;
    ASSERT_EQ(reader.Feed(&bytes), FrameParse::kFrame);
    EXPECT_TRUE(bytes.empty());  // fully consumed
    const Frame frame = reader.TakeFrame();
    ASSERT_TRUE(frame.Verify().ok());
    StatusOr<Request> decoded = DecodeRequest(frame.payload());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->verb, request.verb);
    EXPECT_EQ(decoded->repair.tenant, request.repair.tenant);
    EXPECT_EQ(decoded->repair.config, request.repair.config);
    EXPECT_EQ(decoded->repair.csv, request.repair.csv);
    EXPECT_EQ(decoded->reload.tenant, request.reload.tenant);
    EXPECT_EQ(decoded->reload.spec, request.reload.spec);
  }
}

TEST(ServeProtocolTest, ResponseRoundTripsResultsAndErrors) {
  Response ok;
  ok.verb = Verb::kRepair;
  ok.repair.rows = 7;
  ok.repair.cells_changed = 3;
  ok.repair.tuples_quarantined = 1;
  ok.repair.records_dropped = 2;
  ok.repair.splice = {10, {{4, 4, 6}}, "1,\"x\"\n"};
  ok.repair.quarantine = "source,line\n";
  std::string payload = EncodeResponse(ok);
  StatusOr<Response> decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->repair.rows, 7u);
  EXPECT_EQ(decoded->repair.cells_changed, 3u);
  EXPECT_EQ(decoded->repair.tuples_quarantined, 1u);
  EXPECT_EQ(decoded->repair.records_dropped, 2u);
  EXPECT_EQ(decoded->repair.splice, ok.repair.splice);
  EXPECT_EQ(decoded->repair.quarantine, ok.repair.quarantine);
  std::string spliced;
  ASSERT_TRUE(ApplyCsvSplice("a,b\n1,2\n", decoded->repair.splice, &spliced)
                  .ok());
  EXPECT_EQ(spliced, "a,b\n1,\"x\"\n");

  Response error;
  error.verb = Verb::kRepair;
  error.status = Status::Unavailable("admission queue full");
  decoded = DecodeResponse(EncodeResponse(error));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded->status.message(), "admission queue full");
}

TEST(ServeProtocolTest, CorruptedPayloadFailsCrc) {
  Request request;
  request.verb = Verb::kPing;
  std::string frame;
  AppendFrame(&frame, EncodeRequest(request));
  frame[9] ^= 0x40;  // flip a payload bit, CRC trailer now disagrees
  std::string_view bytes = frame;
  FrameReader reader;
  ASSERT_EQ(reader.Feed(&bytes), FrameParse::kFrame);
  const Status status = reader.TakeFrame().Verify();
  EXPECT_EQ(status.code(), StatusCode::kMalformedInput);
}

TEST(ServeProtocolTest, PartialFramesNeedMoreAndPipelineCleanly) {
  Request a;
  a.verb = Verb::kRepair;
  a.repair.tenant = "t";
  a.repair.csv = "a\n1\n";
  Request b;
  b.verb = Verb::kList;
  std::string wire;
  AppendFrame(&wire, EncodeRequest(a));
  AppendFrame(&wire, EncodeRequest(b));

  // Dribble the bytes in: never a frame until the last byte of A, and
  // the reader takes none of frame B before A is taken.
  FrameReader reader;
  size_t frames = 0;
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string_view byte(&wire[i], 1);
    const FrameParse parse = reader.Feed(&byte);
    EXPECT_TRUE(byte.empty());
    if (parse != FrameParse::kFrame) {
      ASSERT_EQ(parse, FrameParse::kNeedMore);
      continue;
    }
    const Frame frame = reader.TakeFrame();
    ASSERT_TRUE(frame.Verify().ok());
    StatusOr<Request> decoded = DecodeRequest(frame.payload());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->verb, frames == 0 ? Verb::kRepair : Verb::kList);
    ++frames;
  }
  EXPECT_EQ(frames, 2u);

  // Both frames in one piece: the reader stops at the end of A.
  std::string_view both = wire;
  ASSERT_EQ(reader.Feed(&both), FrameParse::kFrame);
  EXPECT_EQ(both.size(), wire.size() - reader.TakeFrame().payload().size() -
                             12);
  ASSERT_EQ(reader.Feed(&both), FrameParse::kFrame);
  EXPECT_TRUE(both.empty());
  EXPECT_EQ(DecodeRequest(reader.TakeFrame().payload())->verb, Verb::kList);
}

TEST(ServeProtocolTest, GarbageStreamsAreRejectedNotBuffered) {
  std::string_view http = "GET /metrics HTTP/1.1\r\n";
  EXPECT_EQ(FrameReader().Feed(&http), FrameParse::kBadMagic);

  // A correct magic with an absurd length prefix must not allocate.
  std::string header("FXRP", 4);
  const uint32_t huge = kMaxFramePayload + 1;
  header.append(reinterpret_cast<const char*>(&huge), 4);
  std::string_view bytes = header;
  EXPECT_EQ(FrameReader().Feed(&bytes), FrameParse::kTooLarge);
}

TEST(ServeProtocolTest, DecodeRejectsVersionSkewAndTrailingBytes) {
  Request request;
  request.verb = Verb::kPing;
  std::string payload = EncodeRequest(request);
  payload[0] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_FALSE(DecodeRequest(payload).ok());

  payload = EncodeRequest(request);
  payload += "extra";
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

// --- registry ---

TEST(ServeRegistryTest, ParseTenantSpecGrammar) {
  StatusOr<TenantSpec> dict = ParseTenantSpec("/tmp/dict.frd");
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ(dict->path, "/tmp/dict.frd");
  EXPECT_TRUE(dict->attrs.empty());

  StatusOr<TenantSpec> text = ParseTenantSpec("/tmp/rules.txt@a,b,c");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->path, "/tmp/rules.txt");
  EXPECT_EQ(text->attrs, (std::vector<std::string>{"a", "b", "c"}));

  EXPECT_FALSE(ParseTenantSpec("").ok());
  EXPECT_FALSE(ParseTenantSpec("@a,b").ok());
  EXPECT_FALSE(ParseTenantSpec("/tmp/rules.txt@a,,c").ok());
}

TEST(ServeRegistryTest, LoadReloadAndFailureKeepsOldSnapshot) {
  const Workload& travel = AllWorkloads()[0];
  TenantRegistry registry;
  ASSERT_TRUE(registry.Load("travel", travel.spec).ok());
  const auto first = registry.Find("travel");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->generation(), 1u);
  EXPECT_FALSE(first->dict_backed());
  EXPECT_EQ(first->num_rules(), travel.rules->size());
  EXPECT_EQ(registry.Find("nosuch"), nullptr);

  // Reload replaces the snapshot and bumps the generation; the pinned
  // old snapshot stays alive and usable.
  ASSERT_TRUE(registry.Load("travel", travel.spec).ok());
  const auto second = registry.Find("travel");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->generation(), 2u);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(first->generation(), 1u);

  // A failing reload leaves the published snapshot untouched.
  EXPECT_FALSE(
      registry.Load("travel", TempPath("absent_rules.txt") + "@a,b").ok());
  EXPECT_EQ(registry.Find("travel").get(), second.get());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ServeRegistryTest, DictTenantIsSelfDescribing) {
  const Workload& hospdict = AllWorkloads()[3];
  TenantRegistry registry;
  ASSERT_TRUE(registry.Load("hospdict", hospdict.spec).ok());
  const auto snapshot = registry.Find("hospdict");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->dict_backed());
  EXPECT_EQ(snapshot->num_rules(), hospdict.rules->size());
  EXPECT_EQ(snapshot->schema()->attribute_names(),
            hospdict.schema->attribute_names());

  // A dictionary carries its own schema; explicit attrs are an error.
  EXPECT_FALSE(registry.Load("bad", hospdict.spec + "@a,b").ok());
}

// --- decode under the shared pool lock ---

std::vector<std::string> PoolStrings(const ValuePool& pool) {
  std::vector<std::string> out;
  out.reserve(pool.size());
  for (size_t id = 0; id < pool.size(); ++id) {
    out.push_back(pool.GetString(static_cast<ValueId>(id)));
  }
  return out;
}

std::shared_ptr<const TenantSnapshot> LoadFresh(TenantRegistry* registry,
                                                const Workload& w) {
  EXPECT_TRUE(registry->Load(w.name, w.spec).ok()) << w.name;
  return registry->Find(w.name);
}

// A hosp-arity record whose fields need the tokenizer's slow path (quotes
// with commas, an embedded newline, a bare '\r') and hold values no
// tenant pool has seen.
std::string SlowPathRecord(const Workload& w) {
  std::string record = "\"fresh, quoted\",\"two\nlines\",bare\rcr";
  for (size_t a = 3; a < w.schema->arity(); ++a) {
    record += ",fresh" + std::to_string(a % 4);
  }
  return record + "\n";
}

TEST(ServeDecodeTest, FreshTenantDecodesLikeWriterLockedRead) {
  const Workload& hosp = AllWorkloads()[1];
  const size_t header_end = hosp.csv.find('\n') + 1;
  const size_t middle = hosp.csv.find('\n', hosp.csv.size() / 2) + 1;
  const std::vector<std::pair<std::string, std::string>> batches = {
      {"clean", hosp.csv},
      {"slow path", hosp.csv + SlowPathRecord(hosp)},
      {"torn middle row",
       hosp.csv.substr(0, middle) + "too,few\n" + SlowPathRecord(hosp) +
           hosp.csv.substr(middle)},
      {"unterminated quote", hosp.csv + "\"never closed,x\n"},
      {"header only", hosp.csv.substr(0, header_end)},
  };
  for (const OnErrorPolicy policy :
       {OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
        OnErrorPolicy::kQuarantine}) {
    for (const auto& [label, csv] : batches) {
      SCOPED_TRACE(label + " / policy " +
                   std::to_string(static_cast<int>(policy)));
      TenantRegistry shared_registry;
      TenantRegistry reference_registry;
      const auto shared = LoadFresh(&shared_registry, hosp);
      const auto reference = LoadFresh(&reference_registry, hosp);
      ASSERT_NE(shared, nullptr);
      ASSERT_NE(reference, nullptr);
      const std::vector<std::string> loaded = PoolStrings(*shared->pool());
      ASSERT_EQ(loaded, PoolStrings(*reference->pool()));

      VectorQuarantineSink shared_sink;
      VectorQuarantineSink reference_sink;
      CsvReadOptions options;
      options.on_error = policy;
      options.quarantine = &shared_sink;
      StatusOr<Table> decoded = shared->DecodeCsv(csv, options);
      options.quarantine = &reference_sink;
      StatusOr<Table> read = [&] {
        std::unique_lock<std::shared_mutex> writer(reference->pool_mutex());
        return ReadCsvBytesLenient(csv, "data", reference->pool(), options);
      }();

      EXPECT_EQ(shared_sink.diagnostics(), reference_sink.diagnostics());
      if (!read.ok()) {
        // Same failure; the rejected batch left the shared pool alone
        // (the writer-locked read interned the records before it).
        ASSERT_FALSE(decoded.ok());
        EXPECT_EQ(decoded.status().code(), read.status().code());
        EXPECT_EQ(decoded.status().message(),
                  read.status().WithContext("request csv").message());
        EXPECT_EQ(PoolStrings(*shared->pool()), loaded);
        continue;
      }
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_TRUE(decoded->RowsEqual(read.value()));
      EXPECT_EQ(PoolStrings(*shared->pool()), PoolStrings(*reference->pool()));
      EXPECT_EQ(ToCsv(decoded.value()), ToCsv(read.value()));
    }
  }
}

TEST(ServeDecodeTest, MismatchedHeaderInternsNothing) {
  const Workload& hosp = AllWorkloads()[1];
  TenantRegistry registry;
  const auto snapshot = LoadFresh(&registry, hosp);
  ASSERT_NE(snapshot, nullptr);
  const size_t before = snapshot->pool()->size();
  StatusOr<Table> decoded =
      snapshot->DecodeCsv("wrong,header\nnever,seen\n", CsvReadOptions{});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kMalformedInput);
  EXPECT_NE(decoded.status().message().find("does not match rule set"),
            std::string::npos);
  EXPECT_EQ(snapshot->pool()->size(), before);
}

// --- daemon ---

class ServeDaemonTest : public ::testing::Test {
 protected:
  void StartDaemon(DaemonOptions options = {},
                   const std::vector<size_t>& workload_indices = {0, 1, 2,
                                                                  3}) {
    // The test's own directory is keyed by test name and pid:
    // concurrent serve_test processes (CI, sanitizer reruns) must not
    // unlink or bind over each other's sockets.
    socket_path_ = TempPath("d.sock");
    std::remove(socket_path_.c_str());
    for (const size_t index : workload_indices) {
      const Workload& w = AllWorkloads()[index];
      ASSERT_TRUE(registry_.Load(w.name, w.spec).ok()) << w.name;
    }
    if (options.unix_socket_path.empty() && options.tcp_port < 0) {
      options.unix_socket_path = socket_path_;
    }
    StatusOr<std::unique_ptr<RepairDaemon>> daemon =
        RepairDaemon::Start(&registry_, std::move(options));
    ASSERT_TRUE(daemon.ok()) << daemon.status();
    daemon_ = std::move(daemon).value();
  }

  void TearDown() override {
    if (daemon_ != nullptr) daemon_->Shutdown();
    std::remove(socket_path_.c_str());
  }

  StatusOr<Client> Connect() {
    ClientOptions options;
    options.unix_socket_path = socket_path_;
    return Client::Connect(options);
  }

  std::string socket_path_;
  TenantRegistry registry_;
  std::unique_ptr<RepairDaemon> daemon_;
};

TEST_F(ServeDaemonTest, PingAndListReportTenants) {
  StartDaemon();
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  StatusOr<PingInfo> info = client->Ping();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->rule_sets, 4u);

  StatusOr<std::vector<RuleSetInfo>> sets = client->List();
  ASSERT_TRUE(sets.ok()) << sets.status();
  ASSERT_EQ(sets->size(), 4u);
  bool saw_dict = false;
  for (const RuleSetInfo& set : sets.value()) {
    EXPECT_EQ(set.generation, 1u) << set.name;
    EXPECT_GT(set.num_rules, 0u) << set.name;
    if (set.name == "hospdict") saw_dict = set.dict_backed;
  }
  EXPECT_TRUE(saw_dict);
}

TEST_F(ServeDaemonTest, SubmitMatchesDirectRepairPerTenant) {
  StartDaemon();
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  for (const Workload& w : AllWorkloads()) {
    StatusOr<RepairResult> result = client->Submit(w.name, {}, w.csv);
    ASSERT_TRUE(result.ok()) << w.name << ": " << result.status();
    EXPECT_EQ(SplicedCsv(w.csv, result->splice), w.expected) << w.name;
    EXPECT_GT(result->cells_changed, 0u) << w.name;
  }
}

TEST_F(ServeDaemonTest, RequestsRecordDecodeEncodeSpansAndCsvBytes) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  StartDaemon();
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const Workload& travel = AllWorkloads()[0];
  StatusOr<RepairResult> result = client->Submit(travel.name, {}, travel.csv);
  ASSERT_TRUE(result.ok()) << result.status();
  // The request ran under the tenant's scope, so its stage spans and CSV
  // byte counts are attributed there: exactly one decode and one encode,
  // parsing the whole request and rendering only the splice's
  // replacement bytes, which on travel are fewer than the result's.
  const MetricsRegistry& tenant = registry_.Scope(travel.name)->registry();
  for (const char* span :
       {"fixrep.span.serve.decode_ns", "fixrep.span.serve.encode_ns"}) {
    const Histogram* histogram = tenant.FindHistogram(span);
    ASSERT_NE(histogram, nullptr) << span;
    EXPECT_EQ(histogram->Count(), 1u) << span;
  }
  const Counter* parsed = tenant.FindCounter("fixrep.csv.bytes_parsed");
  const Counter* emitted = tenant.FindCounter("fixrep.csv.bytes_emitted");
  ASSERT_NE(parsed, nullptr);
  ASSERT_NE(emitted, nullptr);
  EXPECT_EQ(parsed->Value(), travel.csv.size());
  EXPECT_EQ(emitted->Value(), result->splice.inserts.size());
  EXPECT_LT(emitted->Value(), result->splice.output_size);
}

TEST_F(ServeDaemonTest, ConfigHeadersSelectEngineAndThreads) {
  StartDaemon();
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const Workload& travel = AllWorkloads()[0];
  for (const auto& config :
       std::vector<std::vector<std::pair<std::string, std::string>>>{
           {{"engine", "crepair"}},
           {{"threads", "4"}},
           {{"threads", "2"}, {"no-memo", "true"}}}) {
    RepairConfig direct_config;
    for (const auto& [key, value] : config) {
      ASSERT_TRUE(ParseRepairConfig(key, value, &direct_config).ok());
    }
    const DirectRun direct = DirectRepair(travel, direct_config);
    ASSERT_TRUE(direct.status.ok()) << direct.status;
    StatusOr<RepairResult> result =
        client->Submit(travel.name, config, travel.csv);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(SplicedCsv(travel.csv, result->splice), direct.csv);
    // The engines agree byte for byte.
    EXPECT_EQ(SplicedCsv(travel.csv, result->splice), travel.expected);
  }
}

TEST_F(ServeDaemonTest, ConcurrentMixedTenantsAreByteIdentical) {
  StartDaemon();
  constexpr size_t kClients = 8;
  constexpr size_t kRequestsPerClient = 4;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      StatusOr<Client> client = Connect();
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        const Workload& w = AllWorkloads()[(c + r) % AllWorkloads().size()];
        StatusOr<RepairResult> result = client->Submit(w.name, {}, w.csv);
        if (!result.ok() || SplicedCsv(w.csv, result->splice) != w.expected) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(daemon_->requests_served(), kClients * kRequestsPerClient);
}

TEST_F(ServeDaemonTest, UnknownTenantAndSessionLocalKeysAreRejected) {
  StartDaemon();
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const Workload& travel = AllWorkloads()[0];

  StatusOr<RepairResult> unknown = client->Submit("nosuch", {}, travel.csv);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kMalformedInput);

  for (const char* key : {"wal", "chunk-rows"}) {
    StatusOr<RepairResult> local = client->Submit(
        travel.name, {{key, "whatever"}}, travel.csv);
    ASSERT_FALSE(local.ok()) << key;
    EXPECT_EQ(local.status().code(), StatusCode::kMalformedInput) << key;
    EXPECT_NE(local.status().message().find("session-local"),
              std::string::npos)
        << key << ": " << local.status();
  }
  // The rules, the metric scope and a memory budget are no config keys
  // at all: a request naming one is refused, not ignored.
  for (const char* key : {"rules-dict", "scoped-metrics", "memory-budget"}) {
    StatusOr<RepairResult> unknown_key =
        client->Submit(travel.name, {{key, "whatever"}}, travel.csv);
    ASSERT_FALSE(unknown_key.ok()) << key;
    EXPECT_EQ(unknown_key.status().code(), StatusCode::kMalformedInput)
        << key;
    EXPECT_NE(unknown_key.status().message().find("unknown repair config key"),
              std::string::npos)
        << key << ": " << unknown_key.status();
  }

  StatusOr<RepairResult> bad_key =
      client->Submit(travel.name, {{"frobnicate", "1"}}, travel.csv);
  ASSERT_FALSE(bad_key.ok());
  EXPECT_EQ(bad_key.status().code(), StatusCode::kMalformedInput);

  // The connection survives rejected requests.
  StatusOr<RepairResult> again = client->Submit(travel.name, {}, travel.csv);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(SplicedCsv(travel.csv, again->splice), travel.expected);
}

TEST_F(ServeDaemonTest, OversizeMemoAndWorkerRequestsAreBounded) {
  StartDaemon();
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const Workload& travel = AllWorkloads()[0];

  // A capacity past MemoCache::kMaxCapacity, one whose power-of-two
  // round-up would wrap to 0, and one past size_t: each is an error
  // response, not a hang or an allocation failure in the daemon.
  for (const std::string& capacity : std::vector<std::string>{
           std::to_string(MemoCache::kMaxCapacity + 1), "1099511627776",
           "18446744073709551615", "99999999999999999999999"}) {
    StatusOr<RepairResult> refused = client->Submit(
        travel.name, {{"memo-capacity", capacity}}, travel.csv);
    ASSERT_FALSE(refused.ok()) << capacity;
    EXPECT_EQ(refused.status().code(), StatusCode::kMalformedInput)
        << capacity;
  }

  // A worker count far past the pool width is capped, not honoured.
  StatusOr<RepairResult> wide = client->Submit(
      travel.name, {{"threads", "20000"}, {"shards", "0"}}, travel.csv);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(SplicedCsv(travel.csv, wide->splice), travel.expected);

  // The daemon keeps serving the same connection.
  StatusOr<RepairResult> again = client->Submit(
      travel.name, {{"memo-capacity", std::to_string(MemoCache::kMaxCapacity)}},
      travel.csv);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(SplicedCsv(travel.csv, again->splice), travel.expected);
}

TEST_F(ServeDaemonTest, MismatchedHeaderAndQuarantinePolicyMatchDirect) {
  StartDaemon();
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const Workload& travel = AllWorkloads()[0];

  StatusOr<RepairResult> mismatch =
      client->Submit(travel.name, {}, "wrong,header\n1,2\n");
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kMalformedInput);

  // A batch with a malformed row (wrong field count): abort fails,
  // quarantine captures it with the same bytes the local lenient flow
  // writes.
  const std::string torn = travel.csv + "too,few\n";
  StatusOr<RepairResult> abort = client->Submit(travel.name, {}, torn);
  EXPECT_FALSE(abort.ok());

  Workload torn_workload = travel;
  torn_workload.csv = torn;
  RepairConfig lenient;
  lenient.on_error = OnErrorPolicy::kQuarantine;
  const DirectRun direct = DirectRepair(torn_workload, lenient);
  ASSERT_TRUE(direct.status.ok()) << direct.status;
  StatusOr<RepairResult> quarantined = client->Submit(
      travel.name, {{"on-error", "quarantine"}}, torn);
  ASSERT_TRUE(quarantined.ok()) << quarantined.status();
  EXPECT_EQ(SplicedCsv(torn, quarantined->splice), direct.csv);
  EXPECT_EQ(quarantined->quarantine, direct.quarantine);
  EXPECT_FALSE(quarantined->quarantine.empty());
  EXPECT_EQ(quarantined->tuples_quarantined, direct.tuples_quarantined);
}

// Two malformed records in the travel batch: an arity mismatch after
// the first row and an unterminated quote at the end.
std::string TornTravelBatch() {
  const std::string& csv = AllWorkloads()[0].csv;
  const size_t first_row_end = csv.find('\n', csv.find('\n') + 1) + 1;
  return csv.substr(0, first_row_end) + "too,few\n" +
         csv.substr(first_row_end) + "x,\"unterminated\n";
}

TEST_F(ServeDaemonTest, SubmitCountsDroppedRecordsUnderSkipAndQuarantine) {
  StartDaemon({}, {0});
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  Workload torn = AllWorkloads()[0];
  torn.csv = TornTravelBatch();
  for (const char* policy : {"skip", "quarantine"}) {
    SCOPED_TRACE(policy);
    RepairConfig config;
    ASSERT_TRUE(ParseRepairConfig("on-error", policy, &config).ok());
    const DirectRun direct = DirectRepair(torn, config);
    ASSERT_TRUE(direct.status.ok()) << direct.status;
    ASSERT_EQ(direct.records_dropped, 2u);
    StatusOr<RepairResult> result =
        client->Submit(torn.name, {{"on-error", policy}}, torn.csv);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->records_dropped, 2u);
    EXPECT_EQ(SplicedCsv(torn.csv, result->splice), direct.csv);
    EXPECT_EQ(result->quarantine, direct.quarantine);

    StatusOr<RepairResult> clean =
        client->Submit(torn.name, {{"on-error", policy}},
                       AllWorkloads()[0].csv);
    ASSERT_TRUE(clean.ok()) << clean.status();
    EXPECT_EQ(clean->records_dropped, 0u);

#ifdef FIXREP_CLI_PATH
    // `fixrep_cli submit` reports the count the way `repair` does.
    const std::string in_path = TempPath("torn.csv");
    const std::string out_path = TempPath("out.csv");
    {
      std::ofstream in(in_path, std::ios::binary);
      in << torn.csv;
    }
    const std::string command =
        std::string("'") + FIXREP_CLI_PATH + "' submit --socket '" +
        socket_path_ + "' --tenant travel --in '" + in_path + "' --out '" +
        out_path + "' --on-error " + policy + " 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buffer[256];
    while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
    EXPECT_EQ(pclose(pipe), 0) << output;
    EXPECT_NE(output.find(std::string("on-error=") + policy +
                          ": dropped 2 malformed rows, quarantined 0 tuples"),
              std::string::npos)
        << output;
    std::ifstream out(out_path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(out), {}),
              direct.csv);
#endif
  }
}

// `fixrep_cli submit --in` reads a pipe to EOF: a FIFO input gives the
// same output bytes as the same CSV in a file.
TEST_F(ServeDaemonTest, CliSubmitReadsAFifo) {
#ifndef FIXREP_CLI_PATH
  GTEST_SKIP() << "built without FIXREP_CLI_PATH";
#else
  StartDaemon({}, {0});
  const std::string file_path = TempPath("batch.csv");
  const std::string fifo_path = TempPath("batch.fifo");
  std::remove(fifo_path.c_str());
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0) << std::strerror(errno);
  // Runs `fixrep_cli submit` with `prelude` run in the background first
  // (the FIFO's writer); returns its output file's bytes.
  auto submit = [&](const std::string& in, const std::string& prelude,
                    const std::string& out) {
    const std::string command =
        prelude + "exec '" + FIXREP_CLI_PATH + "' submit --socket '" +
        socket_path_ + "' --tenant travel --in '" + in + "' --out '" + out +
        "' 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr) return std::string();
    std::string output;
    char buffer[256];
    while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
    EXPECT_EQ(pclose(pipe), 0) << output;
    std::ifstream result(out, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(result), {});
  };
  // The travel batch, and its rows repeated past several doublings of
  // the reader's 64 KiB first buffer for a FIFO.
  const std::string& csv = AllWorkloads()[0].csv;
  const size_t header_end = csv.find('\n') + 1;
  std::string big = csv;
  while (big.size() < 300000) big += csv.substr(header_end);
  const std::string* batches[] = {&csv, &big};
  for (const std::string* batch : batches) {
    {
      std::ofstream file(file_path, std::ios::binary);
      file << *batch;
    }
    const std::string from_file = submit(file_path, "", TempPath("file.out"));
    const std::string from_fifo =
        submit(fifo_path, "cat '" + file_path + "' > '" + fifo_path + "' & ",
               TempPath("fifo.out"));
    // Release the writer if the submit never opened the FIFO.
    const int drain = ::open(fifo_path.c_str(), O_RDONLY | O_NONBLOCK);
    if (drain >= 0) ::close(drain);
    EXPECT_GT(from_file.size(), batch->size() / 2);
    EXPECT_EQ(from_fifo, from_file);
  }
#endif
}

// --- splice responses ---

// What a splice may cost over the same response carrying the whole
// result: one 24-byte edit. Edits closer than that merge, so each
// further edit skips at least 24 unchanged bytes.
constexpr size_t kSpliceOverheadBytes = 24;

// A batch spelled in the dialect's other forms, seeded: quoted fields
// with "" escapes, mid-field quotes, quoted embedded newlines, bare '\r',
// CRLF line ends, empty lines, arity-bad records, a missing final
// newline and an unterminated quote at the end. The cells are
// `w`'s rows, except where an embedded newline adds to a value.
std::string RespelledBatch(const Workload& w, Rng* rng) {
  StatusOr<Table> table =
      ReadCsvBytesLenient(w.csv, "data", std::make_shared<ValuePool>());
  EXPECT_TRUE(table.ok()) << table.status();
  auto quoted = [](std::string_view v) {
    std::string out = "\"";
    for (const char ch : v) {
      if (ch == '"') out += '"';
      out += ch;
    }
    return out + "\"";
  };
  auto field = [&](const std::string& v) {
    std::string plain;
    AppendCsvField(v, &plain);
    const bool special = plain != v;
    switch (rng->Uniform(16)) {  // three in four fields stay plain
      case 0:
        return quoted(v);
      case 1:
        return quoted(v + "\n+");
      case 2:
        return "\r" + plain;  // a bare '\r' outside quotes is dropped
      case 3: {
        if (special || v.empty()) return quoted(v);
        const size_t cut = rng->Uniform(v.size());
        return v.substr(0, cut) + quoted(v.substr(cut));
      }
      default:
        return plain;
    }
  };
  auto line_end = [&] { return rng->Bernoulli(0.2) ? "\r\n" : "\n"; };
  std::string out;
  const Schema& schema = table->schema();
  for (size_t a = 0; a < schema.arity(); ++a) {
    if (a > 0) out += ',';
    const std::string& name = schema.attribute_name(static_cast<AttrId>(a));
    out += rng->Bernoulli(0.2) ? quoted(name) : name;
  }
  out += line_end();
  for (size_t r = 0; r < table->num_rows(); ++r) {
    if (rng->Bernoulli(0.02)) out += line_end();           // empty line
    if (rng->Bernoulli(0.02)) out += "a,\"b\",c" + std::string(line_end());
    for (size_t a = 0; a < table->num_columns(); ++a) {
      if (a > 0) out += ',';
      out += field(table->CellString(r, static_cast<AttrId>(a)));
    }
    out += line_end();
  }
  if (rng->Bernoulli(0.3)) {
    out.resize(out.size() - (out.ends_with("\r\n") ? 2 : 1));
  } else if (rng->Bernoulli(0.2)) {
    out += "1,\"open";
  }
  return out;
}

// The size of the same response carrying the whole result: the fixed
// fields, the result and the quarantine text.
size_t FullCsvPayloadBytes(const RepairResult& result) {
  Response full;
  full.verb = Verb::kRepair;
  full.repair.quarantine = result.quarantine;
  return EncodeResponse(full).size() + result.splice.output_size;
}

size_t SplicePayloadBytes(const RepairResult& result) {
  Response response;
  response.verb = Verb::kRepair;
  response.repair = result;
  return EncodeResponse(response).size();
}

TEST_F(ServeDaemonTest, SplicedResponsesMatchDirectRepairOnDialectInputs) {
  StartDaemon({}, {0, 1, 2});
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  using Config = std::vector<std::pair<std::string, std::string>>;
  const std::vector<Config> engines = {
      {{"threads", "1"}},
      {{"threads", "4"}},
      {{"shards", "3"}},
      {{"engine", "crepair"}},
      {{"threads", "4"}, {"max-chase-steps", "1"}},  // tuples fail too
  };
  Rng rng(0x5711CE);
  size_t repaired = 0;
  size_t refused = 0;
  for (size_t index : {0, 1, 2}) {
    const Workload& w = AllWorkloads()[index];
    const size_t header_end = w.csv.find('\n') + 1;
    std::vector<std::string> inputs = {w.csv};
    const size_t respelled = index == 0 ? 12 : 3;
    for (size_t i = 0; i < respelled; ++i) {
      inputs.push_back(RespelledBatch(w, &rng));
    }
    for (size_t i = 0; i < respelled; ++i) {
      inputs.push_back(w.csv.substr(0, header_end) +
                       testing::MutateCsvBytes(w.csv.substr(header_end),
                                               &rng));
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
      Workload batch = w;
      batch.csv = inputs[i];
      for (const char* policy : {"abort", "skip", "quarantine"}) {
        for (Config config : engines) {
          config.emplace_back("on-error", policy);
          std::string trace = w.name + " input " + std::to_string(i);
          RepairConfig direct_config;
          for (const auto& [key, value] : config) {
            trace += " " + key + "=" + value;
            ASSERT_TRUE(ParseRepairConfig(key, value, &direct_config).ok());
          }
          SCOPED_TRACE(trace);
          const DirectRun direct = DirectRepair(batch, direct_config);
          StatusOr<RepairResult> result =
              client->Submit(w.name, config, batch.csv);
          ASSERT_EQ(result.ok(), direct.status.ok())
              << result.status() << " / " << direct.status;
          if (!result.ok()) {
            EXPECT_EQ(result.status().code(), direct.status.code());
            ++refused;
            continue;
          }
          ++repaired;
          EXPECT_EQ(SplicedCsv(batch.csv, result->splice), direct.csv);
          EXPECT_EQ(result->quarantine, direct.quarantine);
          EXPECT_EQ(result->tuples_quarantined, direct.tuples_quarantined);
          EXPECT_EQ(result->records_dropped, direct.records_dropped);
          EXPECT_LE(SplicePayloadBytes(*result),
                    FullCsvPayloadBytes(*result) + kSpliceOverheadBytes);
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(repaired, refused);
  EXPECT_GT(refused, 0u);
}

TEST_F(ServeDaemonTest, SplicePayloadStaysWithinAFullCsvInTheWorstCases) {
  StartDaemon({}, {1});
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const Workload& hosp = AllWorkloads()[1];

  // Only the rows the repair changes: one edit spans every row.
  std::istringstream dirty(hosp.csv);
  std::istringstream fixed(hosp.expected);
  std::string dirty_line;
  std::string fixed_line;
  std::string changed;
  size_t rows = 0;
  while (std::getline(dirty, dirty_line) && std::getline(fixed, fixed_line)) {
    if (changed.empty()) {
      changed = dirty_line + "\n";  // the header
    } else if (dirty_line != fixed_line) {
      changed += dirty_line + "\n";
      ++rows;
    }
  }
  ASSERT_GT(rows, 10u);
  std::string crlf;
  for (const char ch : hosp.csv) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  for (const std::string& csv : {changed, crlf}) {
    Workload batch = hosp;
    batch.csv = csv;
    const DirectRun direct = DirectRepair(batch, {});
    ASSERT_TRUE(direct.status.ok()) << direct.status;
    StatusOr<RepairResult> result = client->Submit(hosp.name, {}, csv);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(SplicedCsv(csv, result->splice), direct.csv);
    ASSERT_EQ(result->splice.edits.size(), 1u);
    EXPECT_EQ(result->splice.edits[0].erase + result->splice.edits[0].begin,
              csv.size());
    EXPECT_LE(SplicePayloadBytes(*result),
              FullCsvPayloadBytes(*result) + kSpliceOverheadBytes);
  }
}

TEST_F(ServeDaemonTest, FullAdmissionQueueRejectsImmediately) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<size_t> stalled{0};
  DaemonOptions options;
  options.max_pending = 1;
  options.request_stall_for_test = [&] {
    ++stalled;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  StartDaemon(std::move(options), {0});
  const Workload& travel = AllWorkloads()[0];

  // One admitted request parks in the stall hook and fills the queue.
  std::thread holder([&] {
    StatusOr<Client> client = Connect();
    ASSERT_TRUE(client.ok()) << client.status();
    StatusOr<RepairResult> result = client->Submit(travel.name, {},
                                                   travel.csv);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(SplicedCsv(travel.csv, result->splice), travel.expected);
  });
  while (stalled.load() == 0) std::this_thread::yield();

  // Queue full: the next frame is answered kUnavailable from the loop
  // thread — immediately, not after the holder finishes.
  StatusOr<Client> probe = Connect();
  ASSERT_TRUE(probe.ok()) << probe.status();
  StatusOr<PingInfo> rejected = probe->Ping();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(daemon_->requests_rejected(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();

  // The queue drained; the same probe connection serves again.
  StatusOr<PingInfo> info = probe->Ping();
  ASSERT_TRUE(info.ok()) << info.status();
}

TEST_F(ServeDaemonTest, ReloadUnderLoadDropsNothing) {
  StartDaemon({}, {0, 1});
  const Workload& travel = AllWorkloads()[0];
  constexpr size_t kClients = 4;
  constexpr size_t kRequestsPerClient = 12;
  constexpr size_t kReloads = 10;
  std::atomic<size_t> failures{0};

  std::thread reloader([&] {
    StatusOr<Client> client = Connect();
    ASSERT_TRUE(client.ok()) << client.status();
    for (size_t i = 0; i < kReloads; ++i) {
      StatusOr<ReloadResult> result =
          client->Reload(travel.name, travel.spec);
      if (!result.ok()) ++failures;
    }
  });
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      StatusOr<Client> client = Connect();
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        StatusOr<RepairResult> result =
            client->Submit(travel.name, {}, travel.csv);
        // Identical rules reloaded: every response, whichever snapshot
        // served it, is byte-identical — and none may be dropped.
        if (!result.ok() ||
            SplicedCsv(travel.csv, result->splice) != travel.expected) {
          ++failures;
        }
      }
    });
  }
  reloader.join();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  const auto snapshot = registry_.Find(travel.name);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->generation(), 1u + kReloads);
}

TEST_F(ServeDaemonTest, ShutdownDrainsInFlightRequests) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<size_t> stalled{0};
  DaemonOptions options;
  options.request_stall_for_test = [&] {
    ++stalled;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  StartDaemon(std::move(options), {0});
  const Workload& travel = AllWorkloads()[0];

  constexpr size_t kInFlight = 3;
  std::atomic<size_t> completed{0};
  std::vector<std::thread> holders;
  for (size_t i = 0; i < kInFlight; ++i) {
    holders.emplace_back([&] {
      StatusOr<Client> client = Connect();
      ASSERT_TRUE(client.ok()) << client.status();
      StatusOr<RepairResult> result =
          client->Submit(travel.name, {}, travel.csv);
      if (result.ok() &&
          SplicedCsv(travel.csv, result->splice) == travel.expected) {
        ++completed;
      }
    });
  }
  // The stall hook can only park as many requests as the pool has
  // workers; on a small machine the rest wait in the pool queue. Wait
  // until every request has been admitted (in flight) and the workers
  // that can park have parked — only then is "Shutdown must drain all
  // three" actually on the table.
  const size_t parked =
      std::min(kInFlight, ThreadPool::Global().num_workers());
  while (stalled.load() < parked || daemon_->in_flight() < kInFlight) {
    std::this_thread::yield();
  }

  // Shutdown must wait for all three; release them shortly after it
  // starts draining.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  });
  daemon_->Shutdown();
  releaser.join();
  for (std::thread& t : holders) t.join();
  EXPECT_EQ(completed.load(), kInFlight);
  EXPECT_EQ(daemon_->requests_served(), kInFlight);
}

TEST_F(ServeDaemonTest, EphemeralTcpPortServes) {
  DaemonOptions options;
  options.tcp_port = 0;
  StartDaemon(std::move(options), {0});
  ASSERT_GT(daemon_->port(), 0);
  ClientOptions client_options;
  client_options.tcp_port = daemon_->port();
  StatusOr<Client> client = Client::Connect(client_options);
  ASSERT_TRUE(client.ok()) << client.status();
  const Workload& travel = AllWorkloads()[0];
  StatusOr<RepairResult> result = client->Submit(travel.name, {},
                                                 travel.csv);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(SplicedCsv(travel.csv, result->splice), travel.expected);
}

TEST_F(ServeDaemonTest, KnownValuesSkipTheWriterSide) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  StartDaemon({}, {1});
  StatusOr<Client> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const Workload& hosp = AllWorkloads()[1];
  const auto snapshot = registry_.Find(hosp.name);
  const MetricsRegistry& tenant = registry_.Scope(hosp.name)->registry();

  StatusOr<RepairResult> first = client->Submit(hosp.name, {}, hosp.csv);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(SplicedCsv(hosp.csv, first->splice), hosp.expected);
  const Counter* interned =
      tenant.FindCounter("fixrep.serve.values_interned");
  ASSERT_NE(interned, nullptr);
  const uint64_t new_values = interned->Value();
  EXPECT_GT(new_values, 0u);
  const size_t pool_size = snapshot->pool()->size();

  // Every value of the second request is already interned: the pool
  // does not grow and the writer side is never taken.
  StatusOr<RepairResult> second = client->Submit(hosp.name, {}, hosp.csv);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(SplicedCsv(hosp.csv, second->splice), hosp.expected);
  EXPECT_EQ(snapshot->pool()->size(), pool_size);
  EXPECT_EQ(interned->Value(), new_values);

  // One wait per lock acquisition: decode, chase and encode take the
  // reader side, and only the first request also took the writer side.
  const Histogram* waits =
      tenant.FindHistogram("fixrep.span.serve.pool_wait_ns");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->Count(), 4u + 3u);
}

// Rewrites every third row of `w`'s batch to carry values no pool has
// seen: half of those rows get values every client shares in `round`,
// the other half values private to `client`.
std::string FreshValuesBatch(const Workload& w, size_t client, size_t round) {
  auto pool = std::make_shared<ValuePool>();
  std::istringstream in(w.csv);
  Table table = ReadCsv(in, "data", pool);
  const AttrId last = static_cast<AttrId>(table.num_columns() - 1);
  for (size_t r = 0; r < table.num_rows(); r += 3) {
    const std::string value =
        r % 2 == 0 ? "shared-" + std::to_string(round) + "-" + std::to_string(r)
                   : "c" + std::to_string(client) + "-" +
                         std::to_string(round) + "-" + std::to_string(r);
    table.WriteCell(r, last, pool->Intern(value));
    table.WriteCell(r, 0, pool->Intern(value + "-first"));
  }
  return ToCsv(table);
}

TEST_F(ServeDaemonTest, ConcurrentFreshValuesInternOnceAndMatchDirect) {
  StartDaemon({}, {1});
  const Workload& hosp = AllWorkloads()[1];
  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 3;
  // Inputs and their direct repairs, built before any client starts.
  std::vector<std::vector<Workload>> batches(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t r = 0; r < kRounds; ++r) {
      Workload w = hosp;
      w.csv = FreshValuesBatch(hosp, c, r);
      w.expected = DirectRepair(w, {}).csv;
      ASSERT_FALSE(w.expected.empty());
      batches[c].push_back(std::move(w));
    }
  }

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      StatusOr<Client> client = Connect();
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (const Workload& w : batches[c]) {
        StatusOr<RepairResult> result = client->Submit(w.name, {}, w.csv);
        if (!result.ok() || SplicedCsv(w.csv, result->splice) != w.expected) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);

  // Every distinct string is in the pool exactly once, fresh ones included.
  const auto snapshot = registry_.Find(hosp.name);
  const std::vector<std::string> strings = PoolStrings(*snapshot->pool());
  const std::set<std::string> distinct(strings.begin(), strings.end());
  EXPECT_EQ(distinct.size(), strings.size());
  EXPECT_EQ(distinct.count("shared-0-0"), 1u);
  EXPECT_EQ(distinct.count("c7-2-3"), 1u);
  EXPECT_EQ(distinct.count("c7-2-3-first"), 1u);
}

// GET /metrics over a unix socket, body only.
std::string Scrape(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  EXPECT_EQ(send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

// The value of the first exposition line `name value`, or -1.
double ScrapedValue(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::stod(text.substr(at + key.size()));
}

TEST(ServeMetricsTest, TenantMetricsAreScrapeableWhileServing) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  const Workload& travel = AllWorkloads()[0];
  MetricsServerOptions metrics_options;
  metrics_options.unix_socket_path = TempPath("m.sock");
  StatusOr<std::unique_ptr<MetricsServer>> metrics =
      MetricsServer::Start(metrics_options);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  const Counter* global_parsed =
      MetricsRegistry::Global().GetCounter("fixrep.csv.bytes_parsed");
  const uint64_t parsed_before = global_parsed->Value();
  const double decodes_before = static_cast<double>(
      MetricsRegistry::Global()
          .GetHistogram("fixrep.span.serve.decode_ns", "ns")
          ->Count());
  {
    auto registry = std::make_unique<TenantRegistry>();
    ASSERT_TRUE(registry->Load(travel.name, travel.spec).ok());
    DaemonOptions options;
    options.unix_socket_path = TempPath("d.sock");
    StatusOr<std::unique_ptr<RepairDaemon>> daemon =
        RepairDaemon::Start(registry.get(), options);
    ASSERT_TRUE(daemon.ok()) << daemon.status();
    ClientOptions client_options;
    client_options.unix_socket_path = options.unix_socket_path;
    StatusOr<Client> client = Client::Connect(client_options);
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->Submit(travel.name, {}, travel.csv).ok());

    // Served, not yet flushed: the tenant's values are in the scrape.
    const std::string live = Scrape(metrics_options.unix_socket_path);
    EXPECT_EQ(ScrapedValue(live, "fixrep_csv_bytes_parsed"),
              static_cast<double>(parsed_before + travel.csv.size()));
    EXPECT_EQ(ScrapedValue(live, "fixrep_span_serve_decode_ns_count"),
              decodes_before + 1);
    EXPECT_EQ(global_parsed->Value(), parsed_before);  // nothing flushed
    (*daemon)->Shutdown();
  }  // the registry flushes its tenant scopes into the global registry

  const std::string after = Scrape(metrics_options.unix_socket_path);
  EXPECT_EQ(ScrapedValue(after, "fixrep_csv_bytes_parsed"),
            static_cast<double>(parsed_before + travel.csv.size()));
  EXPECT_EQ(ScrapedValue(after, "fixrep_span_serve_decode_ns_count"),
            decodes_before + 1);
  (*metrics)->Stop();
}

// --- the real CLI child: SIGTERM drain + --port-file discovery ---

TEST(ServeCliTest, ServeChildPublishesPortAndDrainsOnSigterm) {
#ifndef FIXREP_CLI_PATH
  GTEST_SKIP() << "built without FIXREP_CLI_PATH";
#else
  const std::string cli = FIXREP_CLI_PATH;
  if (!std::ifstream(cli).good()) {
    GTEST_SKIP() << "fixrep_cli not built at " << cli;
  }
  const Workload& travel = AllWorkloads()[0];
  const std::string port_file = TempPath("cli_port.txt");
  std::remove(port_file.c_str());
  const std::string ruleset = "travel=" + travel.spec;

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    execl(cli.c_str(), cli.c_str(), "serve", "--port", "0", "--port-file",
          port_file.c_str(), "--ruleset", ruleset.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }

  // The port file appears only after the daemon is bound and serving.
  int port = 0;
  for (int i = 0; i < 200 && port == 0; ++i) {
    std::ifstream in(port_file);
    if (!(in >> port)) {
      port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  ASSERT_GT(port, 0) << "daemon never published its port";

  ClientOptions options;
  options.tcp_port = port;
  StatusOr<Client> client = Client::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status();
  StatusOr<RepairResult> result = client->Submit("travel", {}, travel.csv);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(SplicedCsv(travel.csv, result->splice), travel.expected);

  ASSERT_EQ(kill(child, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  std::remove(port_file.c_str());
#endif
}

}  // namespace
}  // namespace fixrep::serve
