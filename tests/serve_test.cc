// The multi-tenant repair daemon (src/serve/, docs/serving.md): wire
// protocol round trips and corruption handling, tenant registry load /
// hot-reload semantics, and a live daemon exercised by concurrent
// clients — byte-identity against direct RepairSession runs on the
// travel/hosp/uis workloads, admission rejection under a full queue,
// reload under load with zero dropped requests, and graceful drain
// (including a real fixrep_cli child on SIGTERM).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "repair/config.h"
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
  StatusOr<Table> table = ReadCsvLenient(in, "data", pool, csv_options);
  if (!table.ok()) {
    run.status = table.status();
    return run;
  }
  RepairSession session(&rules.value(), config);
  StatusOr<RepairReport> report = session.Repair(&table.value());
  if (!report.ok()) {
    run.status = report.status();
    return run;
  }
  run.csv = ToCsv(table.value());
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
    std::string frame;
    AppendFrame(&frame, EncodeRequest(request));
    std::string payload;
    uint32_t crc = 0;
    ASSERT_EQ(ExtractFrame(&frame, &payload, &crc), FrameParse::kFrame);
    EXPECT_TRUE(frame.empty());  // fully consumed
    ASSERT_TRUE(VerifyFrame(payload, crc).ok());
    StatusOr<Request> decoded = DecodeRequest(payload);
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
  ok.repair.csv = "a,b\n1,2\n";
  ok.repair.quarantine = "source,line\n";
  std::string payload = EncodeResponse(ok);
  StatusOr<Response> decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->repair.rows, 7u);
  EXPECT_EQ(decoded->repair.cells_changed, 3u);
  EXPECT_EQ(decoded->repair.tuples_quarantined, 1u);
  EXPECT_EQ(decoded->repair.csv, ok.repair.csv);
  EXPECT_EQ(decoded->repair.quarantine, ok.repair.quarantine);

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
  std::string payload;
  uint32_t crc = 0;
  ASSERT_EQ(ExtractFrame(&frame, &payload, &crc), FrameParse::kFrame);
  const Status status = VerifyFrame(payload, crc);
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
  // the remainder (frame B) survives in the buffer untouched.
  std::string buffer;
  std::string payload;
  uint32_t crc = 0;
  size_t frames = 0;
  for (const char byte : wire) {
    buffer.push_back(byte);
    while (true) {
      const FrameParse parse = ExtractFrame(&buffer, &payload, &crc);
      if (parse != FrameParse::kFrame) {
        ASSERT_EQ(parse, FrameParse::kNeedMore);
        break;
      }
      ASSERT_TRUE(VerifyFrame(payload, crc).ok());
      StatusOr<Request> decoded = DecodeRequest(payload);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->verb, frames == 0 ? Verb::kRepair : Verb::kList);
      ++frames;
    }
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_TRUE(buffer.empty());
}

TEST(ServeProtocolTest, GarbageStreamsAreRejectedNotBuffered) {
  std::string buffer = "GET /metrics HTTP/1.1\r\n";
  std::string payload;
  uint32_t crc = 0;
  EXPECT_EQ(ExtractFrame(&buffer, &payload, &crc), FrameParse::kBadMagic);

  // A correct magic with an absurd length prefix must not allocate.
  buffer.assign("FXRP", 4);
  const uint32_t huge = kMaxFramePayload + 1;
  buffer.append(reinterpret_cast<const char*>(&huge), 4);
  EXPECT_EQ(ExtractFrame(&buffer, &payload, &crc), FrameParse::kTooLarge);
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
    EXPECT_EQ(result->csv, w.expected) << w.name;
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
  // parsing the whole request and emitting the whole response.
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
  EXPECT_EQ(emitted->Value(), result->csv.size());
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
    EXPECT_EQ(result->csv, direct.csv);
    EXPECT_EQ(result->csv, travel.expected);  // engines agree byte-for-byte
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
        if (!result.ok() || result->csv != w.expected) ++failures;
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

  for (const char* key : {"wal", "rules-dict", "chunk-rows"}) {
    StatusOr<RepairResult> local = client->Submit(
        travel.name, {{key, "whatever"}}, travel.csv);
    ASSERT_FALSE(local.ok()) << key;
    EXPECT_EQ(local.status().code(), StatusCode::kMalformedInput) << key;
  }

  StatusOr<RepairResult> bad_key =
      client->Submit(travel.name, {{"frobnicate", "1"}}, travel.csv);
  ASSERT_FALSE(bad_key.ok());
  EXPECT_EQ(bad_key.status().code(), StatusCode::kMalformedInput);

  // The connection survives rejected requests.
  StatusOr<RepairResult> again = client->Submit(travel.name, {}, travel.csv);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->csv, travel.expected);
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
  EXPECT_EQ(quarantined->csv, direct.csv);
  EXPECT_EQ(quarantined->quarantine, direct.quarantine);
  EXPECT_FALSE(quarantined->quarantine.empty());
  EXPECT_EQ(quarantined->tuples_quarantined, direct.tuples_quarantined);
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
    EXPECT_EQ(result->csv, travel.expected);
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
        if (!result.ok() || result->csv != travel.expected) ++failures;
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
      if (result.ok() && result->csv == travel.expected) ++completed;
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
  EXPECT_EQ(result->csv, travel.expected);
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
  EXPECT_EQ(result->csv, travel.expected);

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
