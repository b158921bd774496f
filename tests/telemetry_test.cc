// Live run telemetry (common/telemetry.h, common/metrics_server.h): the
// JSONL event journal, the heartbeat sampler thread (run under TSan via
// the observability label), Prometheus text exposition, and the scrape
// endpoint. The golden-journal test replays a small travel streaming
// run and checks the stable fields only — event types, field presence,
// and monotonicity — never timings.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/metrics_server.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "datagen/travel.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "repair/lrepair.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "testing_util.h"

namespace fixrep {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool HasField(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\":") != std::string::npos;
}

// Parses the integer value of `key`, EXPECTing it to be present.
uint64_t FieldUint(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

bool IsEvent(const std::string& line, const std::string& type) {
  return line.find("{\"event\":\"" + type + "\"") == 0;
}

// ---------------------------------------------------------------------
// TelemetryEvent / TelemetryJournal.

TEST(TelemetryEventTest, RendersFieldsInInsertionOrder) {
  TelemetryEvent event("unit");
  event.Set("n", uint64_t{7})
      .Set("signed", int64_t{-3})
      .Set("rate", 1.5)
      .SetString("path", "a\"b");
  const std::string line = event.ToJsonLine(12);
  EXPECT_EQ(line,
            "{\"event\":\"unit\",\"t_ms\":12,\"n\":7,\"signed\":-3,"
            "\"rate\":1.500,\"path\":\"a\\\"b\"}");
  EXPECT_TRUE(testing::JsonChecker::IsValid(line));
}

TEST(TelemetryJournalTest, OpensWithVersionedHeaderAndAppends) {
  std::ostringstream sink;
  {
    TelemetryJournal journal(&sink);
    journal.Append(TelemetryEvent("ping").Set("n", uint64_t{1}));
    journal.Append(TelemetryEvent("ping").Set("n", uint64_t{2}));
  }
  const std::vector<std::string> lines = Lines(sink.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(IsEvent(lines[0], "journal_open"));
  EXPECT_EQ(FieldUint(lines[0], "version"), 1u);
  EXPECT_TRUE(IsEvent(lines[1], "ping"));
  EXPECT_EQ(FieldUint(lines[2], "n"), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(testing::JsonChecker::IsValid(line)) << line;
  }
  // t_ms never runs backwards.
  EXPECT_LE(FieldUint(lines[1], "t_ms"), FieldUint(lines[2], "t_ms"));
}

TEST(TelemetryJournalTest, OpenRejectsUnwritablePath) {
  const auto journal = TelemetryJournal::Open("/nonexistent-dir/t.jsonl");
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kIoError);
}

TEST(TelemetryJournalTest, GlobalSlotInstallsAndClears) {
  EXPECT_EQ(GetGlobalJournal(), nullptr);
  std::ostringstream sink;
  {
    TelemetryJournal journal(&sink);
    SetGlobalJournal(&journal);
    EXPECT_EQ(GetGlobalJournal(), &journal);
    SetGlobalJournal(nullptr);  // must clear before destruction
  }
  EXPECT_EQ(GetGlobalJournal(), nullptr);
}

TEST(TelemetryTest, PeakRssIsNonzeroOnLinux) {
  EXPECT_GT(TelemetryPeakRssBytes(), 0u);
}

// ---------------------------------------------------------------------
// HeartbeatSampler. The observability CTest label runs this suite under
// TSan, which is the real assertion on the sampler thread.

TEST(HeartbeatSamplerTest, StopEmitsFinalSampleWithRegistryState) {
  MetricsRegistry registry;
  registry.GetCounter("fixrep.progress.rows")->Add(42);
  registry.GetGauge("fixrep.progress.chunk")->Set(3);

  std::ostringstream sink;
  TelemetryJournal journal(&sink);
  HeartbeatOptions options;
  options.interval_ms = 60 * 1000;  // never fires on its own in-test
  options.registry = &registry;
  options.journal = &journal;
  HeartbeatSampler sampler(options);
  sampler.Start();
  EXPECT_EQ(sampler.running(), kMetricsEnabled);
  sampler.Stop();
  EXPECT_FALSE(sampler.running());

  if (!kMetricsEnabled) return;  // nothing sampled when compiled out
  const std::vector<std::string> lines = Lines(sink.str());
  ASSERT_GE(lines.size(), 2u);  // journal_open + the final heartbeat
  const std::string& beat = lines.back();
  ASSERT_TRUE(IsEvent(beat, "heartbeat")) << beat;
  EXPECT_TRUE(testing::JsonChecker::IsValid(beat));
  EXPECT_EQ(FieldUint(beat, "final"), 1u);
  EXPECT_EQ(FieldUint(beat, "rows"), 42u);
  EXPECT_EQ(FieldUint(beat, "chunk"), 3u);
  EXPECT_GT(FieldUint(beat, "rss_peak_bytes"), 0u);
  // The counter moved since the (virtual) previous sample, so its delta
  // is journaled under the d. namespace.
  EXPECT_EQ(FieldUint(beat, "d.fixrep.progress.rows"), 42u);
}

TEST(HeartbeatSamplerTest, ProgressLineRendersChunkAndRows) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry registry;
  registry.GetCounter("fixrep.progress.rows")->Add(1234);
  registry.GetGauge("fixrep.progress.chunk")->Set(2);

  std::ostringstream progress;
  HeartbeatOptions options;
  options.interval_ms = 60 * 1000;
  options.registry = &registry;
  options.progress = true;
  options.progress_out = &progress;
  HeartbeatSampler sampler(options);
  sampler.Start();
  sampler.Stop();

  const std::string line = progress.str();
  EXPECT_NE(line.find("[fixrep]"), std::string::npos) << line;
  EXPECT_NE(line.find("chunk 2"), std::string::npos) << line;
  EXPECT_NE(line.find("rows 1234"), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n');  // the final sample closes the line
}

TEST(HeartbeatSamplerTest, PeriodicSamplingRunsConcurrentlyWithUpdates) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  // Tight interval + live counter traffic: the interesting part is the
  // TSan pass over sampler-vs-mutator accesses.
  MetricsRegistry registry;
  Counter* rows = registry.GetCounter("fixrep.progress.rows");
  std::ostringstream sink;
  TelemetryJournal journal(&sink);
  HeartbeatOptions options;
  options.interval_ms = 1;
  options.registry = &registry;
  options.journal = &journal;
  HeartbeatSampler sampler(options);
  sampler.Start();
  for (int i = 0; i < 50000; ++i) rows->Add(1);
  sampler.Stop();

  const std::vector<std::string> lines = Lines(sink.str());
  ASSERT_GE(lines.size(), 2u);
  uint64_t last_rows = 0;
  uint64_t heartbeats = 0;
  for (const std::string& line : lines) {
    if (!IsEvent(line, "heartbeat")) continue;
    ++heartbeats;
    const uint64_t sampled = FieldUint(line, "rows");
    EXPECT_GE(sampled, last_rows) << "rows ran backwards: " << line;
    last_rows = sampled;
  }
  EXPECT_GE(heartbeats, 1u);
  EXPECT_EQ(last_rows, 50000u);  // the final sample sees every row
}

// ---------------------------------------------------------------------
// Golden journal: a travel streaming run journals chunk events whose
// stable fields replay into the per-chunk rows curve.

TEST(TelemetryJournalTest, GoldenTravelStreamRun) {
  TravelExample example;
  std::ostringstream dirty_csv;
  WriteCsv(example.dirty, dirty_csv);

  std::ostringstream sink;
  std::ostringstream repaired;
  StatusOr<RepairReport> report = Status::Internal("not run");
  {
    TelemetryJournal journal(&sink);
    SetGlobalJournal(&journal);
    std::istringstream in(dirty_csv.str());
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "travel", example.pool);
    ASSERT_TRUE(reader.ok());
    RepairConfig config;
    config.chunk_rows = 2;
    RepairSession session(&example.rules, config);
    StreamInput input(&reader.value(), config.chunk_rows);
    report = session.RepairStream(&input, repaired);
    SetGlobalJournal(nullptr);
  }
  ASSERT_TRUE(report.ok()) << report.status().message();

  // Telemetry must not perturb the repair itself.
  Table want = example.dirty;
  FastRepairer repairer(&example.rules);
  repairer.RepairTable(&want);
  std::ostringstream want_csv;
  WriteCsv(want, want_csv);
  EXPECT_EQ(repaired.str(), want_csv.str());

  const std::vector<std::string> lines = Lines(sink.str());
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(IsEvent(lines[0], "journal_open"));

  size_t chunk_events = 0;
  size_t span_opens = 0;
  size_t span_closes = 0;
  uint64_t last_rows_total = 0;
  uint64_t max_cell_bytes = 0;
  uint64_t last_t_ms = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(testing::JsonChecker::IsValid(line)) << line;
    const uint64_t t_ms = FieldUint(line, "t_ms");
    EXPECT_GE(t_ms, last_t_ms) << "t_ms ran backwards: " << line;
    last_t_ms = t_ms;
    if (IsEvent(line, "span_open")) ++span_opens;
    if (IsEvent(line, "span_close")) {
      ++span_closes;
      EXPECT_TRUE(HasField(line, "duration_ns")) << line;
    }
    if (!IsEvent(line, "chunk")) continue;
    ++chunk_events;
    // Stable fields only: presence and monotonicity, never timings.
    for (const char* key :
         {"index", "rows", "rows_total", "cells_changed_total",
          "duration_ns", "read_ns", "read_wait_ns", "emit_ns",
          "bytes_copied", "rows_rendered", "cell_bytes"}) {
      EXPECT_TRUE(HasField(line, key)) << key << " missing in: " << line;
    }
    EXPECT_EQ(FieldUint(line, "index"), chunk_events);
    const uint64_t rows_total = FieldUint(line, "rows_total");
    EXPECT_GT(rows_total, last_rows_total);  // every chunk emits rows here
    last_rows_total = rows_total;
    max_cell_bytes = std::max(max_cell_bytes, FieldUint(line, "cell_bytes"));
  }
  EXPECT_EQ(chunk_events, report->chunks);
  EXPECT_EQ(max_cell_bytes, report->peak_chunk_bytes);
  EXPECT_EQ(last_rows_total, report->rows);
  // Spans balance: whatever opened inside the journaled window closed.
  EXPECT_EQ(span_opens, span_closes);
  EXPECT_GT(span_opens, 0u);  // the streaming run opens at least one span
}

// ---------------------------------------------------------------------
// Prometheus exposition.

TEST(ExportPrometheusTest, RendersEveryKindAndSkipsRejectedNames) {
  MetricsRegistry registry;
  registry.GetCounter("fixrep.test.requests")->Add(3);
  registry.GetGauge("fixrep.test.depth")->Set(-2);
  Histogram* latency = registry.GetHistogram("fixrep.test.latency_ns", "ns");
  latency->Observe(100);
  latency->Observe(200);
  registry.GetCounterVector("fixrep.test.per_rule")->AddAll({5, 0, 7});
  registry.GetCounter("bad name")->Add(9);  // hidden from exposition

  std::ostringstream out;
  ExportPrometheus(out, registry);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE fixrep_test_requests counter\n"
                      "fixrep_test_requests 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE fixrep_test_depth gauge\n"
                      "fixrep_test_depth -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("fixrep_test_per_rule{index=\"0\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("fixrep_test_per_rule{index=\"2\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# UNIT fixrep_test_latency_ns ns"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fixrep_test_latency_ns histogram"),
            std::string::npos);
  // 100 lands in [64,128), 200 in [128,256): cumulative le buckets.
  EXPECT_NE(text.find("fixrep_test_latency_ns_bucket{le=\"128\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fixrep_test_latency_ns_bucket{le=\"256\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fixrep_test_latency_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fixrep_test_latency_ns_sum 300"), std::string::npos);
  EXPECT_NE(text.find("fixrep_test_latency_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("fixrep_test_latency_ns_p50 "), std::string::npos);
  EXPECT_NE(text.find("fixrep_test_latency_ns_p99 "), std::string::npos);
  // The rejected name is absent but tallied.
  EXPECT_EQ(text.find("bad"), std::string::npos);
  EXPECT_NE(text.find("# fixrep: 1 metric(s) hidden"), std::string::npos);
}

// ---------------------------------------------------------------------
// Scrape endpoint.

std::string ReadAll(int fd) {
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

std::string TcpRequest(int port, const std::string& request) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)),
            0)
      << std::strerror(errno);
  EXPECT_EQ(send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = ReadAll(fd);
  close(fd);
  return response;
}

std::string UnixRequest(const std::string& path, const std::string& request) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)),
            0)
      << path << ": " << std::strerror(errno);
  EXPECT_EQ(send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = ReadAll(fd);
  close(fd);
  return response;
}

TEST(MetricsServerTest, RequiresExactlyOneListener) {
  MetricsServerOptions neither;
  EXPECT_EQ(MetricsServer::Start(neither).status().code(),
            StatusCode::kMalformedInput);
  MetricsServerOptions both;
  both.unix_socket_path = testing::TestTempPath("both.sock");
  both.tcp_port = 0;
  EXPECT_EQ(MetricsServer::Start(both).status().code(),
            StatusCode::kMalformedInput);
}

TEST(MetricsServerTest, ServesMetricsOverEphemeralTcpPort) {
  MetricsRegistry registry;
  registry.GetCounter("fixrep.test.scrapes")->Add(11);

  MetricsServerOptions options;
  options.tcp_port = 0;  // ephemeral
  options.registry = &registry;
  StatusOr<std::unique_ptr<MetricsServer>> server =
      MetricsServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_GT((*server)->port(), 0);

  const std::string response =
      TcpRequest((*server)->port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("fixrep_test_scrapes 11"), std::string::npos);

  // Scrapes observe live updates, one connection after another.
  registry.GetCounter("fixrep.test.scrapes")->Add(1);
  const std::string second =
      TcpRequest((*server)->port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(second.find("fixrep_test_scrapes 12"), std::string::npos);

  const std::string not_found =
      TcpRequest((*server)->port(), "GET /other HTTP/1.0\r\n\r\n");
  EXPECT_NE(not_found.find("404 Not Found"), std::string::npos);

  (*server)->Stop();
}

TEST(MetricsServerTest, ServesMetricsOverUnixSocket) {
  MetricsRegistry registry;
  registry.GetCounter("fixrep.test.scrapes")->Add(7);

  const std::string path = testing::TestTempPath("m.sock");
  MetricsServerOptions options;
  options.unix_socket_path = path;
  options.registry = &registry;
  StatusOr<std::unique_ptr<MetricsServer>> server =
      MetricsServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().message();

  const std::string response =
      UnixRequest(path, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("fixrep_test_scrapes 7"), std::string::npos);

  server->reset();  // destructor stops the thread and unlinks the socket
  EXPECT_NE(access(path.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace fixrep
