#include "common/telemetry.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "common/log.h"
#include "common/trace.h"

namespace fixrep {

namespace {

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

std::atomic<TelemetryJournal*> g_journal{nullptr};

}  // namespace

TelemetryEvent& TelemetryEvent::Set(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

TelemetryEvent& TelemetryEvent::Set(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

TelemetryEvent& TelemetryEvent::Set(const std::string& key, double value) {
  fields_.emplace_back(key, FormatDouble(value));
  return *this;
}

TelemetryEvent& TelemetryEvent::SetString(const std::string& key,
                                          const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
  return *this;
}

std::string TelemetryEvent::ToJsonLine(uint64_t t_ms) const {
  std::string line = "{\"event\":\"" + JsonEscape(type_) +
                     "\",\"t_ms\":" + std::to_string(t_ms);
  for (const auto& [key, json] : fields_) {
    line += ",\"";
    line += JsonEscape(key);
    line += "\":";
    line += json;
  }
  line += "}";
  return line;
}

StatusOr<std::unique_ptr<TelemetryJournal>> TelemetryJournal::Open(
    const std::string& path) {
  auto journal = std::unique_ptr<TelemetryJournal>(new TelemetryJournal);
  journal->file_.open(path, std::ios::out | std::ios::trunc);
  if (!journal->file_.is_open()) {
    return Status::IoError("cannot open telemetry journal: " + path);
  }
  journal->out_ = &journal->file_;
  journal->WriteOpenEvent();
  return journal;
}

TelemetryJournal::TelemetryJournal(std::ostream* out) : out_(out) {
  FIXREP_CHECK(out_ != nullptr);
  WriteOpenEvent();
}

// Private: Open() fills in the file sink before any write.
TelemetryJournal::TelemetryJournal() : out_(nullptr) {}

TelemetryJournal::~TelemetryJournal() {
  FIXREP_CHECK(GetGlobalJournal() != this)
      << "journal destroyed while still installed as the global journal";
}

void TelemetryJournal::WriteOpenEvent() {
  open_ns_ = TraceNowNanos();
  Append(TelemetryEvent("journal_open").Set("version", uint64_t{1}));
}

void TelemetryJournal::Append(const TelemetryEvent& event) {
  const std::string line = event.ToJsonLine(ElapsedMs());
  const std::lock_guard<std::mutex> lock(mu_);
  *out_ << line << '\n';
  out_->flush();
}

uint64_t TelemetryJournal::ElapsedMs() const {
  return (TraceNowNanos() - open_ns_) / 1000000;
}

void SetGlobalJournal(TelemetryJournal* journal) {
  g_journal.store(journal, std::memory_order_release);
}

TelemetryJournal* GetGlobalJournal() {
  return g_journal.load(std::memory_order_acquire);
}

uint64_t TelemetryPeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux.
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

void PublishProcessGauges(MetricsRegistry* registry) {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return;
  registry->GetGauge("fixrep.process.minor_faults")
      ->Set(static_cast<int64_t>(usage.ru_minflt));
  registry->GetGauge("fixrep.process.rss_peak_bytes")
      ->Set(static_cast<int64_t>(usage.ru_maxrss) * 1024);
}

HeartbeatSampler::HeartbeatSampler(HeartbeatOptions options)
    : options_(options) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricsRegistry::Global();
  }
  if (options_.interval_ms == 0) options_.interval_ms = 1;
}

HeartbeatSampler::~HeartbeatSampler() { Stop(); }

void HeartbeatSampler::Start() {
  if (!kMetricsEnabled) return;  // nothing to sample
  FIXREP_CHECK(!thread_.joinable()) << "sampler already started";
  stop_requested_ = false;
  last_sample_ns_ = TraceNowNanos();
  thread_ = std::thread([this]() { Run(); });
}

void HeartbeatSampler::Stop() {
  if (!thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  Sample(/*final_sample=*/true);
}

void HeartbeatSampler::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.interval_ms);
    cv_.wait_until(lock, deadline, [this]() { return stop_requested_; });
    if (stop_requested_) break;  // the final sample comes from Stop()
    lock.unlock();
    Sample(/*final_sample=*/false);
    lock.lock();
  }
}

void HeartbeatSampler::Sample(bool final_sample) {
  MetricsRegistry& registry = *options_.registry;
  const uint64_t now_ns = TraceNowNanos();
  const double interval_s =
      static_cast<double>(now_ns - last_sample_ns_) / 1e9;
  last_sample_ns_ = now_ns;

  const auto counters = registry.SnapshotCounters();
  uint64_t rows = 0;
  for (const auto& [name, value] : counters) {
    if (name == "fixrep.progress.rows") rows = value;
  }
  const uint64_t row_delta = rows - last_rows_;
  const double rows_per_s =
      interval_s > 0 ? static_cast<double>(row_delta) / interval_s : 0.0;
  last_rows_ = rows;

  const auto gauge = [&registry](const char* name) -> int64_t {
    const Gauge* g = registry.FindGauge(name);
    return g == nullptr ? 0 : g->Value();
  };
  const int64_t chunk = gauge("fixrep.progress.chunk");
  const int64_t input_read = gauge("fixrep.progress.input_bytes_read");
  const int64_t input_total = gauge("fixrep.progress.input_bytes_total");

  if (options_.journal != nullptr) {
    TelemetryEvent event("heartbeat");
    event.Set("seq", sample_index_)
        .Set("final", static_cast<uint64_t>(final_sample ? 1 : 0))
        .Set("rows", rows)
        .Set("rows_per_s", rows_per_s)
        .Set("rss_peak_bytes", TelemetryPeakRssBytes());
    if (chunk > 0) event.Set("chunk", chunk);
    if (input_read > 0) event.Set("input_bytes_read", input_read);
    if (input_total > 0) event.Set("input_bytes_total", input_total);
    // Registry delta: counters that moved since the previous heartbeat,
    // namespaced so replay tools can ignore or aggregate them.
    for (const auto& [name, value] : counters) {
      const uint64_t prev = last_counters_.count(name) != 0
                                ? last_counters_[name]
                                : uint64_t{0};
      if (value != prev) {
        event.Set("d." + name, value - prev);
      }
    }
    options_.journal->Append(event);
  }
  last_counters_.clear();
  for (const auto& [name, value] : counters) last_counters_[name] = value;

  if (options_.progress) {
    std::ostream& out =
        options_.progress_out != nullptr ? *options_.progress_out : std::cerr;
    char chunk_part[64] = "";
    if (chunk > 0) {
      if (input_total > 0 && input_read > 0) {
        std::snprintf(chunk_part, sizeof(chunk_part), "chunk %lld (%.0f%%)",
                      static_cast<long long>(chunk),
                      100.0 * static_cast<double>(input_read) /
                          static_cast<double>(input_total));
      } else {
        std::snprintf(chunk_part, sizeof(chunk_part), "chunk %lld",
                      static_cast<long long>(chunk));
      }
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "\r[fixrep] %s | rows %llu (%.1fk rows/s)",
                  chunk_part[0] != '\0' ? chunk_part : "starting",
                  static_cast<unsigned long long>(rows), rows_per_s / 1000.0);
    out << line;
    progress_line_open_ = true;
    if (final_sample) {
      out << "\n";
      progress_line_open_ = false;
    }
    out.flush();
  }
  ++sample_index_;
}

}  // namespace fixrep
