#ifndef FIXREP_COMMON_TELEMETRY_H_
#define FIXREP_COMMON_TELEMETRY_H_

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

// Live run telemetry: an append-only JSONL event journal plus a
// background heartbeat sampler. One JSON object per line, every line
// carrying {"event": <type>, "t_ms": <ms since journal open>}; the
// journal interleaves heartbeat samples with span_open/span_close and
// per-chunk events so a finished run replays offline into per-chunk
// rows/s and peak-RSS curves (see docs/observability.md for the
// schema and bench/check_regression.py --journal for the checker).

namespace fixrep {

// One journal line under construction. Fields render in insertion
// order; values are JSON-encoded at Set time.
class TelemetryEvent {
 public:
  explicit TelemetryEvent(std::string type) : type_(std::move(type)) {}

  TelemetryEvent& Set(const std::string& key, uint64_t value);
  TelemetryEvent& Set(const std::string& key, int64_t value);
  TelemetryEvent& Set(const std::string& key, double value);  // %.3f
  TelemetryEvent& SetString(const std::string& key, const std::string& value);

  // {"event":"<type>","t_ms":<t_ms>, <fields...>} — no trailing newline.
  std::string ToJsonLine(uint64_t t_ms) const;

  const std::string& type() const { return type_; }

 private:
  std::string type_;
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> json
};

// Thread-safe append-only JSONL sink. Lines are flushed as written so a
// crashed run still leaves a readable journal prefix.
class TelemetryJournal {
 public:
  // Creates/truncates `path` and writes the journal_open event.
  // kIoError when the file cannot be opened.
  static StatusOr<std::unique_ptr<TelemetryJournal>> Open(
      const std::string& path);

  // Test/bench constructor: write to a caller-owned stream (not closed).
  explicit TelemetryJournal(std::ostream* out);

  ~TelemetryJournal();

  TelemetryJournal(const TelemetryJournal&) = delete;
  TelemetryJournal& operator=(const TelemetryJournal&) = delete;

  void Append(const TelemetryEvent& event);

  // Milliseconds since the journal was opened (the t_ms clock).
  uint64_t ElapsedMs() const;

 private:
  TelemetryJournal();  // Open() attaches the file sink before any write
  void WriteOpenEvent();

  std::mutex mu_;
  std::ofstream file_;     // empty when writing to an external stream
  std::ostream* out_;      // the active sink
  uint64_t open_ns_ = 0;   // TraceNowNanos at open
};

// Process-global journal slot, how decoupled emitters (trace spans, the
// streaming driver) find the run's journal without plumbing. Null by
// default; the CLI installs its journal for the duration of a run.
// Callers must clear the slot (SetGlobalJournal(nullptr)) while no other
// thread can still be emitting, before destroying the journal.
void SetGlobalJournal(TelemetryJournal* journal);
TelemetryJournal* GetGlobalJournal();

struct HeartbeatOptions {
  // Sampling period. The sampler is off unless explicitly started.
  uint64_t interval_ms = 1000;
  // Registry to sample. Defaults to the global registry (live progress
  // counters are published there unless the run scopes its metrics).
  MetricsRegistry* registry = nullptr;
  // Journal to append heartbeat events to; may be null (progress-only).
  TelemetryJournal* journal = nullptr;
  // Emit the human one-line progress display to `progress_out`
  // (defaults to stderr).
  bool progress = false;
  std::ostream* progress_out = nullptr;
};

// Background thread that wakes every interval_ms, snapshots the
// registry, getrusage peak RSS, rows/s, and RowStore residency (the
// fixrep.progress.* gauges published live by the streaming driver), and
// appends a heartbeat event and/or prints the --progress line. Stop()
// emits one final sample so short runs still journal at least one.
class HeartbeatSampler {
 public:
  explicit HeartbeatSampler(HeartbeatOptions options);
  ~HeartbeatSampler();  // stops and joins

  HeartbeatSampler(const HeartbeatSampler&) = delete;
  HeartbeatSampler& operator=(const HeartbeatSampler&) = delete;

  void Start();
  void Stop();

  bool running() const { return thread_.joinable(); }

 private:
  void Run();
  void Sample(bool final_sample);

  HeartbeatOptions options_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;

  // Previous-sample state for deltas (sampler thread only).
  uint64_t sample_index_ = 0;
  uint64_t last_sample_ns_ = 0;
  uint64_t last_rows_ = 0;
  std::map<std::string, uint64_t> last_counters_;
  bool progress_line_open_ = false;
};

// Peak resident set size of this process in bytes (getrusage ru_maxrss),
// 0 when unavailable.
uint64_t TelemetryPeakRssBytes();

// Sets the process gauges fixrep.process.minor_faults (page faults served
// without IO so far, getrusage ru_minflt) and fixrep.process.rss_peak_bytes
// in `registry`. Called whenever a snapshot is taken (WriteMetricsJson,
// a /metrics scrape), so the values are as of that snapshot.
void PublishProcessGauges(MetricsRegistry* registry);

}  // namespace fixrep

#endif  // FIXREP_COMMON_TELEMETRY_H_
