#include "common/trace.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "common/metric_scope.h"
#include "common/telemetry.h"

namespace fixrep {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point TraceEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// Dense thread index: stable, compact, human-readable in dumps (unlike
// std::thread::id hashes).
uint32_t CurrentThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

uint32_t& ThreadSpanDepth() {
  thread_local uint32_t depth = 0;
  return depth;
}

}  // namespace

uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           TraceEpoch())
          .count());
}

void InitTraceClock() { TraceEpoch(); }

TraceTimeline& TraceTimeline::Global() {
  static TraceTimeline* timeline = new TraceTimeline;
  return *timeline;
}

void TraceTimeline::Record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

std::vector<TraceTimeline::Span> TraceTimeline::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

uint64_t TraceTimeline::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceTimeline::Reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  dropped_ = 0;
}

void TraceTimeline::WriteJson(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"total_ns\": " << TraceNowNanos() << ", \"dropped\": " << dropped_
     << ", \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \""
       << JsonEscape(span.name) << "\", \"thread\": " << span.thread
       << ", \"depth\": " << span.depth << ", \"start_ns\": " << span.start_ns
       << ", \"duration_ns\": " << span.duration_ns << "}";
  }
  os << (spans_.empty() ? "" : "\n") << "]}";
}

TraceSpan::TraceSpan(const char* name)
    : name_(name),
      start_ns_(TraceNowNanos()),
      depth_(ThreadSpanDepth()++) {
  if (TelemetryJournal* journal = GetGlobalJournal()) {
    journal->Append(TelemetryEvent("span_open")
                        .SetString("name", name_)
                        .Set("depth", static_cast<uint64_t>(depth_))
                        .Set("start_ns", start_ns_));
  }
}

TraceSpan::~TraceSpan() {
  const uint64_t duration = TraceNowNanos() - start_ns_;
  --ThreadSpanDepth();
  CurrentMetrics()
      .GetHistogram(std::string("fixrep.span.") + name_ + "_ns", "ns")
      ->Observe(duration);
  if (TelemetryJournal* journal = GetGlobalJournal()) {
    journal->Append(TelemetryEvent("span_close")
                        .SetString("name", name_)
                        .Set("depth", static_cast<uint64_t>(depth_))
                        .Set("duration_ns", duration));
  }
  TraceTimeline::Span span;
  span.name = name_;
  span.thread = CurrentThreadIndex();
  span.depth = depth_;
  span.start_ns = start_ns_;
  span.duration_ns = duration;
  TraceTimeline::Global().Record(std::move(span));
}

void WriteMetricsJson(std::ostream& os) {
  PublishProcessGauges(&MetricsRegistry::Global());
  os << "{\n\"metrics\": ";
  MetricsRegistry::Global().WriteJson(os);
  os << ",\n\"timeline\": ";
  TraceTimeline::Global().WriteJson(os);
  os << "\n}\n";
}

}  // namespace fixrep
