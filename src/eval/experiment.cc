#include "eval/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace fixrep {

size_t EnvSizeT(const char* name, size_t default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return default_value;
  return static_cast<size_t>(std::strtoull(raw, nullptr, 10));
}

double EnvDouble(const char* name, double default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return default_value;
  return std::strtod(raw, nullptr);
}

bool EnvBool(const char* name, bool default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return default_value;
  const std::string value(raw);
  return value == "1" || value == "true" || value == "yes" || value == "on";
}

ExperimentScale GetExperimentScale() {
  ExperimentScale scale;
  scale.full = EnvBool("FIXREP_FULL_SCALE", false);
  scale.hosp_rows =
      EnvSizeT("FIXREP_HOSP_ROWS", scale.full ? 115000 : 20000);
  scale.hosp_rules = EnvSizeT("FIXREP_HOSP_RULES", scale.full ? 1000 : 1000);
  scale.uis_rows = EnvSizeT("FIXREP_UIS_ROWS", scale.full ? 15000 : 15000);
  scale.uis_rules = EnvSizeT("FIXREP_UIS_RULES", scale.full ? 100 : 100);
  return scale;
}

std::string DescribeScale(const ExperimentScale& scale) {
  return std::string("scale: ") + (scale.full ? "FULL" : "reduced") +
         " (hosp " + std::to_string(scale.hosp_rows) + " rows / " +
         std::to_string(scale.hosp_rules) + " rules, uis " +
         std::to_string(scale.uis_rows) + " rows / " +
         std::to_string(scale.uis_rules) +
         " rules; set FIXREP_FULL_SCALE=1 for the paper's sizes)";
}

std::string DescribeMetrics() {
  const auto& registry = MetricsRegistry::Global();
  std::string out;
  const auto append = [&](const char* name) {
    const Counter* counter = registry.FindCounter(name);
    if (counter == nullptr || counter->Value() == 0) return;
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(counter->Value());
  };
  append("fixrep.lrepair.tuples_examined");
  append("fixrep.lrepair.cells_changed");
  append("fixrep.lrepair.index_builds");
  append("fixrep.lrepair.batch_probes");
  append("fixrep.lrepair.batch_keys");
  append("fixrep.crepair.tuples_examined");
  append("fixrep.crepair.cells_changed");
  append("fixrep.consistency.pairs_checked");
  append("fixrep.discovery.rules_emitted");
  append("fixrep.memo.hits");
  append("fixrep.memo.misses");
  append("fixrep.pool.chunks_claimed");
  const double hit_rate = MemoHitRate();
  if (hit_rate >= 0.0) {
    if (!out.empty()) out += ' ';
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "fixrep.memo.hit_rate=%.3f",
                  hit_rate);
    out += buffer;
  }
  // Phase latency distributions: quantile estimates with the unit tagged
  // at registration, instead of the raw power-of-two buckets.
  const auto append_histogram = [&](const char* name) {
    const Histogram* histogram = registry.FindHistogram(name);
    if (histogram == nullptr || histogram->Count() == 0) return;
    const HistogramSnapshot snap = histogram->Snapshot();
    if (!out.empty()) out += ' ';
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{count=%llu p50=%.0f%s p95=%.0f%s p99=%.0f%s}", name,
                  static_cast<unsigned long long>(snap.count), snap.P50(),
                  snap.unit, snap.P95(), snap.unit, snap.P99(), snap.unit);
    out += buffer;
  };
  append_histogram("fixrep.span.lrepair.chase_ns");
  append_histogram("fixrep.span.streaming.run_ns");
  append_histogram("fixrep.span.parallel.repair_table_ns");
  return out.empty() ? out : "metrics: " + out;
}

double MemoHitRate() {
  const auto& registry = MetricsRegistry::Global();
  const Counter* hits = registry.FindCounter("fixrep.memo.hits");
  const Counter* misses = registry.FindCounter("fixrep.memo.misses");
  const uint64_t h = hits == nullptr ? 0 : hits->Value();
  const uint64_t m = misses == nullptr ? 0 : misses->Value();
  if (h + m == 0) return -1.0;
  return static_cast<double>(h) / static_cast<double>(h + m);
}

RepairConfig ParseBenchRepairConfig(int argc, char** argv) {
  RepairConfig config;
  config.threads = EnvSizeT("FIXREP_THREADS", 0);
  config.use_memo = !EnvBool("FIXREP_NO_MEMO", false);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      config.threads = static_cast<size_t>(
          std::strtoull(arg.c_str() + 10, nullptr, 10));
    } else if (arg == "--no-memo") {
      config.use_memo = false;
    }
  }
  return config;
}

bool MaybeDumpMetrics() {
  const char* path = std::getenv("FIXREP_METRICS_OUT");
  if (path == nullptr || *path == '\0') return false;
  std::ofstream out(path);
  if (!out) {
    FIXREP_LOG(Error) << "cannot open metrics output" << Kv("path", path);
    return false;
  }
  WriteMetricsJson(out);
  FIXREP_LOG(Info) << "wrote metrics snapshot" << Kv("path", path);
  return true;
}

}  // namespace fixrep
