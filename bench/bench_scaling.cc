// Data-size scaling (supports the paper's "linear in data size" claim
// for the repair algorithms, Exp-3): wall-clock of lRepair (serial and
// pooled+memoized), cRepair, and FD violation detection while the hosp
// row count doubles. Emits BENCH_repair.json (rows/s per size, memo hit
// rate, thread count). Flags: --threads=N, --no-memo.

#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "deps/violation.h"
#include "eval/text_table.h"
#include "repair/crepair.h"
#include "repair/driver.h"
#include "repair/lrepair.h"

namespace fixrep::bench {
namespace {

void Run(const RepairConfig& config) {
  const ExperimentScale scale = GetExperimentScale();
  const size_t threads = config.threads == 0
                             ? ThreadPool::Global().num_workers() + 1
                             : config.threads;
  std::cout << "Data-size scaling — " << DescribeScale(scale) << "\n"
            << "pooled engine: " << threads << " thread(s), memo "
            << (config.use_memo ? "on" : "off") << "\n\n";
  TextTable table({"rows", "lRepair (ms)", "us/row", "pooled+memo (ms)",
                   "cRepair (ms)", "violation detect (ms)"});
  BenchJson json("BENCH_repair.json");
  json.Set("workload", "thread_count", static_cast<double>(threads));
  json.Set("workload", "memo_enabled", config.use_memo ? 1.0 : 0.0);
  const size_t max_rows = scale.full ? 115000 : 80000;
  for (size_t rows = 10000; rows <= max_rows; rows *= 2) {
    const Workload workload = MakeHospWorkload(rows, 500);
    double lrepair_ms = 0;
    double lrepair_allocs = 0;
    {
      Table copy = workload.dirty;
      FastRepairer repairer(&workload.rules);
      const uint64_t allocs_before = AllocationCount();
      lrepair_ms = TimedMs("lrepair", [&] { repairer.RepairTable(&copy); });
      lrepair_allocs =
          static_cast<double>(AllocationCount() - allocs_before);
    }
    double pooled_ms = 0;
    double pooled_allocs = 0;
    {
      Table copy = workload.dirty;
      const std::unique_ptr<RuleDict> dict =
          RuleDict::CompileOrDie(workload.rules);
      const uint64_t allocs_before = AllocationCount();
      pooled_ms = TimedMs("pooled_memo", [&] {
        RepairDriver(*dict, config).Run(&copy);
      });
      pooled_allocs =
          static_cast<double>(AllocationCount() - allocs_before);
    }
    double crepair_ms = 0;
    {
      Table copy = workload.dirty;
      ChaseRepairer repairer(&workload.rules);
      crepair_ms = TimedMs("crepair", [&] { repairer.RepairTable(&copy); });
    }
    size_t violations = 0;
    const double detect_ms = TimedMs("violation_detect", [&] {
      for (const auto& fd : NormalizeToSingleRhs(workload.data.fds)) {
        violations += DetectViolations(workload.dirty, fd).size();
      }
    });
    if (violations == SIZE_MAX) std::cout << "";  // keep it live
    table.AddRow({std::to_string(rows), FormatDouble(lrepair_ms, 2),
                  FormatDouble(lrepair_ms * 1000.0 / rows, 3),
                  FormatDouble(pooled_ms, 2), FormatDouble(crepair_ms, 2),
                  FormatDouble(detect_ms, 2)});
    const std::string section = "scaling_" + std::to_string(rows);
    json.Set(section, "lrepair_rows_per_sec", rows / (lrepair_ms / 1e3));
    json.Set(section, "lrepair_allocations", lrepair_allocs);
    json.Set(section, "pooled_memo_rows_per_sec",
             rows / (pooled_ms / 1e3));
    json.Set(section, "pooled_memo_allocations", pooled_allocs);
    json.Set(section, "crepair_rows_per_sec", rows / (crepair_ms / 1e3));
  }
  table.Print(std::cout);
  std::cout << "\nShape check vs paper: per-row lRepair cost stays flat as "
               "the table doubles (linear scaling).\n";
  const double hit_rate = MemoHitRate();
  if (hit_rate >= 0.0) json.Set("workload", "memo_hit_rate", hit_rate);
  json.Set("phases_ns", "index_build", SpanTotalNanos("lrepair.index_build"));
  json.Set("phases_ns", "chase", SpanTotalNanos("lrepair.chase"));
  json.Set("phases_ns", "parallel_repair_table",
           SpanTotalNanos("parallel.repair_table"));
  json.Set("process", "peak_rss_bytes", PeakRssBytes());
  json.Set("process", "allocations_total",
           static_cast<double>(AllocationCount()));
  if (json.Write()) std::cout << "wrote " << json.path() << "\n";
  const std::string metrics = DescribeMetrics();
  if (!metrics.empty()) std::cout << "\n" << metrics << "\n";
  MaybeDumpMetrics();  // FIXREP_METRICS_OUT=path for the full JSON
}

}  // namespace
}  // namespace fixrep::bench

int main(int argc, char** argv) {
  fixrep::bench::Run(fixrep::ParseBenchRepairConfig(argc, argv));
  return 0;
}
