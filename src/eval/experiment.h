#ifndef FIXREP_EVAL_EXPERIMENT_H_
#define FIXREP_EVAL_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "repair/session.h"

namespace fixrep {

// Environment-variable helpers for the benches. Every figure bench runs
// at a reduced default scale so `for b in build/bench/*; do $b; done`
// finishes in minutes; set FIXREP_FULL_SCALE=1 to reproduce the paper's
// sizes (hosp 115K rows / 1000 rules, uis 15K rows / 100 rules).
size_t EnvSizeT(const char* name, size_t default_value);
double EnvDouble(const char* name, double default_value);
bool EnvBool(const char* name, bool default_value);

// The per-dataset scale an experiment should run at.
struct ExperimentScale {
  size_t hosp_rows;
  size_t hosp_rules;
  size_t uis_rows;
  size_t uis_rules;
  bool full;
};

// Reads FIXREP_FULL_SCALE (and the FIXREP_HOSP_ROWS / FIXREP_UIS_ROWS /
// FIXREP_HOSP_RULES / FIXREP_UIS_RULES overrides).
ExperimentScale GetExperimentScale();

// One-line banner describing the scale, printed by each bench.
std::string DescribeScale(const ExperimentScale& scale);

// One-line summary of the key repair counters accumulated so far in the
// global MetricsRegistry; benches print it so their reports are
// self-describing ("" when nothing was recorded).
std::string DescribeMetrics();

// If FIXREP_METRICS_OUT is set, writes the combined metrics + span
// timeline JSON (WriteMetricsJson) to that path; returns true when a
// file was written. Benches call this last so any run can be mined.
bool MaybeDumpMetrics();

// Process-lifetime memo hit rate from the fixrep.memo.{hits,misses}
// counters; -1.0 when the memo was never consulted.
double MemoHitRate();

// Repair-engine knobs shared by the benches: the default RepairConfig
// with threads 0 (the pool width), then the FIXREP_THREADS /
// FIXREP_NO_MEMO env vars, then the --threads=N and --no-memo
// command-line flags (flags win).
RepairConfig ParseBenchRepairConfig(int argc, char** argv);

}  // namespace fixrep

#endif  // FIXREP_EVAL_EXPERIMENT_H_
