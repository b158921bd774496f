#ifndef FIXREP_REPAIR_REPAIR_STATS_H_
#define FIXREP_REPAIR_REPAIR_STATS_H_

#include <cstddef>
#include <vector>

namespace fixrep {

// Accumulated effect of a repair run; shared by both repair engines.
// per_rule_applications powers Fig. 12(a) (errors corrected per rule).
//
// The struct itself is single-writer (each repairer — and each parallel
// worker — owns one); thread-safe aggregation happens when a repairer
// publishes into the global MetricsRegistry via PublishDelta.
struct RepairStats {
  size_t tuples_examined = 0;
  size_t tuples_changed = 0;
  size_t cells_changed = 0;
  // Total rule firings; always the sum of per_rule_applications.
  size_t rule_applications = 0;
  // lRepair internals: inverted-list probes that found candidate rules,
  // hash-counter bumps, rules that entered Ω, and Ω pops rejected by
  // re-verification (stale counters / already-assured targets).
  size_t index_hits = 0;
  size_t counter_bumps = 0;
  size_t candidates_enqueued = 0;
  size_t candidates_rejected = 0;
  // Probe mechanics: LookupBatch calls issued for tuple init and the
  // packed keys hashed through them, on every kernel. They depend on how
  // rows were grouped (memo, routing); every chase-semantic counter
  // above does not.
  size_t batch_probes = 0;
  size_t batch_keys = 0;
  // cRepair internals: outer chase passes over the rule list.
  size_t chase_iterations = 0;
  // per_rule_applications[i] = number of tuples rule i was applied to.
  std::vector<size_t> per_rule_applications;

  void Reset(size_t num_rules) {
    tuples_examined = 0;
    tuples_changed = 0;
    cells_changed = 0;
    rule_applications = 0;
    index_hits = 0;
    counter_bumps = 0;
    candidates_enqueued = 0;
    candidates_rejected = 0;
    batch_probes = 0;
    batch_keys = 0;
    chase_iterations = 0;
    per_rule_applications.assign(num_rules, 0);
  }

  // Accumulates another run's stats (the driver's slot merge).
  void MergeFrom(const RepairStats& other);

  // Publishes (*this - prev) into the global MetricsRegistry under
  // fixrep.<engine>.* — counters for every scalar field plus the
  // fixrep.<engine>.per_rule_applications counter vector. Repairers call this
  // at table granularity with their last-published snapshot, so the
  // per-tuple hot path touches only this plain struct and the shared
  // atomics see one update per table. Requires *this to have advanced
  // monotonically from prev (same rule set).
  void PublishDelta(const RepairStats& prev, const char* engine) const;
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_REPAIR_STATS_H_
