#ifndef FIXREP_COMMON_METRIC_SCOPE_H_
#define FIXREP_COMMON_METRIC_SCOPE_H_

#include <memory>

#include "common/metrics.h"

// Session-scoped metric domains. The library's instrumentation sites
// publish to CurrentMetrics(), which is the process-wide registry unless
// the calling thread has an active MetricScope — then it is that scope's
// private registry. A caller that wants its repair counts apart wraps
// its RepairSession calls in an Activation, as the daemon does with
// one scope per tenant, so two concurrent sessions accumulate into
// disjoint registries and roll up into the global registry on flush:
//
//   MetricScope scope;
//   {
//     MetricScope::Activation active(&scope);
//     session.Repair(&table);
//   }
//   scope.registry().FindCounter("fixrep.lrepair.cells_changed");
//   scope.Flush();  // also at destruction
//
// The publication discipline that makes a *thread-local* current
// registry sufficient: engines accumulate into plain structs and publish
// deltas from the calling thread only — pool workers never touch the
// registry (see RepairDriver::Run) — so activating a scope on the
// session's calling thread captures everything the session publishes.

namespace fixrep {

// The calling thread's publication registry: the innermost active
// MetricScope's, or MetricsRegistry::Global().
MetricsRegistry& CurrentMetrics();

class MetricScope {
 public:
  // Values flushed out of this scope roll up into `parent` (the global
  // registry by default).
  explicit MetricScope(MetricsRegistry* parent = &MetricsRegistry::Global());
  // Flushes whatever is still accumulated, so no counts are dropped.
  ~MetricScope();

  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

  // The scope's private registry — inspect it directly for per-session
  // values before they roll up.
  MetricsRegistry& registry() { return *registry_; }
  const MetricsRegistry& registry() const { return *registry_; }

  // Rolls accumulated values up into the parent and resets the local
  // ones; repeated flushes never double-count.
  void Flush();

  // Shows this scope's values to live exports (GET /metrics) while it
  // accumulates, for scopes that flush only when they are destroyed (the
  // daemon's per-tenant scopes). MergeLiveMetrics reads the scope with
  // the non-destructive MergeInto, and the destructor's final flush runs
  // under the same lock, so a scrape sees every value exactly once.
  void ExportLive();

  // While an Activation lives, CurrentMetrics() on its thread resolves
  // to the scope's registry. Nests (inner scope wins) and restores the
  // previous registry on destruction; must be destroyed on the thread
  // that created it.
  class Activation {
   public:
    explicit Activation(MetricScope* scope);
    ~Activation();

    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;

   private:
    MetricsRegistry* previous_;
  };

 private:
  MetricsRegistry* parent_;
  std::unique_ptr<MetricsRegistry> registry_;
  bool live_ = false;
};

// Merges the global registry and every ExportLive scope into `view` (an
// empty registry) and returns true; returns false and leaves `view`
// alone when no scope is exported live, so the global registry by
// itself is the view.
bool MergeLiveMetrics(MetricsRegistry* view);

}  // namespace fixrep

#endif  // FIXREP_COMMON_METRIC_SCOPE_H_
