#include "common/metric_scope.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/logging.h"

namespace fixrep {

namespace {

// Innermost active scope's registry for this thread; nullptr = global.
thread_local MetricsRegistry* tls_current_registry = nullptr;

// The ExportLive scopes. The lock also covers their final flush.
std::mutex& LiveScopesMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}
std::vector<const MetricScope*>& LiveScopes() {
  static auto* scopes = new std::vector<const MetricScope*>;
  return *scopes;
}

}  // namespace

MetricsRegistry& CurrentMetrics() {
  MetricsRegistry* current = tls_current_registry;
  return current != nullptr ? *current : MetricsRegistry::Global();
}

MetricScope::MetricScope(MetricsRegistry* parent)
    : parent_(parent), registry_(std::make_unique<MetricsRegistry>()) {
  FIXREP_CHECK(parent_ != nullptr);
  FIXREP_CHECK(parent_ != registry_.get());
}

MetricScope::~MetricScope() {
  if (!live_) {
    Flush();
    return;
  }
  const std::lock_guard<std::mutex> lock(LiveScopesMutex());
  std::vector<const MetricScope*>& scopes = LiveScopes();
  scopes.erase(std::find(scopes.begin(), scopes.end(), this));
  Flush();
}

void MetricScope::ExportLive() {
  if (live_) return;
  const std::lock_guard<std::mutex> lock(LiveScopesMutex());
  LiveScopes().push_back(this);
  live_ = true;
}

bool MergeLiveMetrics(MetricsRegistry* view) {
  const std::lock_guard<std::mutex> lock(LiveScopesMutex());
  if (LiveScopes().empty()) return false;
  MetricsRegistry::Global().MergeInto(view);
  for (const MetricScope* scope : LiveScopes()) {
    scope->registry().MergeInto(view);
  }
  return true;
}

void MetricScope::Flush() { registry_->FlushInto(parent_); }

MetricScope::Activation::Activation(MetricScope* scope)
    : previous_(tls_current_registry) {
  FIXREP_CHECK(scope != nullptr);
  tls_current_registry = &scope->registry();
}

MetricScope::Activation::~Activation() { tls_current_registry = previous_; }

}  // namespace fixrep
