#ifndef FIXREP_SERVE_REGISTRY_H_
#define FIXREP_SERVE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metric_scope.h"
#include "common/status.h"
#include "relation/csv.h"
#include "relation/schema.h"
#include "relation/value_pool.h"
#include "rules/rule_dict.h"
#include "serve/protocol.h"

// The daemon's named rule sets (docs/serving.md). Each tenant is an
// immutable TenantSnapshot — value pool, schema, and one RuleDict bound
// to that pool (a heap image compiled from a text rule file, or a
// mapped FXRDICT file; the file's magic decides) — published behind a
// shared_ptr. Requests pin the snapshot they start
// on; `reload` builds a fresh snapshot off to the side and atomically
// swaps the pointer, so in-flight repairs finish on the old rules and
// nothing is dropped. Per-tenant MetricScopes live in the registry, not
// the snapshot, so a tenant's counters accumulate across reloads.

namespace fixrep::serve {

// A `--ruleset NAME=SPEC` / reload spec, minus the name:
//   path               compiled dictionary (FXRDICT magic) — the file
//                      is schema-self-describing
//   path@a,b,c         text rules file + its schema attribute names
struct TenantSpec {
  std::string path;
  std::vector<std::string> attrs;
};

// kMalformedInput for an empty path, or an attribute name that is empty
// or repeated.
StatusOr<TenantSpec> ParseTenantSpec(const std::string& spec);

class TenantSnapshot {
 public:
  // Compiles the spec into an immutable snapshot: text rules are parsed
  // (strict — a malformed rule fails the load) into a fresh pool and
  // compiled into a heap image; a dictionary is mapped and bound to a
  // fresh pool built from its own attribute names. kMalformedInput /
  // kIoError on any failure.
  static StatusOr<std::shared_ptr<TenantSnapshot>> Load(
      const std::string& name, const TenantSpec& spec, uint64_t generation);

  const std::string& name() const { return name_; }
  uint64_t generation() const { return generation_; }
  // True when the rules are a mapped FXRDICT file, false for a heap
  // image compiled from text rules.
  bool dict_backed() const { return dict_->mapped(); }
  size_t num_rules() const { return dict_->num_rules(); }
  const RuleDict& dict() const { return *dict_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::shared_ptr<ValuePool>& pool() const { return pool_; }

  // The snapshot's pool keeps interning request values for as long as
  // the snapshot serves (docs/serving.md, "Pool lock discipline"). Every
  // step of a request reads the pool under the reader side: decoding
  // resolves fields with ValuePool::Find, the chase and the render read
  // it. Only the interning of values a request brought new takes the
  // writer side (the pool's single-writer rule), once per request and
  // never around tokenizing.
  std::shared_mutex& pool_mutex() const { return pool_mutex_; }

  // The reader side of pool_mutex(), acquired under a serve.pool_wait
  // span that covers the wait alone.
  std::shared_lock<std::shared_mutex> ReadPool() const;

  // Decodes a request batch into a table over the snapshot's pool. The
  // batch is tokenized and resolved under the reader side; values the
  // pool lacks are staged in a request-local ValueOverlay and interned
  // under the writer side afterwards, in first-occurrence order, so the
  // ValueIds match what ReadCsvBytesLenient under the writer side gives
  // when no other request interns in between. A batch that fails to
  // parse, or whose header is not the snapshot's schema, interns
  // nothing. Ticks fixrep.serve.values_interned by the values added. A
  // non-null `spans` receives the batch's record layout, for SpliceCsv.
  StatusOr<Table> DecodeCsv(std::string_view csv,
                            const CsvReadOptions& options,
                            CsvRecordSpans* spans = nullptr) const;

 private:
  TenantSnapshot() = default;

  std::string name_;
  uint64_t generation_ = 0;
  std::shared_ptr<ValuePool> pool_;
  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<RuleDict> dict_;
  mutable std::shared_mutex pool_mutex_;
};

class TenantRegistry {
 public:
  // Creates or hot-replaces the named tenant (generation bumps on
  // replace). Existing snapshot stays published if the load fails.
  Status Load(const std::string& name, const std::string& spec);

  // The current snapshot, pinned: stays valid (and its rules stay
  // mapped/compiled) for as long as the caller holds the pointer, even
  // across reloads. Null for an unknown tenant.
  std::shared_ptr<const TenantSnapshot> Find(const std::string& name) const;

  // The tenant's metric scope (created on first Load, survives
  // reloads). Null for an unknown tenant. Scopes flush into the global
  // registry when the registry is destroyed.
  MetricScope* Scope(const std::string& name) const;

  std::vector<RuleSetInfo> List() const;
  size_t size() const;

 private:
  struct Tenant {
    std::shared_ptr<const TenantSnapshot> snapshot;
    std::unique_ptr<MetricScope> scope;
  };

  mutable std::mutex mu_;
  std::map<std::string, Tenant> tenants_;
};

}  // namespace fixrep::serve

#endif  // FIXREP_SERVE_REGISTRY_H_
