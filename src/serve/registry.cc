#include "serve/registry.h"

#include <cstring>
#include <fstream>
#include <set>
#include <string_view>
#include <utility>

#include "common/metric_scope.h"
#include "common/trace.h"
#include "rules/rule_io.h"

namespace fixrep::serve {

namespace {

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : text) {
    if (c == ',') {
      out.push_back(token);
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  out.push_back(token);
  return out;
}

// True when the file leads with the FXRDICT magic — then it must load
// as a dictionary (a corrupt dictionary is an error, never "fall back
// to text rules").
StatusOr<bool> HasDictMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::IoError("cannot open rule set file " + path);
  }
  char magic[sizeof(kRuleDictMagic)] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic)) return false;  // too short for a dict
  return std::memcmp(magic, kRuleDictMagic, sizeof(magic)) == 0;
}

}  // namespace

StatusOr<TenantSpec> ParseTenantSpec(const std::string& spec) {
  TenantSpec parsed;
  const size_t at = spec.find('@');
  if (at == std::string::npos) {
    parsed.path = spec;
  } else {
    parsed.path = spec.substr(0, at);
    parsed.attrs = SplitCommaList(spec.substr(at + 1));
    std::set<std::string_view> seen;
    for (const std::string& attr : parsed.attrs) {
      if (attr.empty()) {
        return Status::MalformedInput("empty attribute name in rule set spec '" +
                                      spec + "'");
      }
      if (!seen.insert(attr).second) {
        return Status::MalformedInput("duplicate attribute '" + attr +
                                      "' in rule set spec '" + spec + "'");
      }
    }
  }
  if (parsed.path.empty()) {
    return Status::MalformedInput("empty path in rule set spec '" + spec +
                                  "'");
  }
  return parsed;
}

StatusOr<std::shared_ptr<TenantSnapshot>> TenantSnapshot::Load(
    const std::string& name, const TenantSpec& spec, uint64_t generation) {
  StatusOr<bool> is_dict = HasDictMagic(spec.path);
  if (!is_dict.ok()) {
    return is_dict.status().WithContext("rule set " + name);
  }

  auto snapshot = std::shared_ptr<TenantSnapshot>(new TenantSnapshot());
  snapshot->name_ = name;
  snapshot->generation_ = generation;
  snapshot->pool_ = std::make_shared<ValuePool>();

  if (is_dict.value()) {
    if (!spec.attrs.empty()) {
      return Status::MalformedInput(
          "rule set " + name + ": a compiled dictionary (" + spec.path +
          ") is schema-self-describing; drop the @attrs suffix");
    }
    StatusOr<std::unique_ptr<RuleDict>> dict = RuleDict::Open(spec.path);
    if (!dict.ok()) {
      return dict.status().WithContext("rule set " + name);
    }
    snapshot->dict_ = std::move(dict).value();
    snapshot->schema_ = std::make_shared<const Schema>(
        "data", snapshot->dict_->attribute_names());
    const Status bound =
        snapshot->dict_->Bind(*snapshot->schema_, snapshot->pool_);
    if (!bound.ok()) return bound.WithContext("rule set " + name);
    return snapshot;
  }

  if (spec.attrs.empty()) {
    return Status::MalformedInput(
        "rule set " + name + ": a text rules file needs its schema — use " +
        spec.path + "@attr1,attr2,...");
  }
  snapshot->schema_ = std::make_shared<const Schema>("data", spec.attrs);
  StatusOr<RuleSet> rules = ParseRulesFileLenient(
      spec.path, snapshot->schema_, snapshot->pool_, RuleParseOptions{});
  if (!rules.ok()) {
    return rules.status().WithContext("rule set " + name);
  }
  StatusOr<std::unique_ptr<RuleDict>> image = RuleDict::Compile(*rules);
  if (!image.ok()) return image.status().WithContext("rule set " + name);
  snapshot->dict_ = std::move(image).value();
  return snapshot;
}

namespace {

// Takes `mu` on the side `Lock` names; the serve.pool_wait span ends once
// the lock is held, so it measures the wait and nothing else.
template <typename Lock>
Lock AcquirePool(std::shared_mutex& mu) {
  FIXREP_TRACE_SPAN("serve.pool_wait");
  return Lock(mu);
}

}  // namespace

std::shared_lock<std::shared_mutex> TenantSnapshot::ReadPool() const {
  return AcquirePool<std::shared_lock<std::shared_mutex>>(pool_mutex_);
}

StatusOr<Table> TenantSnapshot::DecodeCsv(std::string_view csv,
                                          const CsvReadOptions& options,
                                          CsvRecordSpans* spans) const {
  ValueOverlay overlay(pool_.get());
  StatusOr<Table> table = [&] {
    const std::shared_lock<std::shared_mutex> reader = ReadPool();
    return ReadCsvBytesResolved(csv, "data", pool_, &overlay, options,
                                spans);
  }();
  if (!table.ok()) return table.status().WithContext("request csv");
  if (table->schema().attribute_names() != schema_->attribute_names()) {
    return Status::MalformedInput("request csv header does not match rule "
                                  "set '" + name_ + "' schema");
  }
  size_t interned = 0;
  if (!overlay.empty()) {
    {
      const std::unique_lock<std::shared_mutex> writer =
          AcquirePool<std::unique_lock<std::shared_mutex>>(pool_mutex_);
      interned = overlay.Commit();
    }
    // The table is request-local: patching needs no lock.
    table->ApplyOverlay(overlay);
  }
  CurrentMetrics().GetCounter("fixrep.serve.values_interned")->Add(interned);
  return table;
}

Status TenantRegistry::Load(const std::string& name, const std::string& spec) {
  if (name.empty()) {
    return Status::MalformedInput("rule set name must be non-empty");
  }
  StatusOr<TenantSpec> parsed = ParseTenantSpec(spec);
  if (!parsed.ok()) return parsed.status();

  // Compile outside the lock — a corpus-scale load must not stall
  // lookups — then swap inside it. The generation is read first so a
  // replacement publishes old+1.
  uint64_t generation = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = tenants_.find(name);
    if (it != tenants_.end()) {
      generation = it->second.snapshot->generation() + 1;
    }
  }
  StatusOr<std::shared_ptr<TenantSnapshot>> snapshot =
      TenantSnapshot::Load(name, parsed.value(), generation);
  if (!snapshot.ok()) return snapshot.status();

  std::lock_guard<std::mutex> lock(mu_);
  Tenant& tenant = tenants_[name];
  if (tenant.scope == nullptr) {
    tenant.scope = std::make_unique<MetricScope>();
    tenant.scope->ExportLive();
  }
  // In-flight requests keep their pinned shared_ptr; this just redirects
  // future Find() calls.
  tenant.snapshot = std::move(snapshot).value();
  return Status::Ok();
}

std::shared_ptr<const TenantSnapshot> TenantRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.snapshot;
}

MetricScope* TenantRegistry::Scope(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.scope.get();
}

std::vector<RuleSetInfo> TenantRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RuleSetInfo> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    RuleSetInfo info;
    info.name = name;
    info.num_rules = tenant.snapshot->num_rules();
    info.generation = tenant.snapshot->generation();
    info.dict_backed = tenant.snapshot->dict_backed();
    out.push_back(std::move(info));
  }
  return out;
}

size_t TenantRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

}  // namespace fixrep::serve
