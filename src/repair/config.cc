#include "repair/config.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <optional>

#include "common/quarantine.h"
#include "repair/memo_cache.h"

namespace fixrep {

namespace {

bool ParseUint(const std::string& text, size_t* out) {
  // strtoull would happily wrap "-1" into a huge count; digits only.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  // Out of range saturates with ERANGE; refuse it rather than clamp.
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = static_cast<size_t>(value);
  return true;
}

std::optional<bool> ParseBool(const std::string& text) {
  // Empty = flag style ("--resume" with no value).
  if (text.empty() || text == "true" || text == "1" || text == "on" ||
      text == "yes") {
    return true;
  }
  if (text == "false" || text == "0" || text == "off" || text == "no") {
    return false;
  }
  return std::nullopt;
}

Status BadValue(const std::string& key, const std::string& value,
                const std::string& want) {
  return Status::MalformedInput("bad value '" + value + "' for config key '" +
                                key + "' (want " + want + ")");
}

}  // namespace

Status ParseRepairConfig(const std::string& key, const std::string& value,
                         RepairConfig* config) {
  if (key == "engine") {
    if (value == "lrepair") {
      config->engine = RepairEngine::kLRepair;
    } else if (value == "crepair") {
      config->engine = RepairEngine::kCRepair;
    } else {
      return BadValue(key, value, "lrepair|crepair");
    }
    return Status::Ok();
  }
  if (key == "threads") {
    size_t threads = 0;
    if (!ParseUint(value, &threads)) {
      return BadValue(key, value, "a thread count; 0 = pool width");
    }
    config->threads = threads;
    return Status::Ok();
  }
  if (key == "shards") {
    size_t shards = 0;
    if (!ParseUint(value, &shards)) {
      return BadValue(key, value, "a shard count");
    }
    config->shards = shards;
    return Status::Ok();
  }
  if (key == "memo") {
    const std::optional<bool> memo = ParseBool(value);
    if (!memo.has_value()) return BadValue(key, value, "a boolean");
    config->use_memo = *memo;
    return Status::Ok();
  }
  if (key == "no-memo") {
    const std::optional<bool> no_memo = ParseBool(value);
    if (!no_memo.has_value()) return BadValue(key, value, "a boolean");
    config->use_memo = !*no_memo;
    return Status::Ok();
  }
  if (key == "memo-capacity") {
    size_t capacity = 0;
    if (!ParseUint(value, &capacity) || capacity == 0 ||
        capacity > MemoCache::kMaxCapacity) {
      return BadValue(key, value,
                      "an entry count from 1 to " +
                          std::to_string(MemoCache::kMaxCapacity));
    }
    config->memo_capacity = capacity;
    return Status::Ok();
  }
  if (key == "on-error") {
    const std::optional<OnErrorPolicy> policy = TryParseOnErrorPolicy(value);
    if (!policy.has_value()) {
      return BadValue(key, value, "abort|skip|quarantine");
    }
    config->on_error = *policy;
    return Status::Ok();
  }
  if (key == "max-chase-steps") {
    size_t steps = 0;
    if (!ParseUint(value, &steps)) {
      return BadValue(key, value, "a step budget; 0 = unlimited");
    }
    config->max_chase_steps = steps;
    return Status::Ok();
  }
  if (key == "chunk-rows") {
    if (value == "whole-file") {
      config->chunk_rows = RepairConfig::kWholeFile;
      return Status::Ok();
    }
    size_t rows = 0;
    if (!ParseUint(value, &rows) || rows == 0) {
      return BadValue(key, value, "a positive row count or whole-file");
    }
    config->chunk_rows = rows;
    return Status::Ok();
  }
  if (key == "wal") {
    if (value.empty()) return BadValue(key, value, "a log path");
    config->wal_path = value;
    return Status::Ok();
  }
  if (key == "resume") {
    const std::optional<bool> resume = ParseBool(value);
    if (!resume.has_value()) return BadValue(key, value, "a boolean");
    config->resume = *resume;
    return Status::Ok();
  }
  return Status::MalformedInput("unknown repair config key '" + key + "'");
}

std::vector<std::pair<std::string, std::string>> FormatRepairConfig(
    const RepairConfig& config) {
  const RepairConfig defaults;
  std::vector<std::pair<std::string, std::string>> out;
  if (config.engine == RepairEngine::kCRepair) {
    out.emplace_back("engine", "crepair");
  }
  if (config.threads != defaults.threads) {
    out.emplace_back("threads", std::to_string(config.threads));
  }
  if (config.shards != defaults.shards) {
    out.emplace_back("shards", std::to_string(config.shards));
  }
  if (config.use_memo != defaults.use_memo) {
    out.emplace_back("memo", "false");
  }
  if (config.memo_capacity != defaults.memo_capacity) {
    out.emplace_back("memo-capacity", std::to_string(config.memo_capacity));
  }
  if (config.on_error != defaults.on_error) {
    out.emplace_back("on-error", OnErrorPolicyName(config.on_error));
  }
  if (config.max_chase_steps != defaults.max_chase_steps) {
    out.emplace_back("max-chase-steps",
                     std::to_string(config.max_chase_steps));
  }
  if (config.chunk_rows != defaults.chunk_rows) {
    out.emplace_back("chunk-rows",
                     config.chunk_rows == RepairConfig::kWholeFile
                         ? "whole-file"
                         : std::to_string(config.chunk_rows));
  }
  if (!config.wal_path.empty()) out.emplace_back("wal", config.wal_path);
  if (config.resume) out.emplace_back("resume", "true");
  return out;
}

bool RepairConfigKeyIsSessionLocal(const std::string& key) {
  return key == "chunk-rows" || key == "wal" || key == "resume";
}

}  // namespace fixrep
