// The shared RepairConfig key/value grammar (repair/config.h): every
// knob parses from the same strings the CLI flags use, unknown keys and
// bad values are invalid-argument errors that leave the config
// untouched, and FormatRepairConfig ⇄ ParseRepairConfig round-trips any
// reachable config exactly (the property the daemon's wire headers rely
// on).

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/quarantine.h"
#include "common/status.h"
#include "repair/config.h"
#include "repair/session.h"

namespace fixrep {
namespace {

RepairConfig Parsed(
    const std::vector<std::pair<std::string, std::string>>& settings) {
  RepairConfig config;
  for (const auto& [key, value] : settings) {
    const Status status = ParseRepairConfig(key, value, &config);
    EXPECT_TRUE(status.ok()) << key << "=" << value << ": " << status;
  }
  return config;
}

void ExpectSameConfig(const RepairConfig& got, const RepairConfig& want,
                      const std::string& context) {
  EXPECT_EQ(got.engine, want.engine) << context;
  EXPECT_EQ(got.threads, want.threads) << context;
  EXPECT_EQ(got.shards, want.shards) << context;
  EXPECT_EQ(got.use_memo, want.use_memo) << context;
  EXPECT_EQ(got.memo_capacity, want.memo_capacity) << context;
  EXPECT_EQ(got.on_error, want.on_error) << context;
  EXPECT_EQ(got.max_chase_steps, want.max_chase_steps) << context;
  EXPECT_EQ(got.chunk_rows, want.chunk_rows) << context;
  EXPECT_EQ(got.wal_path, want.wal_path) << context;
  EXPECT_EQ(got.resume, want.resume) << context;
}

TEST(RepairConfigTest, EveryKeyParses) {
  const RepairConfig config = Parsed({{"engine", "crepair"},
                                      {"threads", "4"},
                                      {"shards", "3"},
                                      {"memo", "false"},
                                      {"memo-capacity", "123"},
                                      {"on-error", "quarantine"},
                                      {"max-chase-steps", "9"},
                                      {"chunk-rows", "77"},
                                      {"wal", "/tmp/w.wal"},
                                      {"resume", "on"}});
  EXPECT_EQ(config.engine, RepairEngine::kCRepair);
  EXPECT_EQ(config.threads, 4u);
  EXPECT_EQ(config.shards, 3u);
  EXPECT_FALSE(config.use_memo);
  EXPECT_EQ(config.memo_capacity, 123u);
  EXPECT_EQ(config.on_error, OnErrorPolicy::kQuarantine);
  EXPECT_EQ(config.max_chase_steps, 9u);
  EXPECT_EQ(config.chunk_rows, 77u);
  EXPECT_EQ(config.wal_path, "/tmp/w.wal");
  EXPECT_TRUE(config.resume);
}

TEST(RepairConfigTest, NoMemoIsTheFlagSpellingOfMemoFalse) {
  EXPECT_FALSE(Parsed({{"no-memo", ""}}).use_memo);
  EXPECT_FALSE(Parsed({{"no-memo", "true"}}).use_memo);
  EXPECT_TRUE(Parsed({{"no-memo", "false"}}).use_memo);
  EXPECT_TRUE(Parsed({{"memo", "on"}}).use_memo);
}

TEST(RepairConfigTest, WholeFileChunkRows) {
  EXPECT_EQ(Parsed({{"chunk-rows", "whole-file"}}).chunk_rows,
            RepairConfig::kWholeFile);
}

TEST(RepairConfigTest, UnknownKeyIsInvalidArgument) {
  // The rules and the metric scope are objects the caller passes, not
  // config keys; byte-bounded chunks bound a stream's memory, so there
  // is no memory-budget key.
  for (const char* key :
       {"frobnicate", "rules-dict", "scoped-metrics", "memory-budget"}) {
    RepairConfig config;
    const Status status = ParseRepairConfig(key, "1", &config);
    EXPECT_EQ(status.code(), StatusCode::kMalformedInput) << key;
    EXPECT_NE(status.message().find("unknown repair config key"),
              std::string::npos)
        << key << ": " << status;
    ExpectSameConfig(config, RepairConfig{}, "unknown key left a mark");
  }
}

TEST(RepairConfigTest, BadValuesAreInvalidArgumentAndLeaveNoTrace) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"engine", "turbo"},       {"threads", ""},
      {"threads", "4x"},         {"shards", "-1"},
      {"memo", "maybe"},         {"memo-capacity", "0"},
      {"on-error", "explode"},
      {"max-chase-steps", "ten"}, {"chunk-rows", "0"},
      {"chunk-rows", "half"},    {"wal", ""},
      {"resume", "nah"}};
  for (const auto& [key, value] : bad) {
    RepairConfig config;
    const Status status = ParseRepairConfig(key, value, &config);
    EXPECT_EQ(status.code(), StatusCode::kMalformedInput)
        << key << "=" << value;
    ExpectSameConfig(config, RepairConfig{}, key + "=" + value);
  }
}

TEST(RepairConfigTest, SessionLocalKeysAreExactlyTheDurabilityAndLayoutOnes) {
  for (const char* key : {"chunk-rows", "wal", "resume"}) {
    EXPECT_TRUE(RepairConfigKeyIsSessionLocal(key)) << key;
  }
  for (const char* key :
       {"engine", "threads", "shards", "memo", "no-memo", "memo-capacity",
        "on-error", "max-chase-steps", "memory-budget"}) {
    EXPECT_FALSE(RepairConfigKeyIsSessionLocal(key)) << key;
  }
}

// The round-trip property the daemon's wire headers lean on:
// Parse(Format(config)) == config for any reachable config.
TEST(RepairConfigPropertyTest, FormatThenParseRoundTripsRandomConfigs) {
  std::mt19937_64 rng(20260808);
  const auto pick = [&](size_t n) { return rng() % n; };
  for (int trial = 0; trial < 500; ++trial) {
    RepairConfig config;
    config.engine =
        pick(2) == 0 ? RepairEngine::kLRepair : RepairEngine::kCRepair;
    config.threads = pick(9);
    config.shards = pick(5);
    config.use_memo = pick(2) == 0;
    config.memo_capacity = 1 + pick(1 << 16);
    config.on_error = std::vector<OnErrorPolicy>{
        OnErrorPolicy::kAbort, OnErrorPolicy::kSkip,
        OnErrorPolicy::kQuarantine}[pick(3)];
    config.max_chase_steps = pick(100);
    config.chunk_rows =
        pick(4) == 0 ? RepairConfig::kWholeFile : 1 + pick(1 << 20);
    if (pick(3) == 0) config.wal_path = "/tmp/run.wal";
    config.resume = pick(4) == 0;

    RepairConfig replayed;
    for (const auto& [key, value] : FormatRepairConfig(config)) {
      const Status status = ParseRepairConfig(key, value, &replayed);
      ASSERT_TRUE(status.ok())
          << "trial " << trial << ": " << key << "=" << value << ": "
          << status;
    }
    ExpectSameConfig(replayed, config, "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace fixrep
