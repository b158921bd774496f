// Deterministic mutation fuzzer for the RepairConfig key/value grammar
// (repair/config.h), which parses untrusted request headers in the
// daemon as well as CLI flags. Seeded PRNG inputs mix every known key
// with unknown and mutated keys, and values drawn from huge, negative,
// signed, suffixed, padded and byte-mutated integers, booleans and
// enum names. Every call must return: either kMalformedInput with the
// config untouched, or Ok with a config whose sizes are in bounds, that
// a MemoCache can be built from, and that FormatRepairConfig round-trips.

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "repair/config.h"
#include "repair/memo_cache.h"
#include "repair/session.h"

namespace fixrep {
namespace {

const std::vector<std::string>& KnownKeys() {
  static const std::vector<std::string> keys = {
      "engine",     "threads",       "shards",   "memo",
      "no-memo",    "memo-capacity", "on-error", "max-chase-steps",
      "chunk-rows", "wal",           "resume"};
  return keys;
}

const std::vector<std::string>& SpecialValues() {
  static const std::vector<std::string> values = {
      "",
      "0",
      "1",
      "-1",
      "+1",
      " 1",
      "1 ",
      "0x10",
      "007",
      "4194304",
      "4194305",
      "65536",
      "1099511627776",
      "9223372036854775807",
      "9223372036854775808",
      "18446744073709551615",
      "18446744073709551616",
      "99999999999999999999999999",
      "-18446744073709551615",
      "17179869184G",
      "17179869183G",
      "16777216T",
      "64MB",
      "512K",
      "2g",
      "1e9",
      "whole-file",
      "true",
      "false",
      "on",
      "off",
      "yes",
      "no",
      "lrepair",
      "crepair",
      "abort",
      "skip",
      "quarantine",
      std::string("1\0", 2),
      std::string("\0", 1),
      "\xff\xfe",
  };
  return values;
}

std::string RandomDigits(Rng* rng) {
  std::string digits;
  const size_t n = rng->Uniform(26);
  for (size_t i = 0; i < n; ++i) {
    digits.push_back(static_cast<char>('0' + rng->Uniform(10)));
  }
  return digits;
}

// A byte from the characters integer parsers trip over, or any byte.
char RandomByte(Rng* rng) {
  static constexpr char kTricky[] = "0123456789-+ \t\nKkMmGgBbxe.,=\"";
  if (rng->Uniform(4) == 0) return static_cast<char>(rng->Uniform(256));
  return kTricky[rng->Uniform(sizeof(kTricky) - 1)];
}

std::string Mutate(std::string s, Rng* rng) {
  const size_t edits = 1 + rng->Uniform(3);
  for (size_t e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : rng->Uniform(s.size() + 1);
    switch (rng->Uniform(5)) {
      case 0:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), RandomByte(rng));
        break;
      case 1:
        if (at < s.size()) s.erase(at, 1);
        break;
      case 2:
        if (at < s.size()) s[at] = RandomByte(rng);
        break;
      case 3:
        s += s.substr(at);  // duplicate a tail: long digit runs
        break;
      default:
        s.resize(at);  // truncate
        break;
    }
  }
  return s;
}

std::string RandomValue(Rng* rng) {
  static const std::vector<std::string> kPrefixes = {"", "", "", "-", "+",
                                                     " ", "0", "0x"};
  static const std::vector<std::string> kSuffixes = {
      "", "", "", "K", "k", "M", "MB", "G", "gb", "B", "T", " ", "\n"};
  switch (rng->Uniform(4)) {
    case 0:
      return rng->Pick(kPrefixes) + RandomDigits(rng) +
             rng->Pick(kSuffixes);
    case 1:
      return rng->Pick(SpecialValues());
    default:
      return Mutate(rng->Uniform(2) == 0 ? rng->Pick(SpecialValues())
                                         : RandomDigits(rng),
                    rng);
  }
}

const std::vector<std::string>& UnknownKeys() {
  static const std::vector<std::string> keys = {
      "",         "frobnicate", "memo_capacity", "THREADS",
      "threads ", std::string("memo\0", 5), "quarantine", "memory-budget"};
  return keys;
}

std::string RandomKey(Rng* rng) {
  switch (rng->Uniform(8)) {
    case 0:
      return Mutate(rng->Pick(KnownKeys()), rng);
    case 1:
      return rng->Pick(UnknownKeys());
    default:
      return rng->Pick(KnownKeys());
  }
}

// The config as the (key, value) pairs that reproduce it; equal pairs
// mean equal configs (every knob but the runtime quarantine sink).
using Pairs = std::vector<std::pair<std::string, std::string>>;

// The invariants of an accepted config: sizes within their bounds, a
// memo that can be built, and a lossless FormatRepairConfig round trip.
void ExpectBounded(const RepairConfig& config, const std::string& context) {
  ASSERT_GE(config.memo_capacity, 1u) << context;
  ASSERT_LE(config.memo_capacity, MemoCache::kMaxCapacity) << context;
  ASSERT_GE(config.chunk_rows, 1u) << context;
  RepairConfig replayed;
  for (const auto& [key, value] : FormatRepairConfig(config)) {
    const Status status = ParseRepairConfig(key, value, &replayed);
    ASSERT_TRUE(status.ok()) << context << " replaying " << key << "="
                             << value << ": " << status;
  }
  ASSERT_EQ(FormatRepairConfig(replayed), FormatRepairConfig(config))
      << context;
}

TEST(RepairConfigFuzz, EveryInputReturnsAStatusOrABoundedConfig) {
  Rng rng(0xc0f1c);
  size_t accepted = 0;
  size_t memo_capacity_accepted = 0;
  RepairConfig config;  // carried across calls: settings accumulate
  for (size_t i = 0; i < 60000; ++i) {
    if (rng.Uniform(64) == 0) config = RepairConfig{};
    const std::string key = RandomKey(&rng);
    const std::string value = RandomValue(&rng);
    const std::string context = "call " + std::to_string(i) + " key '" +
                                key + "' value '" + value + "'";
    const Pairs before = FormatRepairConfig(config);
    const Status status = ParseRepairConfig(key, value, &config);
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kMalformedInput) << context;
      ASSERT_EQ(FormatRepairConfig(config), before)
          << context << ": a refused setting changed the config";
      continue;
    }
    ++accepted;
    ExpectBounded(config, context);
    ASSERT_FALSE(HasFatalFailure());
    if (key == "memo-capacity") {
      ++memo_capacity_accepted;
      // Any accepted capacity builds a memo (at most a 16 MiB slot table).
      ASSERT_GE(MemoCache(config.memo_capacity).capacity(),
                config.memo_capacity)
          << context;
    }
  }
  // The generator reaches both outcomes, memo-capacity included.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(memo_capacity_accepted, 10u);
}

TEST(RepairConfigFuzz, IntegerKeysRefuseWhatDoesNotFit) {
  // The integer boundary values, checked against their exact meaning.
  RepairConfig config;
  for (const char* key : {"threads", "shards", "max-chase-steps"}) {
    EXPECT_TRUE(ParseRepairConfig(key, "18446744073709551615", &config).ok())
        << key;
    EXPECT_FALSE(ParseRepairConfig(key, "18446744073709551616", &config).ok())
        << key;
    EXPECT_FALSE(ParseRepairConfig(key, "-1", &config).ok()) << key;
  }
  EXPECT_TRUE(ParseRepairConfig("memo-capacity",
                                std::to_string(MemoCache::kMaxCapacity),
                                &config)
                  .ok());
  EXPECT_EQ(config.memo_capacity, MemoCache::kMaxCapacity);
  for (const std::string& capacity :
       {std::to_string(MemoCache::kMaxCapacity + 1),
        std::string("18446744073709551615"), std::string("0")}) {
    EXPECT_FALSE(ParseRepairConfig("memo-capacity", capacity, &config).ok())
        << capacity;
    EXPECT_EQ(config.memo_capacity, MemoCache::kMaxCapacity) << capacity;
  }
}

}  // namespace
}  // namespace fixrep
