// Compiled rule dictionaries (rules/rule_dict.h): compile/open/bind
// round trips, the image's structures against naive constructions from
// the rules in both storages (compiled in memory, opened from a file),
// byte-identical repair between the two, compile determinism, the
// per-worker translator/cache scratch, and — the robustness half —
// refusal of every corrupted or truncated file shape with a Status,
// never UB.

#include "rules/rule_dict.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/random.h"
#include "common/wal.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "repair/session.h"
#include "repair/streaming.h"
#include "repair/crepair.h"
#include "repair/lrepair.h"
#include "repair/memo_cache.h"
#include "rulegen/rulegen.h"
#include "rules/fingerprint.h"
#include "rules/rule_set.h"
#include "testing_util.h"

namespace fixrep {
namespace {

using ::fixrep::testing::RandomRuleUniverse;

std::string TestPath(const std::string& name) {
  return testing::TestTempPath(name);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A deterministic small rule universe with a couple of handwritten rules
// for the exact-value assertions.
struct SmallCorpus {
  std::shared_ptr<ValuePool> pool = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema = std::make_shared<Schema>(
      "R", std::vector<std::string>{"country", "capital", "city"});
  RuleSet rules{schema, pool};

  SmallCorpus() {
    rules.Add(MakeRule(*schema, pool.get(), {{"country", "China"}}, "capital",
                       {"Hongkong", "Shanghai"}, "Beijing"));
    rules.Add(MakeRule(*schema, pool.get(), {{"country", "Canada"}},
                       "capital", {"Toronto"}, "Ottawa"));
    rules.Add(MakeRule(*schema, pool.get(), {}, "country", {"Cnina"},
                       "China"));
  }
};

TEST(RuleDictCompile, RoundTripsHeaderAndIdentity) {
  SmallCorpus corpus;
  const std::string path = TestPath("roundtrip.dict");
  ASSERT_TRUE(CompileRuleDict(corpus.rules, path).ok());

  auto dict = RuleDict::Open(path);
  ASSERT_TRUE(dict.ok()) << dict.status();
  EXPECT_EQ((*dict)->num_rules(), corpus.rules.size());
  EXPECT_EQ((*dict)->arity(), corpus.schema->arity());
  EXPECT_EQ((*dict)->fingerprint(), RuleSetFingerprint(corpus.rules));
  EXPECT_EQ((*dict)->attribute_names(), corpus.schema->attribute_names());
  EXPECT_EQ((*dict)->header().num_empty_evidence, 1u);
  EXPECT_GT((*dict)->image().size(), sizeof(RuleDictHeader));
  EXPECT_TRUE((*dict)->mapped());
  EXPECT_FALSE((*dict)->bound());
}

TEST(RuleDictCompile, IsByteDeterministic) {
  SmallCorpus corpus;
  const std::string a = TestPath("det_a.dict");
  const std::string b = TestPath("det_b.dict");
  ASSERT_TRUE(CompileRuleDict(corpus.rules, a).ok());
  ASSERT_TRUE(CompileRuleDict(corpus.rules, b).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
}

TEST(RuleDictBind, RefusesMismatchedSchema) {
  SmallCorpus corpus;
  const std::string path = TestPath("bind_schema.dict");
  ASSERT_TRUE(CompileRuleDict(corpus.rules, path).ok());
  auto dict = RuleDict::Open(path);
  ASSERT_TRUE(dict.ok()) << dict.status();

  const Schema other("S", {"country", "capital"});
  const Status status = (*dict)->Bind(other, corpus.pool);
  EXPECT_EQ(status.code(), StatusCode::kMalformedInput);
  EXPECT_FALSE((*dict)->bound());
}

// ---------------------------------------------------------------------
// The image's structures, checked in both storages: compiled in memory
// (RuleDict::Compile) and compiled to a file and mapped back.

constexpr bool kStorages[] = {false, true};  // mapped?

std::string StorageName(bool mapped) { return mapped ? "file" : "heap"; }

// Naive reference: every (attr, live value) evidence cell -> rule ids,
// in rule order (the compile keeps per-key rule order).
std::map<std::pair<AttrId, ValueId>, std::vector<uint32_t>> NaivePostings(
    const RuleSet& rules) {
  std::map<std::pair<AttrId, ValueId>, std::vector<uint32_t>> postings;
  for (uint32_t i = 0; i < rules.size(); ++i) {
    const FixingRule& rule = rules.rule(i);
    for (size_t e = 0; e < rule.evidence_attrs.size(); ++e) {
      postings[{rule.evidence_attrs[e], rule.evidence_values[e]}]
          .push_back(i);
    }
  }
  return postings;
}

void ExpectMatchesNaive(const RuleSet& rules, const RuleDict& dict,
                        const std::string& context) {
  const auto naive = NaivePostings(rules);
  const std::unique_ptr<RuleDictHandle> handle = dict.MakeHandle();
  EXPECT_EQ(dict.header().num_keys, naive.size()) << context;
  size_t total = 0;
  for (const auto& [key, expected] : naive) {
    const PostingRange range = handle->source().Lookup(key.first, key.second);
    const std::vector<uint32_t> got(range.begin, range.end);
    EXPECT_EQ(got, expected) << context << " attr " << key.first
                             << " value " << key.second;
    total += expected.size();
  }
  EXPECT_EQ(dict.header().num_postings, total) << context;
}

// Noisy generated tables with their mined rules.
struct NoisyDataset {
  Table dirty;
  RuleSet rules;
};

NoisyDataset NoisyHosp() {
  HospOptions options;
  options.rows = 400;
  options.num_hospitals = 40;
  GeneratedData data = GenerateHosp(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 150;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return {std::move(dirty), std::move(rules)};
}

NoisyDataset NoisyUis() {
  UisOptions options;
  options.rows = 300;
  options.duplicate_ratio = 0.4;
  options.num_zips = 30;
  GeneratedData data = GenerateUis(options);
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds), {});
  RuleGenOptions rulegen;
  rulegen.max_rules = 100;
  RuleSet rules = GenerateRules(data.clean, dirty, data.fds, rulegen);
  return {std::move(dirty), std::move(rules)};
}

TEST(RuleDictImageTest, TravelPostingsMatchNaiveConstruction) {
  TravelExample example;
  for (const bool mapped : kStorages) {
    const auto dict = testing::ImageIn(mapped, example.rules, "travel.dict");
    ASSERT_NE(dict, nullptr);
    ExpectMatchesNaive(example.rules, *dict, StorageName(mapped));
    EXPECT_EQ(dict->num_rules(), example.rules.size());
    EXPECT_EQ(dict->arity(), example.rules.schema().arity());
    EXPECT_EQ(dict->mapped(), mapped);
  }
}

TEST(RuleDictImageTest, FuzzedRuleSetsMatchNaiveConstruction) {
  Rng rng(0xbead);
  for (int round = 0; round < 20; ++round) {
    RandomRuleUniverse universe;
    RuleSet rules(universe.schema, universe.pool);
    const size_t n = 1 + rng.Uniform(60);
    for (size_t i = 0; i < n; ++i) rules.Add(universe.RandomRule(&rng));
    for (const bool mapped : kStorages) {
      const auto dict = testing::ImageIn(mapped, rules, "fuzzed.dict");
      ASSERT_NE(dict, nullptr);
      ExpectMatchesNaive(rules, *dict,
                         StorageName(mapped) + " round " +
                             std::to_string(round));
    }
  }
}

TEST(RuleDictImageTest, SideArraysMirrorRules) {
  TravelExample example;
  for (const bool mapped : kStorages) {
    const auto dict = testing::ImageIn(mapped, example.rules, "sides.dict");
    ASSERT_NE(dict, nullptr);
    const std::unique_ptr<RuleDictHandle> handle = dict->MakeHandle();
    const RuleSource& source = handle->source();
    for (uint32_t i = 0; i < example.rules.size(); ++i) {
      const FixingRule& rule = example.rules.rule(i);
      EXPECT_EQ(source.evidence_count(i), rule.evidence_attrs.size());
      EXPECT_EQ(source.target(i), rule.target);
      EXPECT_EQ(source.fact(i), rule.fact);  // live space
      EXPECT_EQ(source.assured(i), rule.AssuredSet());
    }
  }
}

TEST(RuleDictImageTest, LookupMissReturnsEmptyRange) {
  TravelExample example;
  for (const bool mapped : kStorages) {
    const auto dict = testing::ImageIn(mapped, example.rules, "miss.dict");
    ASSERT_NE(dict, nullptr);
    const std::unique_ptr<RuleDictHandle> handle = dict->MakeHandle();
    const ValueId unseen = example.pool->Intern("value-no-rule-mentions");
    EXPECT_TRUE(handle->source().Lookup(0, unseen).empty());
    EXPECT_TRUE(handle->source().Lookup(0, kNullValue).empty());
  }
}

TEST(RuleDictImageTest, EmptyEvidenceRulesAreListedNotIndexed) {
  RandomRuleUniverse universe;
  RuleSet rules(universe.schema, universe.pool);
  FixingRule rule;
  rule.target = 1;
  rule.negative_patterns = {universe.Value(1, 0)};
  rule.fact = universe.Value(1, 1);
  rules.Add(rule);
  for (const bool mapped : kStorages) {
    const auto dict = testing::ImageIn(mapped, rules, "empty_ev.dict");
    ASSERT_NE(dict, nullptr);
    const std::unique_ptr<RuleDictHandle> handle = dict->MakeHandle();
    const RuleSource& source = handle->source();
    ASSERT_EQ(source.empty_evidence_rules().size(), 1u);
    EXPECT_EQ(source.empty_evidence_rules()[0], 0u);
    EXPECT_EQ(dict->header().num_keys, 0u);
    EXPECT_EQ(source.evidence_count(0), 0u);
  }
}

// MatchesFlat is FixingRule::Matches over the image: cRepair and
// lRepair both verify candidates through it, so it must agree with the
// paper's definition on every rule and every row.
TEST(RuleDictImageTest, MatchesFlatAgreesWithMatchesOnNoisyData) {
  for (NoisyDataset (*make)() : {NoisyHosp, NoisyUis}) {
    const NoisyDataset data = make();
    ASSERT_GT(data.rules.size(), 0u);
    for (const bool mapped : kStorages) {
      const auto dict = testing::ImageIn(mapped, data.rules, "flat.dict");
      ASSERT_NE(dict, nullptr);
      const std::unique_ptr<RuleDictHandle> handle = dict->MakeHandle();
      size_t matches = 0;
      for (size_t r = 0; r < data.dirty.num_rows(); ++r) {
        const TupleRef t = data.dirty.row(r);
        for (uint32_t i = 0; i < data.rules.size(); ++i) {
          const bool want = data.rules.rule(i).Matches(t);
          ASSERT_EQ(handle->source().MatchesFlat(i, t), want)
              << StorageName(mapped) << " row " << r << " rule " << i;
          matches += want;
        }
      }
      EXPECT_GT(matches, 0u) << StorageName(mapped);
    }
  }
}

// The file CompileRuleDict writes is the heap image, byte for byte.
TEST(RuleDictImageTest, CompiledFileIsTheHeapImage) {
  TravelExample example;
  const NoisyDataset hosp = NoisyHosp();
  for (const RuleSet* rules : {&std::as_const(example.rules), &hosp.rules}) {
    const std::string path = TestPath("image.dict");
    ASSERT_TRUE(CompileRuleDict(*rules, path).ok());
    const auto dict = RuleDict::CompileOrDie(*rules);
    EXPECT_FALSE(dict->mapped());
    EXPECT_EQ(ReadFileBytes(path), std::string(dict->image()));
  }
}

TEST(RuleDictImageTest, SharedImageDrivesMultipleRepairers) {
  // One compile, many engines: repairers sharing an image behave
  // exactly like privately compiled ones.
  TravelExample example;
  for (const bool mapped : kStorages) {
    const auto dict = testing::ImageIn(mapped, example.rules, "shared.dict");
    ASSERT_NE(dict, nullptr);
    const std::unique_ptr<RuleDictHandle> ha = dict->MakeHandle();
    const std::unique_ptr<RuleDictHandle> hb = dict->MakeHandle();
    FastRepairer a(ha->source());
    FastRepairer b(hb->source());
    Table table_a = example.dirty;
    Table table_b = example.dirty;
    a.RepairTable(&table_a);
    b.RepairTable(&table_b);
    for (size_t r = 0; r < example.clean.num_rows(); ++r) {
      EXPECT_EQ(table_a.row(r), example.clean.row(r));
      EXPECT_EQ(table_b.row(r), example.clean.row(r));
    }
  }
}

TEST(RuleDictImageTest, IndexBuildCounterTicksOncePerCompile) {
  if (!kMetricsEnabled) {
    GTEST_SKIP() << "built with FIXREP_DISABLE_METRICS";
  }
  TravelExample example;
  auto& registry = MetricsRegistry::Global();
  const uint64_t before =
      registry.GetCounter("fixrep.lrepair.index_builds")->Value();
  const auto dict = RuleDict::CompileOrDie(example.rules);
  const std::unique_ptr<RuleDictHandle> ha = dict->MakeHandle();
  const std::unique_ptr<RuleDictHandle> hb = dict->MakeHandle();
  FastRepairer a(ha->source());
  FastRepairer b(hb->source());
  Table copy = example.dirty;
  a.RepairTable(&copy);
  EXPECT_EQ(registry.GetCounter("fixrep.lrepair.index_builds")->Value(),
            before + 1);
}

// The storage half of the byte-identity bar: the reference repairs over
// an image compiled in memory (FastRepairer(&rules)), the other side
// over the same image opened from its file.
TEST(RuleDictRepair, MatchesInMemoryIndexOnSmallCorpus) {
  SmallCorpus corpus;
  const std::string path = TestPath("repair_small.dict");
  ASSERT_TRUE(CompileRuleDict(corpus.rules, path).ok());
  auto dict = RuleDict::Open(path);
  ASSERT_TRUE(dict.ok()) << dict.status();
  ASSERT_TRUE((*dict)->Bind(*corpus.schema, corpus.pool).ok());

  Table expected(corpus.schema, corpus.pool);
  auto val = [&](const char* s) { return corpus.pool->Intern(s); };
  expected.AppendRow({val("China"), val("Hongkong"), val("Wuhan")});
  expected.AppendRow({val("Cnina"), val("Shanghai"), val("Wuhan")});
  expected.AppendRow({val("Canada"), val("Toronto"), kNullValue});
  expected.AppendRow({val("France"), val("Paris"), val("Lyon")});
  Table actual = expected;

  FastRepairer reference(&corpus.rules);
  reference.RepairTable(&expected);

  auto handle = (*dict)->MakeHandle();
  FastRepairer via_dict(handle->source());
  via_dict.RepairTable(&actual);

  EXPECT_TRUE(actual.RowsEqual(expected));
  // Row 0: capital fixed. Row 1: empty-evidence rule fixes country, then
  // the cascade fixes capital.
  EXPECT_EQ(expected.CellString(0, 1), "Beijing");
  EXPECT_EQ(expected.CellString(1, 0), "China");
  EXPECT_EQ(expected.CellString(1, 1), "Beijing");
  EXPECT_EQ(via_dict.stats().cells_changed, reference.stats().cells_changed);
  EXPECT_EQ(via_dict.stats().rule_applications,
            reference.stats().rule_applications);
  EXPECT_EQ(via_dict.stats().per_rule_applications,
            reference.stats().per_rule_applications);
}

// The property half of the byte-identity acceptance bar: random rule
// sets and random tuples (including values no rule mentions and values
// interned after compilation), chased through an image compiled in
// memory and the same image mapped from its file, must agree cell for
// cell — under both engines, with and without a memo.
TEST(RuleDictRepair, PropertyByteIdenticalToInMemoryIndex) {
  Rng rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    RandomRuleUniverse universe;
    RuleSet rules(universe.schema, universe.pool);
    const size_t num_rules = 1 + rng.Uniform(12);
    for (size_t i = 0; i < num_rules; ++i) {
      rules.Add(universe.RandomRule(&rng));
    }

    const std::string path =
        TestPath("property_" + std::to_string(trial) + ".dict");
    ASSERT_TRUE(CompileRuleDict(rules, path).ok());
    auto dict = RuleDict::Open(path);
    ASSERT_TRUE(dict.ok()) << dict.status();
    ASSERT_TRUE((*dict)->Bind(*universe.schema, universe.pool).ok());

    Table base(universe.schema, universe.pool);
    for (int r = 0; r < 60; ++r) {
      Tuple t = universe.RandomTuple(&rng);
      if (rng.Bernoulli(0.2)) {
        // A live value the dictionary has never seen.
        t[rng.Uniform(universe.schema->arity())] =
            universe.pool->Intern("unseen-" + std::to_string(trial) + "-" +
                                  std::to_string(r));
      }
      base.AppendRow(t);
    }

    auto handle = (*dict)->MakeHandle();

    {
      Table expected = base;
      Table actual = base;
      FastRepairer reference(&rules);
      FastRepairer via_dict(handle->source());
      reference.RepairTable(&expected);
      via_dict.RepairTable(&actual);
      EXPECT_TRUE(actual.RowsEqual(expected)) << "lrepair trial " << trial;
      EXPECT_EQ(via_dict.stats().per_rule_applications,
                reference.stats().per_rule_applications);
    }
    {
      Table expected = base;
      Table actual = base;
      ChaseRepairer reference(&rules);
      ChaseRepairer via_dict(handle->source());
      reference.RepairTable(&expected);
      via_dict.RepairTable(&actual);
      EXPECT_TRUE(actual.RowsEqual(expected)) << "crepair trial " << trial;
    }
    {
      Table expected = base;
      Table actual = base;
      FastRepairer reference(&rules);
      MemoCache reference_memo(1024);
      reference.set_memo(&reference_memo);
      FastRepairer via_dict(handle->source());
      MemoCache dict_memo(1024);
      via_dict.set_memo(&dict_memo);
      reference.RepairTable(&expected);
      via_dict.RepairTable(&actual);
      EXPECT_TRUE(actual.RowsEqual(expected)) << "memo trial " << trial;
    }
  }
}

TEST(RuleDictHandleTest, HotCacheServesDuplicateProbes) {
  SmallCorpus corpus;
  const std::string path = TestPath("hot_cache.dict");
  ASSERT_TRUE(CompileRuleDict(corpus.rules, path).ok());
  auto dict = RuleDict::Open(path);
  ASSERT_TRUE(dict.ok()) << dict.status();
  ASSERT_TRUE((*dict)->Bind(*corpus.schema, corpus.pool).ok());

  Table table(corpus.schema, corpus.pool);
  auto val = [&](const char* s) { return corpus.pool->Intern(s); };
  for (int i = 0; i < 200; ++i) {
    table.AppendRow({val("China"), val("Hongkong"), val("Wuhan")});
  }

  auto handle = (*dict)->MakeHandle();
  FastRepairer repairer(handle->source());
  repairer.RepairTable(&table);
  EXPECT_EQ(table.CellString(0, 1), "Beijing");

  const PostingCache* cache = handle->source().posting_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->hits(), 0u);
  // Duplicate rows resolve the same few keys over and over: far more
  // hits than distinct-key misses.
  EXPECT_GT(cache->hits(), cache->misses());
}

TEST(RuleDictHandleTest, HandlesAreIndependentScratch) {
  SmallCorpus corpus;
  const std::string path = TestPath("handles.dict");
  ASSERT_TRUE(CompileRuleDict(corpus.rules, path).ok());
  auto dict = RuleDict::Open(path);
  ASSERT_TRUE(dict.ok()) << dict.status();
  ASSERT_TRUE((*dict)->Bind(*corpus.schema, corpus.pool).ok());

  auto h1 = (*dict)->MakeHandle();
  auto h2 = (*dict)->MakeHandle();
  EXPECT_NE(h1->source().posting_cache(), h2->source().posting_cache());
  EXPECT_NE(h1->source().translator(), h2->source().translator());
}

// The translator memo grows as live ids climb past it. Growing it must
// keep every translation: a translator that meets ids in ascending order
// (many growths) and one that meets the top id first (one growth) agree
// with each other, with themselves after growing, and with the image's
// own string lookup.
TEST(RuleDictHandleTest, TranslationsSurviveMemoGrowth) {
  SmallCorpus corpus;
  for (int i = 0; i < 5000; ++i) {
    corpus.pool->Intern("filler" + std::to_string(i));
  }
  const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(corpus.rules);
  const auto live = static_cast<ValueId>(corpus.pool->size());
  auto ascending = dict->MakeHandle();
  auto top_first = dict->MakeHandle();
  ValueTranslator* many = ascending->source().translator();
  ValueTranslator* once = top_first->source().translator();

  std::vector<ValueId> first;
  for (ValueId id = 0; id < live; ++id) first.push_back(many->Translate(id));
  EXPECT_EQ(once->Translate(live - 1), first.back());
  size_t absent = 0;
  for (ValueId id = 0; id < live; ++id) {
    const auto i = static_cast<size_t>(id);
    EXPECT_EQ(many->Translate(id), first[i]) << id;
    EXPECT_EQ(once->Translate(id), first[i]) << id;
    EXPECT_EQ(first[i], dict->FindString(corpus.pool->GetString(id))) << id;
    absent += first[i] == kAbsentValue;
  }
  EXPECT_EQ(absent, 5000u);  // the fillers; every rule constant resolves
  EXPECT_EQ(many->Translate(kNullValue), kNullValue);
}

// ---------------------------------------------------------------------
// Robustness: every invalid file shape is refused with a Status.

class RuleDictRobustness : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("robust.dict");
    ASSERT_TRUE(CompileRuleDict(corpus_.rules, path_).ok());
    bytes_ = ReadFileBytes(path_);
    std::memcpy(&header_, bytes_.data(), sizeof header_);
  }

  // Writes `bytes` to a scratch path and expects Open to refuse it.
  void ExpectRefused(const std::string& bytes, const std::string& tag) {
    const std::string path = TestPath("robust_" + tag + ".dict");
    WriteFileBytes(path, bytes);
    auto dict = RuleDict::Open(path);
    ASSERT_FALSE(dict.ok()) << tag;
    EXPECT_EQ(dict.status().code(), StatusCode::kMalformedInput) << tag;
  }

  // Re-seals the header CRC after a deliberate header edit, so the test
  // reaches the check behind the CRC gate.
  static void ResealCrc(std::string* bytes) {
    RuleDictHeader h;
    std::memcpy(&h, bytes->data(), sizeof h);
    h.header_crc = 0;
    h.header_crc = Crc32(&h, sizeof h);
    std::memcpy(bytes->data(), &h, sizeof h);
  }

  SmallCorpus corpus_;
  std::string path_;
  std::string bytes_;
  RuleDictHeader header_;
};

TEST_F(RuleDictRobustness, RefusesMissingFile) {
  auto dict = RuleDict::Open(TestPath("does_not_exist.dict"));
  ASSERT_FALSE(dict.ok());
  EXPECT_EQ(dict.status().code(), StatusCode::kIoError);
}

TEST_F(RuleDictRobustness, RefusesBadMagic) {
  std::string bytes = bytes_;
  bytes[0] = 'X';
  ExpectRefused(bytes, "magic");
}

TEST_F(RuleDictRobustness, RefusesUnknownVersion) {
  std::string bytes = bytes_;
  RuleDictHeader h;
  std::memcpy(&h, bytes.data(), sizeof h);
  h.version = kRuleDictFormatVersion + 7;
  std::memcpy(bytes.data(), &h, sizeof h);
  ResealCrc(&bytes);
  const std::string path = TestPath("robust_version.dict");
  WriteFileBytes(path, bytes);
  auto dict = RuleDict::Open(path);
  ASSERT_FALSE(dict.ok());
  EXPECT_EQ(dict.status().code(), StatusCode::kMalformedInput);
  EXPECT_NE(dict.status().message().find("version"), std::string::npos);
}

TEST_F(RuleDictRobustness, RefusesHeaderCorruption) {
  // Flip one byte in every header field region; each flip must be caught
  // (by the CRC unless the flip hits the CRC field itself, in which case
  // the CRC no longer matches the rest — same refusal).
  for (size_t offset = 8; offset < sizeof(RuleDictHeader); offset += 13) {
    std::string bytes = bytes_;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
    ExpectRefused(bytes, "hdr" + std::to_string(offset));
  }
}

TEST_F(RuleDictRobustness, RefusesTruncationAtEverySectionBoundary) {
  // Shorter than the header at all.
  ExpectRefused(bytes_.substr(0, sizeof(RuleDictHeader) / 2), "tiny");
  // Exactly the header, no sections.
  ExpectRefused(bytes_.substr(0, sizeof(RuleDictHeader)), "header_only");
  for (size_t i = 0; i < kNumDictSections; ++i) {
    // Cut at the start of the section, mid-section, and one byte short
    // of its end.
    const uint64_t off = header_.section_offset[i];
    const uint64_t end = off + header_.section_bytes[i];
    ExpectRefused(bytes_.substr(0, off), "sec" + std::to_string(i) + "_start");
    if (header_.section_bytes[i] > 1) {
      ExpectRefused(bytes_.substr(0, off + header_.section_bytes[i] / 2),
                    "sec" + std::to_string(i) + "_mid");
      ExpectRefused(bytes_.substr(0, end - 1),
                    "sec" + std::to_string(i) + "_short");
    }
  }
}

TEST_F(RuleDictRobustness, RefusesTrailingGarbage) {
  ExpectRefused(bytes_ + std::string(64, '\0'), "padded");
}

TEST_F(RuleDictRobustness, RefusesSectionBoundsOutsideFile) {
  std::string bytes = bytes_;
  RuleDictHeader h;
  std::memcpy(&h, bytes.data(), sizeof h);
  h.section_offset[static_cast<size_t>(DictSection::kPostings)] =
      h.file_size + 8;
  std::memcpy(bytes.data(), &h, sizeof h);
  ResealCrc(&bytes);
  ExpectRefused(bytes, "oob_section");
}

TEST_F(RuleDictRobustness, RefusesSectionSizeDisagreement) {
  std::string bytes = bytes_;
  RuleDictHeader h;
  std::memcpy(&h, bytes.data(), sizeof h);
  h.num_rules += 1;  // every per-rule section size now disagrees
  std::memcpy(bytes.data(), &h, sizeof h);
  ResealCrc(&bytes);
  ExpectRefused(bytes, "size_disagree");
}

TEST_F(RuleDictRobustness, RefusesNonPowerOfTwoTables) {
  std::string bytes = bytes_;
  RuleDictHeader h;
  std::memcpy(&h, bytes.data(), sizeof h);
  h.slot_count -= 1;
  std::memcpy(bytes.data(), &h, sizeof h);
  ResealCrc(&bytes);
  ExpectRefused(bytes, "pow2");
}

TEST(RuleDictEmpty, CompilesAndOpensEmptyRuleSet) {
  auto pool = std::make_shared<ValuePool>();
  auto schema = std::make_shared<Schema>(
      "R", std::vector<std::string>{"a", "b"});
  RuleSet rules(schema, pool);
  const std::string path = TestPath("empty.dict");
  ASSERT_TRUE(CompileRuleDict(rules, path).ok());
  auto dict = RuleDict::Open(path);
  ASSERT_TRUE(dict.ok()) << dict.status();
  EXPECT_EQ((*dict)->num_rules(), 0u);
  ASSERT_TRUE((*dict)->Bind(*schema, pool).ok());
  auto handle = (*dict)->MakeHandle();
  Table table(schema, pool);
  table.AppendRow({pool->Intern("x"), pool->Intern("y")});
  FastRepairer repairer(handle->source());
  repairer.RepairTable(&table);
  EXPECT_EQ(repairer.stats().cells_changed, 0u);
}

// A WAL written under one dictionary must refuse to resume under
// another: the header carries the rule-set fingerprint and the
// dictionary stamps the same identity, so ValidateWalHeader catches a
// swapped dictionary file just like swapped in-memory rules.
TEST(RuleDictResume, WalRefusesAMismatchedDictionary) {
  SmallCorpus corpus;
  const std::string dict_a = TestPath("resume_a.dict");
  ASSERT_TRUE(CompileRuleDict(corpus.rules, dict_a).ok());
  RuleSet fewer(corpus.schema, corpus.pool);
  fewer.Add(corpus.rules.rule(0));
  const std::string dict_b = TestPath("resume_b.dict");
  ASSERT_TRUE(CompileRuleDict(fewer, dict_b).ok());

  const std::string dirty_csv =
      "country,capital,city\n"
      "China,Shanghai,s\n"
      "Canada,Toronto,t\n"
      "Cnina,Hongkong,h\n"
      "China,Beijing,b\n";
  const std::string wal = TestPath("resume.wal");

  const auto run = [&](const std::string& dict_path,
                       bool resume) -> StatusOr<std::string> {
    std::istringstream in(dirty_csv);
    auto pool = std::make_shared<ValuePool>();
    StatusOr<CsvChunkReader> reader =
        CsvChunkReader::Open(in, "stream", pool, {});
    if (!reader.ok()) return reader.status();
    StatusOr<std::unique_ptr<RuleDict>> dict = RuleDict::Open(dict_path);
    if (!dict.ok()) return dict.status();
    FIXREP_RETURN_IF_ERROR((*dict)->Bind(*reader->schema(), pool));
    RepairConfig config;
    config.chunk_rows = 2;
    config.wal_path = wal;
    config.resume = resume;
    RepairSession session(dict->get(), config);
    std::ostringstream out;
    StreamInput input(&reader.value(), config.chunk_rows);
    StatusOr<RepairReport> report = session.RepairStream(&input, out);
    if (!report.ok()) return report.status();
    return out.str();
  };

  const StatusOr<std::string> full = run(dict_a, false);
  ASSERT_TRUE(full.ok()) << full.status();
  // dict_b fingerprints differently: refused before any replay.
  const StatusOr<std::string> wrong = run(dict_b, true);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kMalformedInput);
  // The matching dictionary replays the complete log to the same bytes.
  const StatusOr<std::string> same = run(dict_a, true);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_EQ(*same, *full);
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace fixrep
