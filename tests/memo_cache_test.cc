#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/travel.h"
#include "repair/lrepair.h"
#include "repair/memo_cache.h"
#include "repair/driver.h"
#include "testing_util.h"

namespace fixrep {
namespace {

// A random table over the universe's value space, duplicate-prone: rows
// are drawn from a small set of distinct tuples so the memo actually
// hits.
Table RandomTable(testing::RandomRuleUniverse* universe, Rng* rng,
                  size_t rows, size_t distinct) {
  Table table(universe->schema, universe->pool);
  std::vector<Tuple> shapes;
  for (size_t d = 0; d < distinct; ++d) {
    Tuple t;
    for (AttrId a = 0; a < static_cast<AttrId>(universe->schema->arity());
         ++a) {
      t.push_back(universe->Value(
          a, static_cast<int>(rng->Uniform(universe->values_per_attribute))));
    }
    shapes.push_back(std::move(t));
  }
  for (size_t r = 0; r < rows; ++r) {
    table.AppendRow(shapes[rng->Uniform(shapes.size())]);
  }
  return table;
}

void ExpectTablesEqual(const Table& a, const Table& b, const char* label) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_EQ(a.row(r), b.row(r)) << label << " row " << r;
  }
}

TEST(MemoCacheTest, ReplayMatchesChaseOnTravelExample) {
  TravelExample example;
  Table plain = example.dirty;
  FastRepairer baseline(&example.rules);
  baseline.RepairTable(&plain);

  Table memoized = example.dirty;
  // Repair the table twice over so the second pass is all memo hits.
  for (size_t copy = 0; copy < 2; ++copy) {
    Table round = example.dirty;
    FastRepairer repairer(&example.rules);
    MemoCache memo;
    repairer.set_memo(&memo);
    repairer.RepairTable(&round);
    memoized = round;
  }
  ExpectTablesEqual(memoized, plain, "travel");
}

TEST(MemoCacheTest, FuzzedTablesBitIdenticalSerial) {
  Rng rng(0x5eed);
  for (int round = 0; round < 15; ++round) {
    testing::RandomRuleUniverse universe;
    RuleSet rules(universe.schema, universe.pool);
    const size_t num_rules = 1 + rng.Uniform(40);
    for (size_t i = 0; i < num_rules; ++i) {
      rules.Add(universe.RandomRule(&rng));
    }
    const Table dirty =
        RandomTable(&universe, &rng, 200, 1 + rng.Uniform(30));

    Table plain = dirty;
    FastRepairer baseline(&rules);
    baseline.RepairTable(&plain);

    Table memoized = dirty;
    FastRepairer repairer(&rules);
    MemoCache memo;
    repairer.set_memo(&memo);
    repairer.RepairTable(&memoized);

    ExpectTablesEqual(memoized, plain, "fuzz");
    // Outcome stats replay exactly; only chase internals may differ.
    EXPECT_EQ(repairer.stats().tuples_examined,
              baseline.stats().tuples_examined);
    EXPECT_EQ(repairer.stats().tuples_changed,
              baseline.stats().tuples_changed);
    EXPECT_EQ(repairer.stats().cells_changed,
              baseline.stats().cells_changed);
    EXPECT_EQ(repairer.stats().rule_applications,
              baseline.stats().rule_applications);
    EXPECT_EQ(repairer.stats().per_rule_applications,
              baseline.stats().per_rule_applications);
    EXPECT_GT(memo.stats().hits, 0u);  // duplicate-prone by construction
  }
}

TEST(MemoCacheTest, FuzzedTablesBitIdenticalParallel) {
  Rng rng(0xfade);
  for (int round = 0; round < 8; ++round) {
    testing::RandomRuleUniverse universe;
    RuleSet rules(universe.schema, universe.pool);
    const size_t num_rules = 1 + rng.Uniform(40);
    for (size_t i = 0; i < num_rules; ++i) {
      rules.Add(universe.RandomRule(&rng));
    }
    const Table dirty =
        RandomTable(&universe, &rng, 500, 1 + rng.Uniform(40));

    Table plain = dirty;
    FastRepairer baseline(&rules);
    baseline.RepairTable(&plain);

    const std::unique_ptr<RuleDict> dict = RuleDict::CompileOrDie(rules);
    for (const bool use_memo : {false, true}) {
      Table parallel = dirty;
      const RepairStats stats =
          RepairDriver(*dict, {.threads = 4, .use_memo = use_memo})
              .Run(&parallel);
      ExpectTablesEqual(parallel, plain,
                        use_memo ? "parallel+memo" : "parallel");
      EXPECT_EQ(stats.cells_changed, baseline.stats().cells_changed);
      EXPECT_EQ(stats.per_rule_applications,
                baseline.stats().per_rule_applications);
    }
  }
}

TEST(MemoCacheTest, EvictionUnderPressureStaysCorrect) {
  Rng rng(0xcafe);
  testing::RandomRuleUniverse universe;
  RuleSet rules(universe.schema, universe.pool);
  for (size_t i = 0; i < 30; ++i) rules.Add(universe.RandomRule(&rng));
  // Many more distinct tuples than slots: the direct-mapped cache must
  // constantly evict yet never corrupt an answer.
  const Table dirty = RandomTable(&universe, &rng, 400, 200);

  Table plain = dirty;
  FastRepairer baseline(&rules);
  baseline.RepairTable(&plain);

  Table memoized = dirty;
  FastRepairer repairer(&rules);
  MemoCache memo(/*capacity=*/4);
  repairer.set_memo(&memo);
  repairer.RepairTable(&memoized);

  ExpectTablesEqual(memoized, plain, "eviction");
  EXPECT_EQ(memo.capacity(), 4u);
  EXPECT_GT(memo.stats().evictions, 0u);
  EXPECT_EQ(memo.stats().insertions, memo.stats().misses);
}

TEST(MemoCacheTest, CapacityOneForcesCollisionsWithoutWrongReplays) {
  // Every distinct tuple maps to the single slot, so any hash-only
  // shortcut would replay the wrong write set; the full-key compare must
  // keep the output exact.
  Rng rng(0xd00d);
  testing::RandomRuleUniverse universe;
  RuleSet rules(universe.schema, universe.pool);
  for (size_t i = 0; i < 25; ++i) rules.Add(universe.RandomRule(&rng));
  const Table dirty = RandomTable(&universe, &rng, 300, 50);

  Table plain = dirty;
  FastRepairer baseline(&rules);
  baseline.RepairTable(&plain);

  Table memoized = dirty;
  FastRepairer repairer(&rules);
  MemoCache memo(/*capacity=*/1);
  repairer.set_memo(&memo);
  repairer.RepairTable(&memoized);
  ExpectTablesEqual(memoized, plain, "capacity-one");
}

TEST(MemoCacheTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MemoCache(1).capacity(), 1u);
  EXPECT_EQ(MemoCache(3).capacity(), 4u);
  EXPECT_EQ(MemoCache(64).capacity(), 64u);
  EXPECT_EQ(MemoCache(65).capacity(), 128u);
}

TEST(MemoCacheTest, HitRequiresExactTuple) {
  MemoCache memo(8);
  const Tuple a = {1, 2, 3};
  const Tuple b = {1, 2, 4};
  const uint64_t ha = MemoCache::HashTuple(a);
  const std::vector<MemoCache::Write> writes = {{2, 9, 0}};
  memo.Insert(ha, a, writes);
  ASSERT_TRUE(memo.Find(ha, a).has_value());
  EXPECT_FALSE(memo.Find(MemoCache::HashTuple(b), b).has_value());
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().misses, 1u);
}

// The direct-mapped cache as the simplest thing that could work: one
// optional (hash, key, writes) per slot, overwritten on insert.
class ReferenceMemo {
 public:
  explicit ReferenceMemo(size_t capacity) : slots_(capacity) {}

  const std::vector<MemoCache::Write>* Find(uint64_t hash, const Tuple& t) {
    const auto& slot = slots_[hash % slots_.size()];
    if (slot.has_value() && slot->hash == hash && slot->key == t) {
      ++stats.hits;
      return &slot->writes;
    }
    ++stats.misses;
    return nullptr;
  }

  void Insert(uint64_t hash, const Tuple& key,
              const std::vector<MemoCache::Write>& writes) {
    auto& slot = slots_[hash % slots_.size()];
    if (slot.has_value() && !(slot->hash == hash && slot->key == key)) {
      ++stats.evictions;
    }
    slot = Entry{hash, key, writes};
    ++stats.insertions;
  }

  MemoCache::Stats stats;

 private:
  struct Entry {
    uint64_t hash;
    Tuple key;
    std::vector<MemoCache::Write> writes;
  };
  std::vector<std::optional<Entry>> slots_;
};

void ExpectSameWrites(std::span<const MemoCache::Write> got,
                      const std::vector<MemoCache::Write>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].attr, want[i].attr) << context << " #" << i;
    EXPECT_EQ(got[i].value, want[i].value) << context << " #" << i;
    EXPECT_EQ(got[i].rule, want[i].rule) << context << " #" << i;
  }
}

TEST(MemoCacheTest, ArenaMatchesReferenceModel) {
  // A small key space over few slots, so slots are evicted, re-filled
  // with the same key and with longer and shorter write lists; write
  // lists may exceed the arity to push the region-growth path.
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{8}, size_t{64}}) {
    Rng rng(0x5eed + capacity);
    MemoCache memo(capacity);
    ReferenceMemo model(capacity);
    for (size_t op = 0; op < 4000; ++op) {
      const std::string context =
          "capacity " + std::to_string(capacity) + " op " + std::to_string(op);
      Tuple key(4);
      for (ValueId& cell : key) cell = static_cast<ValueId>(rng.Uniform(3));
      const uint64_t hash = MemoCache::HashTuple(key);
      if (rng.Uniform(2) == 0) {
        const auto got = memo.Find(hash, key);
        const std::vector<MemoCache::Write>* want = model.Find(hash, key);
        ASSERT_EQ(got.has_value(), want != nullptr) << context;
        if (want != nullptr) ExpectSameWrites(*got, *want, context);
      } else {
        std::vector<MemoCache::Write> writes(rng.Uniform(7));
        for (MemoCache::Write& w : writes) {
          w = {static_cast<AttrId>(rng.Uniform(4)),
               static_cast<ValueId>(rng.Uniform(100)),
               static_cast<uint32_t>(rng.Uniform(50))};
        }
        memo.Insert(hash, key, writes);
        model.Insert(hash, key, writes);
      }
    }
    EXPECT_EQ(memo.stats().hits, model.stats.hits) << capacity;
    EXPECT_EQ(memo.stats().misses, model.stats.misses) << capacity;
    EXPECT_EQ(memo.stats().insertions, model.stats.insertions) << capacity;
    EXPECT_EQ(memo.stats().evictions, model.stats.evictions) << capacity;
    EXPECT_GT(memo.stats().hits, 0u) << capacity;
  }
}

TEST(MemoCacheTest, SlotWriteListGrowsAfterReuse) {
  MemoCache memo(1);
  const Tuple a = {1, 2, 3};
  const uint64_t ha = MemoCache::HashTuple(a);
  const std::vector<MemoCache::Write> one = {{0, 7, 1}};
  const std::vector<MemoCache::Write> three = {{0, 7, 1}, {1, 8, 2}, {2, 9, 3}};
  memo.Insert(ha, a, one);
  memo.Insert(ha, a, three);
  ExpectSameWrites(*memo.Find(ha, a), three, "grown");
  // Shrinking reuses the grown region in place.
  const size_t grown_bytes = memo.arena_bytes();
  memo.Insert(ha, a, one);
  ExpectSameWrites(*memo.Find(ha, a), one, "shrunk");
  EXPECT_EQ(memo.arena_bytes(), grown_bytes);
  EXPECT_EQ(memo.stats().evictions, 0u);
}

TEST(MemoCacheTest, EvictionReusesKeyStorage) {
  MemoCache memo(1);
  const std::vector<MemoCache::Write> writes = {{1, 5, 0}, {2, 6, 1}};
  Rng rng(0xe71c);
  memo.Insert(7, Tuple{0, 0, 0}, writes);
  const size_t first_bytes = memo.arena_bytes();
  for (int i = 1; i <= 100; ++i) {
    const Tuple key = {i, static_cast<ValueId>(rng.Uniform(9)), -i};
    const uint64_t hash = MemoCache::HashTuple(key);
    memo.Insert(hash, key, writes);
    ExpectSameWrites(*memo.Find(hash, key), writes, "key " + std::to_string(i));
  }
  // One slot, one key's cells and one write region, however many keys
  // passed through it.
  EXPECT_EQ(memo.arena_bytes(), first_bytes);
  EXPECT_EQ(memo.stats().evictions, 100u);
  EXPECT_FALSE(memo.Find(7, Tuple{0, 0, 0}).has_value());
}

TEST(MemoCacheTest, CapacityAboveMaximumIsRefused) {
  EXPECT_EQ(MemoCache(MemoCache::kMaxCapacity).capacity(),
            MemoCache::kMaxCapacity);
  EXPECT_DEATH(MemoCache(MemoCache::kMaxCapacity + 1), "memo capacity");
  EXPECT_DEATH(MemoCache(~size_t{0}), "memo capacity");
}

}  // namespace
}  // namespace fixrep
