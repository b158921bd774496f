#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/string_util.h"

namespace fixrep {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "", "yz"};
  EXPECT_EQ(Join(parts, ","), "x,,yz");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(TrimTest, StripsAsciiWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("RULE x", "RULE"));
  EXPECT_FALSE(StartsWith("RU", "RULE"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(EditDistanceTest, KnownDistances) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("Ottawa", "Ottawo"), 1u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("Beijing", "Shanghai"),
            EditDistance("Shanghai", "Beijing"));
}

TEST(MakeTypoTest, AlwaysDiffersAndIsClose) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::string original = "Springfield";
    const std::string typo = MakeTypo(original, &rng);
    EXPECT_NE(typo, original);
    EXPECT_LE(EditDistance(typo, original), 2u);
  }
}

TEST(MakeTypoTest, HandlesShortStrings) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(MakeTypo("a", &rng), "a");
    EXPECT_EQ(MakeTypo("", &rng).size(), 1u);
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(7), 7u);
  }
  // All residues should appear.
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t r = rng.Zipf(10, 1.0);
    ASSERT_LT(r, 10u);
    ++counts[r];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
  // Every rank occurs.
  for (const int c : counts) EXPECT_GT(c, 0);
}

TEST(RngTest, ZipfZeroExponentIsRoughlyUniform) {
  Rng rng(23);
  std::vector<int> counts(5, 0);
  const int n = 25000;
  for (int i = 0; i < n; ++i) ++counts[rng.Zipf(5, 0.0)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.03);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, PickReturnsMember) {
  Rng rng(31);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.Pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Crc32cTest, MatchesKnownAnswer) {
  // The CRC-32C (Castagnoli) check value: crc32c("123456789") ==
  // 0xE3069283 — distinct from the WAL's IEEE CRC-32 of the same input.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cSoftware("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, SeedChainsIncrementalComputation) {
  const std::string text = "chained crc32c over two blocks";
  const uint32_t whole = Crc32c(text.data(), text.size());
  const uint32_t head = Crc32c(text.data(), 7);
  EXPECT_EQ(Crc32c(text.data() + 7, text.size() - 7, head), whole);
  const uint32_t soft_head = Crc32cSoftware(text.data(), 7);
  EXPECT_EQ(Crc32cSoftware(text.data() + 7, text.size() - 7, soft_head),
            whole);
}

TEST(Crc32cTest, HardwareAndSoftwareAgree) {
  // Random buffers at every alignment and awkward length, so the
  // hardware path's u8 prologue/epilogue and u64 main loop are all
  // exercised against the slice-by-8 reference. On machines without
  // SSE4.2 both sides take the software path and this degenerates to a
  // self-check.
  Rng rng(37);
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next() & 0xFF);
  for (size_t align = 0; align < 9; ++align) {
    for (const size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                             size_t{9}, size_t{63}, size_t{64}, size_t{65},
                             size_t{1023}, size_t{4096}}) {
      const unsigned char* p = buf.data() + align;
      EXPECT_EQ(Crc32c(p, len), Crc32cSoftware(p, len))
          << "align=" << align << " len=" << len;
    }
  }
}

TEST(Crc32cTest, ThreeStreamKernelMatchesSoftwareAtEveryLengthAndOffset) {
  // Every length from 0 to 1024 at offsets 0-15 and several seeds: the
  // short-block three-way loop starts at 768 bytes, so this crosses its
  // threshold, the join, and the single-chain tail at every remainder.
  Rng rng(41);
  std::vector<unsigned char> buf(1024 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next() & 0xFF);
  for (const uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0x9E3779B9u}) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= 1024; ++len) {
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(Crc32c(p, len, seed), Crc32cSoftware(p, len, seed))
            << "seed=" << seed << " offset=" << offset << " len=" << len;
      }
    }
  }
}

TEST(Crc32cTest, ThreeStreamKernelMatchesSoftwareOnABatchSizedBuffer) {
  // A 4.4 MB buffer (a perfbench-sized CSV batch) runs the long-block
  // loop hundreds of times; chained in uneven pieces, the seed must
  // carry through every join.
  Rng rng(43);
  std::vector<unsigned char> buf(4400000 + 3);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next() & 0xFF);
  const uint32_t whole = Crc32cSoftware(buf.data() + 3, buf.size() - 3);
  EXPECT_EQ(Crc32c(buf.data() + 3, buf.size() - 3), whole);
  for (const size_t cut : {size_t{1}, size_t{767}, size_t{24576},
                           size_t{24577}, size_t{2200001}}) {
    const uint32_t head = Crc32c(buf.data() + 3, cut);
    EXPECT_EQ(Crc32c(buf.data() + 3 + cut, buf.size() - 3 - cut, head),
              whole)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace fixrep
