// Deterministic mutation fuzzers for the two rule-file parsers a daemon
// reaches from a path it is sent (`reload`, serve/registry.cc): the rule
// text format (ParseRulesFileLenient, rules/rule_io.h) and the compiled
// dictionary (RuleDict::Open and Bind, rules/rule_dict.h). Valid files
// built from the travel, hosp and uis rule sets are mutated with a
// seeded PRNG and loaded three ways: parsed directly, opened and bound
// directly, and loaded as a tenant (TenantRegistry::Load), which also
// builds the tenant's schema from the file or the spec.
//
// Properties: nothing crashes or over-allocates; every refusal is a
// kMalformedInput Status; a text file the strict parse accepts parses to
// the same rules under skip and quarantine, and the lenient policies
// agree with each other on what they keep and how much they drop; a
// refused tenant load keeps the previous snapshot.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/random.h"
#include "common/status.h"
#include "common/wal.h"
#include "datagen/hosp.h"
#include "datagen/noise.h"
#include "datagen/travel.h"
#include "datagen/uis.h"
#include "rulegen/rulegen.h"
#include "rules/fingerprint.h"
#include "rules/rule_dict.h"
#include "rules/rule_io.h"
#include "serve/registry.h"
#include "testing_util.h"

namespace fixrep {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string JoinAttrs(const Schema& schema) {
  std::string out;
  for (const std::string& name : schema.attribute_names()) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out;
}

// One rule set to mutate: its schema, its text and its dictionary bytes.
struct Corpus {
  std::string name;
  std::shared_ptr<const Schema> schema;
  std::string text;
  std::string dict;
};

Corpus MakeCorpus(const std::string& name, const RuleSet& rules) {
  Corpus corpus{name, rules.schema_ptr(), SerializeRules(rules), {}};
  const std::string path = testing::ProcessTempPath(name + ".dict");
  EXPECT_TRUE(CompileRuleDict(rules, path).ok()) << name;
  corpus.dict = ReadFileBytes(path);
  return corpus;
}

RuleSet Generated(GeneratedData data, size_t max_rules) {
  Table dirty = data.clean;
  InjectNoise(&dirty, ConstraintAttributes(*data.schema, data.fds),
              NoiseOptions{});
  RuleGenOptions options;
  options.max_rules = max_rules;
  return GenerateRules(data.clean, dirty, data.fds, options);
}

const std::vector<Corpus>& Corpora() {
  static const std::vector<Corpus>* corpora = [] {
    auto* all = new std::vector<Corpus>();
    all->push_back(MakeCorpus("travel", TravelExample().rules));
    HospOptions hosp;
    hosp.rows = 400;
    hosp.num_hospitals = 30;
    all->push_back(MakeCorpus("hosp", Generated(GenerateHosp(hosp), 40)));
    UisOptions uis;
    uis.rows = 200;
    all->push_back(MakeCorpus("uis", Generated(GenerateUis(uis), 30)));
    return all;
  }();
  return *corpora;
}

constexpr int kTextCases = 1500;
constexpr int kDictCases = 1500;

// --- rule text ---

// Line- and token-level edits in the format's own vocabulary, plus the
// byte-level CSV mutator's structural bytes.
std::string MutateRuleText(const std::string& base, Rng* rng) {
  static const char* const kTokens[] = {
      "RULE\n", "END\n", "IF ", "WRONG ", "THEN ", " IN ", " | ", "|",
      " = ",    "=",     "#",   "\n",     " ",     "\t",   "\r",  "",
  };
  std::vector<std::string> lines;
  std::istringstream in(base);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const size_t edits = 1 + rng->Uniform(4);
  for (size_t e = 0; e < edits && !lines.empty(); ++e) {
    const size_t at = rng->Uniform(lines.size());
    std::string& line = lines[at];
    switch (rng->Uniform(7)) {
      case 0:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     rng->Pick(lines));
        break;
      case 2:
        std::swap(line, lines[rng->Uniform(lines.size())]);
        break;
      case 3:  // a token dropped into the line
        line.insert(rng->Uniform(line.size() + 1),
                    kTokens[rng->Uniform(std::size(kTokens))]);
        break;
      case 4:  // a stretch of the line replaced by a token
        line.replace(rng->Uniform(line.size() + 1), rng->Uniform(6),
                     kTokens[rng->Uniform(std::size(kTokens))]);
        break;
      case 5: {  // a line's tail swapped for another line's
        const std::string& other = rng->Pick(lines);
        line = line.substr(0, rng->Uniform(line.size() + 1)) +
               other.substr(rng->Uniform(other.size() + 1));
        break;
      }
      default:
        line.resize(rng->Uniform(line.size() + 1));
        break;
    }
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  if (rng->Bernoulli(0.2)) out = testing::MutateCsvBytes(out, rng);
  return out;
}

struct TextParse {
  Status status = Status::Ok();
  uint64_t fingerprint = 0;
  size_t rules = 0;
  uint64_t dropped = 0;  // fixrep.quarantine.rules delta
  size_t diagnostics = 0;
};

TextParse ParseText(const Corpus& corpus, const std::string& path,
                    OnErrorPolicy policy) {
  Counter* dropped = MetricsRegistry::Global().GetCounter(
      "fixrep.quarantine.rules");
  const uint64_t before = dropped->Value();
  VectorQuarantineSink sink;
  RuleParseOptions options;
  options.on_error = policy;
  options.quarantine = &sink;
  StatusOr<RuleSet> rules = ParseRulesFileLenient(
      path, corpus.schema, std::make_shared<ValuePool>(), options);
  TextParse parse;
  parse.dropped = dropped->Value() - before;
  parse.diagnostics = sink.diagnostics().size();
  if (!rules.ok()) {
    parse.status = rules.status();
    return parse;
  }
  parse.fingerprint = RuleSetFingerprint(rules.value());
  parse.rules = rules->size();
  return parse;
}

TEST(RulesFuzz, MutatedRuleTextParsesOrFailsCleanly) {
  Rng rng(0x7E47);
  const std::string path = testing::TestTempPath("rules.txt");
  size_t accepted = 0;
  size_t refused = 0;
  for (int round = 0; round < kTextCases; ++round) {
    const Corpus& corpus = Corpora()[round % Corpora().size()];
    SCOPED_TRACE(corpus.name + " round " + std::to_string(round));
    const std::string text =
        round < 3 ? corpus.text : MutateRuleText(corpus.text, &rng);
    WriteFileBytes(path, text);
    const TextParse strict = ParseText(corpus, path, OnErrorPolicy::kAbort);
    const TextParse skip = ParseText(corpus, path, OnErrorPolicy::kSkip);
    const TextParse quarantine =
        ParseText(corpus, path, OnErrorPolicy::kQuarantine);
    ASSERT_TRUE(skip.status.ok()) << skip.status;
    ASSERT_TRUE(quarantine.status.ok()) << quarantine.status;
    EXPECT_EQ(skip.fingerprint, quarantine.fingerprint);
    EXPECT_EQ(skip.rules, quarantine.rules);
    EXPECT_EQ(skip.dropped, quarantine.dropped);
    EXPECT_EQ(quarantine.diagnostics, quarantine.dropped);
    EXPECT_EQ(skip.diagnostics, 0u);
    if (strict.status.ok()) {
      ++accepted;
      EXPECT_EQ(strict.fingerprint, skip.fingerprint);
      EXPECT_EQ(strict.rules, skip.rules);
      EXPECT_EQ(skip.dropped, 0u);
    } else {
      ++refused;
      EXPECT_EQ(strict.status.code(), StatusCode::kMalformedInput)
          << strict.status;
      EXPECT_GT(skip.dropped, 0u) << strict.status;
    }
    if (round < 3) {
      EXPECT_TRUE(strict.status.ok()) << strict.status;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, size_t{kTextCases} / 20);
  EXPECT_GT(refused, size_t{kTextCases} / 2);
}

// --- compiled dictionaries ---

RuleDictHeader ReadHeader(const std::string& bytes) {
  RuleDictHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  return header;
}

// Writes `header` over the front of `bytes` with its CRC resealed, so a
// mutation reaches the checks behind the CRC gate.
void SealHeader(RuleDictHeader header, std::string* bytes) {
  header.header_crc = 0;
  header.header_crc = Crc32(&header, sizeof header);
  std::memcpy(bytes->data(), &header, sizeof header);
}

// A u64 likely to sit on a boundary a validator must check.
uint64_t InterestingCount(Rng* rng, uint64_t near) {
  switch (rng->Uniform(6)) {
    case 0:
      return rng->Next();
    case 1:
      return std::numeric_limits<uint64_t>::max() - rng->Uniform(8);
    case 2:  // wraps to a small size once multiplied by 4 or 8
      return (uint64_t{1} << (61 + rng->Uniform(3))) + rng->Uniform(4);
    case 3:
      return 0xFFFFFFFFu - rng->Uniform(4);
    default:
      return near + rng->Uniform(9) - 4;
  }
}

// Header fields, section tables, section bytes and the file length, each
// with the header CRC resealed or (for a raw byte flip) left as is.
std::string MutateDict(const std::string& base, Rng* rng) {
  std::string bytes = base;
  RuleDictHeader h = ReadHeader(bytes);
  switch (rng->Uniform(9)) {
    case 0: {  // raw flips anywhere, CRC untouched
      const uint64_t flips = 1 + rng->Uniform(4);
      for (uint64_t i = 0; i < flips; ++i) {
        bytes[rng->Uniform(bytes.size())] ^=
            static_cast<char>(1u << rng->Uniform(8));
      }
      return bytes;
    }
    case 1: {  // a count field
      switch (rng->Uniform(8)) {
        case 0:
          h.num_rules =
              static_cast<uint32_t>(InterestingCount(rng, h.num_rules));
          break;
        case 1:
          h.arity = static_cast<uint32_t>(InterestingCount(rng, h.arity));
          break;
        case 2:
          h.num_postings = InterestingCount(rng, h.num_postings);
          break;
        case 3:
          h.num_strings =
              static_cast<uint32_t>(InterestingCount(rng, h.num_strings));
          break;
        case 4:
          h.num_ev_pairs = InterestingCount(rng, h.num_ev_pairs);
          break;
        case 5:
          h.num_neg_values = InterestingCount(rng, h.num_neg_values);
          break;
        case 6:
          h.slot_count = static_cast<uint32_t>(
              uint64_t{1} << rng->Uniform(33));
          break;
        default:
          h.string_hash_count = static_cast<uint32_t>(
              uint64_t{1} << rng->Uniform(33));
          break;
      }
      break;
    }
    case 2: {  // a section's offset or size
      const size_t i = rng->Uniform(kNumDictSections);
      if (rng->Bernoulli(0.5)) {
        h.section_offset[i] = InterestingCount(rng, h.section_offset[i]);
      } else {
        h.section_bytes[i] = InterestingCount(rng, h.section_bytes[i]);
      }
      break;
    }
    case 3:  // the file cut short or padded, the header agreeing
      bytes.resize(sizeof(RuleDictHeader) +
                   rng->Uniform(bytes.size() + 64 - sizeof(RuleDictHeader)));
      h.file_size = bytes.size();
      break;
    default: {  // bytes inside one section: a u32 word or a flip
      const size_t i = rng->Uniform(kNumDictSections);
      if (h.section_bytes[i] == 0) break;
      const uint64_t at = h.section_offset[i] +
                          rng->Uniform(h.section_bytes[i]) / 4 * 4;
      if (at + 4 <= bytes.size()) {
        uint32_t word = 0;
        std::memcpy(&word, bytes.data() + at, 4);
        word = static_cast<uint32_t>(InterestingCount(rng, word));
        std::memcpy(bytes.data() + at, &word, 4);
      }
      break;
    }
  }
  SealHeader(h, &bytes);
  return bytes;
}

TEST(RulesFuzz, MutatedDictionariesOpenAndBindOrFailCleanly) {
  Rng rng(0xD1C7);
  const std::string path = testing::TestTempPath("rules.dict");
  size_t opened = 0;
  size_t refused = 0;
  for (int round = 0; round < kDictCases; ++round) {
    const Corpus& corpus = Corpora()[round % Corpora().size()];
    SCOPED_TRACE(corpus.name + " round " + std::to_string(round));
    WriteFileBytes(path, round < 3 ? corpus.dict
                                   : MutateDict(corpus.dict, &rng));
    StatusOr<std::unique_ptr<RuleDict>> dict = RuleDict::Open(path);
    if (!dict.ok()) {
      EXPECT_EQ(dict.status().code(), StatusCode::kMalformedInput)
          << dict.status();
      ++refused;
      continue;
    }
    // What a tenant load does next: a schema from the compiled names,
    // then Bind, which resolves every rule's fact string.
    const Schema schema("data", (*dict)->attribute_names());
    const Status bound = (*dict)->Bind(schema, std::make_shared<ValuePool>());
    if (!bound.ok()) {
      EXPECT_EQ(bound.code(), StatusCode::kMalformedInput) << bound;
      ++refused;
      continue;
    }
    ++opened;
    if (round < 3) {
      EXPECT_EQ((*dict)->attribute_names(), corpus.schema->attribute_names());
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(opened, size_t{kDictCases} / 10);
  EXPECT_GT(refused, size_t{kDictCases} / 4);
}

// --- tenant loads: what `reload` runs on a path it is sent ---

TEST(RulesFuzz, TenantReloadsOfMutatedFilesFailCleanly) {
  Rng rng(0x7E2A);
  serve::TenantRegistry registry;
  const std::string text_path = testing::TestTempPath("tenant.txt");
  const std::string dict_path = testing::TestTempPath("tenant.dict");
  const Corpus& travel = Corpora()[0];
  WriteFileBytes(text_path, travel.text);
  ASSERT_TRUE(
      registry.Load("t", text_path + "@" + JoinAttrs(*travel.schema)).ok());
  uint64_t generation = 1;
  for (int round = 0; round < 600; ++round) {
    const Corpus& corpus = Corpora()[round % Corpora().size()];
    SCOPED_TRACE(corpus.name + " round " + std::to_string(round));
    std::string spec;
    if (rng.Bernoulli(0.5)) {
      WriteFileBytes(dict_path, MutateDict(corpus.dict, &rng));
      spec = dict_path;
    } else {
      WriteFileBytes(text_path, MutateRuleText(corpus.text, &rng));
      std::string attrs = JoinAttrs(*corpus.schema);
      if (rng.Bernoulli(0.3)) attrs = testing::MutateCsvBytes(attrs, &rng);
      spec = text_path + "@" + attrs;
    }
    const Status loaded = registry.Load("t", spec);
    if (loaded.ok()) {
      ++generation;
    } else {
      EXPECT_EQ(loaded.code(), StatusCode::kMalformedInput) << loaded;
    }
    ASSERT_NE(registry.Find("t"), nullptr);
    EXPECT_EQ(registry.Find("t")->generation(), generation);
    if (HasFailure()) return;
  }
  EXPECT_GT(generation, 10u);
}

// Regressions the fuzzers found: each crashed a tenant load with a
// CHECK failure (std::abort in the daemon) instead of returning a Status.
TEST(RulesFuzz, DuplicateAttributeNamesAreRefused) {
  const Corpus& travel = Corpora()[0];
  const std::string text_path = testing::TestTempPath("dup.txt");
  WriteFileBytes(text_path, travel.text);
  serve::TenantRegistry registry;
  const Status spec = registry.Load("t", text_path + "@name,name");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.code(), StatusCode::kMalformedInput);
  EXPECT_NE(spec.message().find("duplicate attribute"), std::string::npos)
      << spec;

  // A dictionary whose attribute-name section repeats a name: a later
  // name overwritten by an earlier one of the same length.
  std::string bytes = travel.dict;
  const RuleDictHeader h = ReadHeader(bytes);
  uint64_t at =
      h.section_offset[static_cast<size_t>(DictSection::kAttrNames)] + 4;
  std::vector<std::pair<uint64_t, uint32_t>> names;  // bytes at, length
  for (uint32_t i = 0; i < h.arity; ++i) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + at, 4);
    names.emplace_back(at + 4, len);
    at += 4 + len;
  }
  size_t first = 0;
  size_t second = 0;
  for (size_t i = 0; i < names.size() && second == 0; ++i) {
    for (size_t j = i + 1; j < names.size() && second == 0; ++j) {
      if (names[i].second == names[j].second) {
        first = i;
        second = j;
      }
    }
  }
  ASSERT_GT(second, 0u);
  std::memcpy(bytes.data() + names[second].first,
              bytes.data() + names[first].first, names[first].second);
  WriteFileBytes(testing::TestTempPath("dup.dict"), bytes);
  StatusOr<std::unique_ptr<RuleDict>> dict =
      RuleDict::Open(testing::TestTempPath("dup.dict"));
  ASSERT_FALSE(dict.ok());
  EXPECT_EQ(dict.status().code(), StatusCode::kMalformedInput);
  const Status load = registry.Load("t", testing::TestTempPath("dup.dict"));
  EXPECT_EQ(load.code(), StatusCode::kMalformedInput) << load;
}

TEST(RulesFuzz, FactOutsideTheStringPoolIsRefusedAtBind) {
  const Corpus& travel = Corpora()[0];
  const RuleDictHeader h = ReadHeader(travel.dict);
  const uint64_t facts =
      h.section_offset[static_cast<size_t>(DictSection::kFactStr)];
  for (const uint32_t id : {h.num_strings, 0xFFFFFFFFu}) {
    std::string bytes = travel.dict;
    std::memcpy(bytes.data() + facts, &id, sizeof id);  // rule 0's fact
    const std::string path = testing::TestTempPath("fact.dict");
    WriteFileBytes(path, bytes);
    StatusOr<std::unique_ptr<RuleDict>> dict = RuleDict::Open(path);
    ASSERT_TRUE(dict.ok()) << dict.status();  // Open reads no section
    const Schema schema("data", (*dict)->attribute_names());
    const Status bound = (*dict)->Bind(schema, std::make_shared<ValuePool>());
    EXPECT_EQ(bound.code(), StatusCode::kMalformedInput) << bound;
    serve::TenantRegistry registry;
    EXPECT_EQ(registry.Load("t", path).code(), StatusCode::kMalformedInput);
  }
}

}  // namespace
}  // namespace fixrep
