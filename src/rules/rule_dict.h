#ifndef FIXREP_RULES_RULE_DICT_H_
#define FIXREP_RULES_RULE_DICT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relation/schema.h"
#include "relation/value_pool.h"
#include "rules/rule_set.h"
#include "rules/rule_source.h"

namespace fixrep {

// A compiled rule set in the FXRDICT layout (docs/rules.md): an
// open-addressing slot table, CSR postings, per-rule side arrays and CSR
// evidence/negative patterns, next to a private interned string pool and
// a string hash table, behind a CRC-checked header. It is the one rule
// backend every engine chases against, in one of two storages holding
// the same bytes:
//  * a heap image: RuleDict::Compile builds it from a RuleSet in this
//    process (text rules, RepairSession, the RuleSet constructors of the
//    repairers, text-rule daemon tenants);
//  * a mapped file: CompileRuleDict writes that image through AtomicFile
//    (`fixrep_cli rules compile`), and RuleDict::Open maps it O(1)
//    (magic/version/CRC/size validation only — no section is read until
//    a probe faults its pages in), so a million-rule corpus costs
//    open-time milliseconds and only the pages the workload touches.
// Both storages are validated and wired by the same code.
//
// Value spaces. The image's pattern values are ids into its own string
// pool, fixed at compile time — a run's live ValuePool knows nothing
// about them. Each worker handle carries a translator (live id -> image
// id, resolved through the image's string hash and memoized) and a
// direct-mapped PostingCache, so dup-heavy workloads probe the slot
// table about once per distinct (attr, value) pair. Facts flow the
// other way: Bind() pre-interns every distinct fact string into the
// live pool — serially, respecting the pool's single-writer rule — so
// RuleSource::fact() hands the chase live ids it can write into tuples.
//
// Integrity: Open refuses a wrong magic, an unknown version, a header
// CRC mismatch, a file whose size differs from the header's recorded
// size (truncation at any section boundary), section bounds that fall
// outside the file, or a repeated attribute name — always with Status,
// never UB. Bind refuses a schema whose attribute names differ from the
// compiled ones, and a fact whose string lies outside the string pool;
// the other sections' contents are trusted once the header passes. The
// header carries RuleSetFingerprint of the compiled set, so WAL resume
// validation is the same for every storage.

inline constexpr uint32_t kRuleDictFormatVersion = 1;
inline constexpr char kRuleDictMagic[8] = {'F', 'X', 'R', 'D',
                                           'I', 'C', 'T', '\0'};

// Section order inside the file. Every section is 8-byte aligned.
enum class DictSection : uint32_t {
  kAttrNames = 0,      // u32 count, then per name u32 length + bytes
  kSlots,              // RuleSlot[slot_count], keys in dict value space
  kPostings,           // u32[num_postings], ascending rule ids per key
  kEvidenceCount,      // u32[num_rules]
  kTarget,             // i32[num_rules]
  kFactStr,            // u32[num_rules], dict string ids
  kAssuredBits,        // u64[num_rules]
  kEvOffsets,          // u32[num_rules + 1]
  kEvAttrs,            // i32[num_ev_pairs]
  kEvValues,           // i32[num_ev_pairs], dict string ids
  kNegOffsets,         // u32[num_rules + 1]
  kNegValues,          // i32[num_neg_values], sorted per rule by dict id
  kEmptyEvidence,      // u32[num_empty_evidence]
  kEvidenceAttrList,   // i32[num_evidence_attrs]
  kStringOffsets,      // u32[num_strings + 1], byte offsets into kStringBytes
  kStringBytes,        // concatenated string bytes
  kStringHash,         // u32[string_hash_count], dict id or UINT32_MAX
};
inline constexpr size_t kNumDictSections = 17;

const char* DictSectionName(DictSection section);

// The fixed-size on-disk header. Plain bytes at offset 0; `header_crc`
// is Crc32 over the struct with that field zeroed.
struct RuleDictHeader {
  char magic[8];
  uint32_t version = 0;
  uint32_t header_crc = 0;
  uint64_t file_size = 0;
  uint64_t fingerprint = 0;
  uint64_t mentioned_bits = 0;
  uint32_t num_rules = 0;
  uint32_t arity = 0;
  uint32_t slot_count = 0;  // power of two
  uint32_t num_keys = 0;
  uint64_t num_postings = 0;
  uint32_t num_strings = 0;
  uint32_t string_hash_count = 0;  // power of two
  uint64_t num_ev_pairs = 0;
  uint64_t num_neg_values = 0;
  uint32_t num_empty_evidence = 0;
  uint32_t num_evidence_attrs = 0;
  uint64_t section_offset[kNumDictSections] = {};
  uint64_t section_bytes[kNumDictSections] = {};
};

// Compiles `rules` into a dictionary file at `path`: the bytes of
// RuleDict::Compile's heap image, published through AtomicFile.
// Deterministic: the same rule set produces the same bytes (dict string
// ids are assigned in first-appearance order over the rule scan; slot
// and hash tables are filled in sorted key order).
Status CompileRuleDict(const RuleSet& rules, const std::string& path);

class RuleDict;

// One worker's binding: translator memo + hot posting cache + the view.
// Made serially from a bound dictionary, which must outlive it.
class RuleDictHandle {
 public:
  explicit RuleDictHandle(const RuleDict& dict);

  RuleDictHandle(const RuleDictHandle&) = delete;
  RuleDictHandle& operator=(const RuleDictHandle&) = delete;

  const RuleSource& source() const { return source_; }

 private:
  ValueTranslator translator_;
  PostingCache cache_;
  RuleSource source_;
};

class RuleDict {
 public:
  // Builds the image of `rules` in one heap buffer and binds it to the
  // set's schema and pool. Records the lrepair.index_build span and
  // ticks fixrep.lrepair.index_builds once. kMalformedInput when the set
  // exceeds the format's 32-bit capacity.
  static StatusOr<std::unique_ptr<RuleDict>> Compile(const RuleSet& rules);
  // Compile for callers with no Status path (the RuleSet constructors
  // of the repairers): CHECK-fails where Compile returns an error.
  static std::unique_ptr<RuleDict> CompileOrDie(const RuleSet& rules);

  // Maps the file and validates its header; O(1) in corpus size. The
  // mapping lives until destruction.
  static StatusOr<std::unique_ptr<RuleDict>> Open(const std::string& path);

  ~RuleDict();
  RuleDict(const RuleDict&) = delete;
  RuleDict& operator=(const RuleDict&) = delete;

  // Attaches the dictionary to a live run: validates `schema` against
  // the compiled attribute names and pre-interns every distinct fact
  // string into `pool` (serial — call before any worker exists; the
  // pool's single-writer interning rule is why this is not lazy; a fact
  // the pool already holds is only looked up). Idempotent for the same
  // pool; rebinding to a different pool redoes the fact interning.
  Status Bind(const Schema& schema, std::shared_ptr<ValuePool> pool);
  bool bound() const { return pool_ != nullptr; }

  size_t num_rules() const { return header_->num_rules; }
  size_t arity() const { return header_->arity; }
  // Union of every rule's evidence and target attributes — the
  // attribute closure the chase can ever read or write (streaming
  // column pruning, shard routing).
  AttrSet mentioned_attrs() const {
    return AttrSet::FromBits(header_->mentioned_bits);
  }
  // RuleSetFingerprint of the compiled set (rules/fingerprint.h) — the
  // identity WAL headers journal.
  uint64_t fingerprint() const { return header_->fingerprint; }
  // One worker's view + scratch. Requires a successful Bind; call
  // serially.
  std::unique_ptr<RuleDictHandle> MakeHandle() const;

  // Introspection (rules inspect, benches, tests).
  const RuleDictHeader& header() const { return *header_; }
  // The mapped file's path; empty for a heap image.
  const std::string& path() const { return path_; }
  bool mapped() const { return heap_ == nullptr; }
  // The image bytes, header first: a heap image's buffer or the mapping.
  std::string_view image() const {
    return {reinterpret_cast<const char*>(header_), image_size_};
  }
  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }

  // The dictionary string for a dict id (a view into the image).
  std::string_view DictString(uint32_t id) const;
  // Probes the image's string hash: dict id of `s`, or kAbsentValue.
  ValueId FindString(std::string_view s) const;

 private:
  friend class RuleDictHandle;
  friend class ValueTranslator;

  RuleDict() = default;

  Status ValidateAndWire();
  const uint8_t* SectionPtr(DictSection section) const {
    return reinterpret_cast<const uint8_t*>(header_) +
           header_->section_offset[static_cast<size_t>(section)];
  }

  std::string path_;
  std::unique_ptr<uint64_t[]> heap_;  // a heap image's storage
  size_t image_size_ = 0;
  const RuleDictHeader* header_ = nullptr;  // image start (heap or mapping)

  // Wired section pointers (into the image).
  const RuleSlot* slots_ = nullptr;
  const uint32_t* postings_ = nullptr;
  const uint32_t* evidence_count_ = nullptr;
  const AttrId* target_ = nullptr;
  const uint32_t* fact_str_ = nullptr;
  const uint64_t* assured_bits_ = nullptr;
  const uint32_t* ev_offsets_ = nullptr;
  const AttrId* ev_attrs_ = nullptr;
  const ValueId* ev_values_ = nullptr;
  const uint32_t* neg_offsets_ = nullptr;
  const ValueId* neg_values_ = nullptr;
  const uint32_t* empty_evidence_ = nullptr;
  const AttrId* evidence_attr_list_ = nullptr;
  const uint32_t* string_offsets_ = nullptr;
  const char* string_bytes_ = nullptr;
  const uint32_t* string_hash_ = nullptr;

  std::vector<std::string> attribute_names_;

  // Bind products.
  std::shared_ptr<ValuePool> pool_;
  std::vector<ValueId> live_fact_;  // per rule, live value space
};

}  // namespace fixrep

#endif  // FIXREP_RULES_RULE_DICT_H_
