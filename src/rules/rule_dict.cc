#include "rules/rule_dict.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/trace.h"
#include "common/wal.h"
#include "rules/fingerprint.h"

namespace fixrep {

namespace {

// The header is written and CRC'd as raw bytes, so its layout must be
// exactly its fields with no padding holes.
static_assert(sizeof(RuleDictHeader) ==
                  8 + 4 + 4 + 8 + 8 + 8 + 4 * 4 + 8 + 4 + 4 + 8 + 8 + 4 + 4 +
                      kNumDictSections * 8 * 2,
              "RuleDictHeader must be packed");

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvHash(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

size_t PowerOfTwoAtLeast(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

uint64_t AlignUp8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

// Everything CompileRuleDict lays out before any byte is written. All
// pattern values here are *dict* string ids (first-appearance order).
struct DictLayout {
  std::vector<std::string_view> strings;  // dict id -> bytes
  std::vector<RuleSlot> slots;
  std::vector<uint32_t> postings;
  std::vector<uint32_t> evidence_count;
  std::vector<AttrId> target;
  std::vector<uint32_t> fact_str;
  std::vector<uint64_t> assured_bits;
  std::vector<uint32_t> ev_offsets;
  std::vector<AttrId> ev_attrs;
  std::vector<ValueId> ev_values;
  std::vector<uint32_t> neg_offsets;
  std::vector<ValueId> neg_values;
  std::vector<uint32_t> empty_evidence;
  std::vector<AttrId> evidence_attr_list;
  std::vector<uint32_t> string_offsets;
  std::vector<uint32_t> string_hash;
  AttrSet mentioned_attrs;
};

Status BuildLayout(const RuleSet& rules, DictLayout* out) {
  const size_t n = rules.size();
  const size_t arity = rules.schema().arity();
  const ValuePool& pool = rules.pool();

  // Dict string ids, assigned in first-appearance order over the rule
  // scan (evidence values, then negatives, then fact, per rule) — the
  // source of the format's byte determinism. The pool interns each
  // string once, so deduplicating by live id deduplicates by string.
  std::unordered_map<ValueId, uint32_t> interned;
  auto dict_id = [&](ValueId live) {
    auto [it, fresh] = interned.try_emplace(
        live, static_cast<uint32_t>(out->strings.size()));
    if (fresh) out->strings.push_back(pool.GetString(live));
    return static_cast<ValueId>(it->second);
  };

  out->evidence_count.resize(n);
  out->target.resize(n);
  out->fact_str.resize(n);
  out->assured_bits.resize(n);
  out->ev_offsets.reserve(n + 1);
  out->neg_offsets.reserve(n + 1);

  std::unordered_map<uint64_t, std::vector<uint32_t>> gathered;
  uint64_t total_postings = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const FixingRule& rule = rules.rule(i);
    out->evidence_count[i] =
        static_cast<uint32_t>(rule.evidence_attrs.size());
    out->target[i] = rule.target;
    out->assured_bits[i] = rule.AssuredSet().bits();
    out->mentioned_attrs.UnionWith(rule.AssuredSet());
    out->ev_offsets.push_back(static_cast<uint32_t>(out->ev_attrs.size()));
    out->neg_offsets.push_back(static_cast<uint32_t>(out->neg_values.size()));
    for (size_t e = 0; e < rule.evidence_attrs.size(); ++e) {
      const ValueId v = dict_id(rule.evidence_values[e]);
      out->ev_attrs.push_back(rule.evidence_attrs[e]);
      out->ev_values.push_back(v);
      gathered[RuleSource::PackKey(rule.evidence_attrs[e], v)].push_back(i);
      ++total_postings;
    }
    // negative_patterns is sorted by live id; the dict-space slice must
    // sort by dict id so MatchesFlat can binary-search it.
    const size_t neg_begin = out->neg_values.size();
    for (const ValueId v : rule.negative_patterns) {
      out->neg_values.push_back(dict_id(v));
    }
    std::sort(out->neg_values.begin() + neg_begin, out->neg_values.end());
    out->fact_str[i] = static_cast<uint32_t>(dict_id(rule.fact));
    if (rule.evidence_attrs.empty()) out->empty_evidence.push_back(i);
  }
  out->ev_offsets.push_back(static_cast<uint32_t>(out->ev_attrs.size()));
  out->neg_offsets.push_back(static_cast<uint32_t>(out->neg_values.size()));
  if (total_postings > UINT32_MAX || out->strings.size() >= UINT32_MAX) {
    return Status::MalformedInput(
        "rule set exceeds the dictionary format's 32-bit capacity");
  }

  uint64_t ev_attr_mask = 0;
  for (const AttrId a : out->ev_attrs) ev_attr_mask |= uint64_t{1} << a;
  for (AttrId a = 0; a < static_cast<AttrId>(arity); ++a) {
    if (ev_attr_mask & (uint64_t{1} << a)) {
      out->evidence_attr_list.push_back(a);
    }
  }

  // Slot table, filled in sorted-key order (the gather map's iteration
  // order is not deterministic; the file's bytes must be).
  std::vector<uint64_t> keys;
  keys.reserve(gathered.size());
  for (const auto& [key, ids] : gathered) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  const size_t capacity = PowerOfTwoAtLeast(gathered.size() * 2);
  const size_t mask = capacity - 1;
  out->slots.assign(capacity, RuleSlot{});
  out->postings.reserve(total_postings);
  for (const uint64_t key : keys) {
    size_t slot = SplitMix64(key) & mask;
    while (out->slots[slot].key != kEmptyRuleKey) slot = (slot + 1) & mask;
    out->slots[slot].key = key;
    out->slots[slot].begin = static_cast<uint32_t>(out->postings.size());
    const std::vector<uint32_t>& ids = gathered[key];
    out->postings.insert(out->postings.end(), ids.begin(), ids.end());
    out->slots[slot].end = static_cast<uint32_t>(out->postings.size());
  }

  // String pool + hash, in dict-id order (already deterministic).
  out->string_offsets.reserve(out->strings.size() + 1);
  uint32_t byte_offset = 0;
  for (const std::string_view s : out->strings) {
    out->string_offsets.push_back(byte_offset);
    byte_offset += static_cast<uint32_t>(s.size());
  }
  out->string_offsets.push_back(byte_offset);
  const size_t hash_capacity = PowerOfTwoAtLeast(out->strings.size() * 2);
  const size_t hash_mask = hash_capacity - 1;
  out->string_hash.assign(hash_capacity, UINT32_MAX);
  for (uint32_t id = 0; id < out->strings.size(); ++id) {
    size_t slot = FnvHash(out->strings[id]) & hash_mask;
    while (out->string_hash[slot] != UINT32_MAX) {
      slot = (slot + 1) & hash_mask;
    }
    out->string_hash[slot] = id;
  }
  return Status::Ok();
}

}  // namespace

const char* DictSectionName(DictSection section) {
  switch (section) {
    case DictSection::kAttrNames: return "attr_names";
    case DictSection::kSlots: return "slots";
    case DictSection::kPostings: return "postings";
    case DictSection::kEvidenceCount: return "evidence_count";
    case DictSection::kTarget: return "target";
    case DictSection::kFactStr: return "fact_str";
    case DictSection::kAssuredBits: return "assured_bits";
    case DictSection::kEvOffsets: return "ev_offsets";
    case DictSection::kEvAttrs: return "ev_attrs";
    case DictSection::kEvValues: return "ev_values";
    case DictSection::kNegOffsets: return "neg_offsets";
    case DictSection::kNegValues: return "neg_values";
    case DictSection::kEmptyEvidence: return "empty_evidence";
    case DictSection::kEvidenceAttrList: return "evidence_attr_list";
    case DictSection::kStringOffsets: return "string_offsets";
    case DictSection::kStringBytes: return "string_bytes";
    case DictSection::kStringHash: return "string_hash";
  }
  return "unknown";
}

namespace {

// Lays out the image of `rules` and hands it to `write` piece by piece,
// in file order: the header first (it records the image size), then
// every section followed by its zero padding to 8 bytes. A file and a
// heap buffer filled from the same pieces hold the same bytes.
Status EmitImage(const RuleSet& rules,
                 const std::function<void(const void*, size_t)>& write) {
  FIXREP_CHECK_LT(rules.size(), size_t{1} << 31);
  FIXREP_CHECK_LE(rules.schema().arity(), size_t{64});

  DictLayout layout;
  FIXREP_RETURN_IF_ERROR(BuildLayout(rules, &layout));

  // Attribute-name blob: u32 count, then u32 length + bytes per name.
  std::vector<char> attr_blob;
  {
    auto put_u32 = [&](uint32_t v) {
      const char* p = reinterpret_cast<const char*>(&v);
      attr_blob.insert(attr_blob.end(), p, p + sizeof v);
    };
    const std::vector<std::string>& names =
        rules.schema().attribute_names();
    put_u32(static_cast<uint32_t>(names.size()));
    for (const std::string& name : names) {
      put_u32(static_cast<uint32_t>(name.size()));
      attr_blob.insert(attr_blob.end(), name.begin(), name.end());
    }
  }

  std::string string_bytes_blob;
  for (const std::string_view s : layout.strings) string_bytes_blob += s;

  struct SectionData {
    const void* data;
    uint64_t bytes;
  };
  auto vec_bytes = [](const auto& v) {
    return SectionData{v.data(),
                       v.size() * sizeof(typename std::decay_t<
                                         decltype(v)>::value_type)};
  };
  const SectionData sections[kNumDictSections] = {
      {attr_blob.data(), attr_blob.size()},
      vec_bytes(layout.slots),
      vec_bytes(layout.postings),
      vec_bytes(layout.evidence_count),
      vec_bytes(layout.target),
      vec_bytes(layout.fact_str),
      vec_bytes(layout.assured_bits),
      vec_bytes(layout.ev_offsets),
      vec_bytes(layout.ev_attrs),
      vec_bytes(layout.ev_values),
      vec_bytes(layout.neg_offsets),
      vec_bytes(layout.neg_values),
      vec_bytes(layout.empty_evidence),
      vec_bytes(layout.evidence_attr_list),
      vec_bytes(layout.string_offsets),
      {string_bytes_blob.data(), string_bytes_blob.size()},
      vec_bytes(layout.string_hash),
  };

  RuleDictHeader header{};
  std::memcpy(header.magic, kRuleDictMagic, sizeof header.magic);
  header.version = kRuleDictFormatVersion;
  header.fingerprint = RuleSetFingerprint(rules);
  header.mentioned_bits = layout.mentioned_attrs.bits();
  header.num_rules = static_cast<uint32_t>(rules.size());
  header.arity = static_cast<uint32_t>(rules.schema().arity());
  header.slot_count = static_cast<uint32_t>(layout.slots.size());
  header.num_keys = static_cast<uint32_t>(
      std::count_if(layout.slots.begin(), layout.slots.end(),
                    [](const RuleSlot& s) { return s.key != kEmptyRuleKey; }));
  header.num_postings = layout.postings.size();
  header.num_strings = static_cast<uint32_t>(layout.strings.size());
  header.string_hash_count = static_cast<uint32_t>(layout.string_hash.size());
  header.num_ev_pairs = layout.ev_attrs.size();
  header.num_neg_values = layout.neg_values.size();
  header.num_empty_evidence =
      static_cast<uint32_t>(layout.empty_evidence.size());
  header.num_evidence_attrs =
      static_cast<uint32_t>(layout.evidence_attr_list.size());

  uint64_t offset = sizeof(RuleDictHeader);
  for (size_t i = 0; i < kNumDictSections; ++i) {
    header.section_offset[i] = offset;
    header.section_bytes[i] = sections[i].bytes;
    offset = AlignUp8(offset + sections[i].bytes);
  }
  header.file_size = offset;
  header.header_crc = 0;
  header.header_crc = Crc32(&header, sizeof header);

  write(&header, sizeof header);
  static constexpr char kPad[8] = {};
  for (size_t i = 0; i < kNumDictSections; ++i) {
    write(sections[i].data, sections[i].bytes);
    write(kPad, AlignUp8(sections[i].bytes) - sections[i].bytes);
  }
  return Status::Ok();
}

// A heap image: header and sections, 8-aligned, in one buffer.
struct HeapImage {
  std::unique_ptr<uint64_t[]> words;
  size_t bytes = 0;
};

StatusOr<HeapImage> BuildImage(const RuleSet& rules) {
  HeapImage image;
  size_t filled = 0;
  FIXREP_RETURN_IF_ERROR(
      EmitImage(rules, [&](const void* data, size_t bytes) {
        if (image.words == nullptr) {  // the header: allocate the image
          image.bytes = static_cast<const RuleDictHeader*>(data)->file_size;
          image.words =
              std::make_unique_for_overwrite<uint64_t[]>(image.bytes / 8);
        }
        if (bytes == 0) return;
        std::memcpy(reinterpret_cast<char*>(image.words.get()) + filled, data,
                    bytes);
        filled += bytes;
      }));
  return image;
}

}  // namespace

Status CompileRuleDict(const RuleSet& rules, const std::string& path) {
  FIXREP_TRACE_SPAN("ruledict.compile");
  auto out = AtomicFile::Create(path);
  if (!out.ok()) return out.status();
  std::ofstream& stream = out->stream();
  FIXREP_RETURN_IF_ERROR(EmitImage(rules, [&](const void* data, size_t bytes) {
    stream.write(static_cast<const char*>(data),
                 static_cast<std::streamsize>(bytes));
  }));
  if (!stream.good()) {
    return Status::IoError("short write compiling rule dictionary to " +
                           path);
  }
  return out->Commit();
}

ValueId ValueTranslator::Resolve(ValueId live) const {
  return dict_->FindString(dict_->pool_->GetString(live));
}

RuleDictHandle::RuleDictHandle(const RuleDict& dict)
    : translator_(&dict) {
  FIXREP_CHECK(dict.bound()) << "a RuleDictHandle needs a bound RuleDict";
  RuleSource::Init init;
  init.slots = dict.slots_;
  init.slot_mask = dict.header_->slot_count - 1;
  init.postings = dict.postings_;
  init.evidence_count = dict.evidence_count_;
  init.target = dict.target_;
  init.fact = dict.live_fact_.data();  // live space, built by Bind
  init.assured_bits = dict.assured_bits_;
  init.ev_offsets = dict.ev_offsets_;
  init.ev_attrs = dict.ev_attrs_;
  init.ev_values = dict.ev_values_;
  init.neg_offsets = dict.neg_offsets_;
  init.neg_values = dict.neg_values_;
  init.empty_evidence_rules = dict.empty_evidence_;
  init.num_empty_evidence_rules = dict.header_->num_empty_evidence;
  init.evidence_attr_list = dict.evidence_attr_list_;
  init.num_evidence_attrs = dict.header_->num_evidence_attrs;
  init.mentioned_attrs = dict.mentioned_attrs();
  init.num_rules = dict.header_->num_rules;
  init.arity = dict.header_->arity;
  init.translator = &translator_;
  init.cache = &cache_;
  source_ = RuleSource(init);
}

RuleDict::~RuleDict() {
  if (heap_ == nullptr && header_ != nullptr) {
    ::munmap(const_cast<RuleDictHeader*>(header_), image_size_);
  }
}

StatusOr<std::unique_ptr<RuleDict>> RuleDict::Compile(const RuleSet& rules) {
  FIXREP_TRACE_SPAN("lrepair.index_build");
  StatusOr<HeapImage> image = BuildImage(rules);
  if (!image.ok()) return image.status();
  std::unique_ptr<RuleDict> dict(new RuleDict());
  dict->heap_ = std::move(image->words);
  dict->image_size_ = image->bytes;
  dict->header_ = reinterpret_cast<const RuleDictHeader*>(dict->heap_.get());
  FIXREP_RETURN_IF_ERROR(dict->ValidateAndWire());
  FIXREP_RETURN_IF_ERROR(dict->Bind(rules.schema(), rules.pool_ptr()));

  auto& registry = CurrentMetrics();
  // Ticks once per rule set: sharing one image across engines and
  // workers is the point; parallel_test asserts it stays at 1 for a
  // multi-worker repair.
  registry.GetCounter("fixrep.lrepair.index_builds")->Add(1);
  registry.GetGauge("fixrep.lrepair.index_keys")
      ->Set(static_cast<int64_t>(dict->header_->num_keys));
  return dict;
}

std::unique_ptr<RuleDict> RuleDict::CompileOrDie(const RuleSet& rules) {
  StatusOr<std::unique_ptr<RuleDict>> dict = Compile(rules);
  FIXREP_CHECK(dict.ok()) << dict.status().message();
  return std::move(dict).value();
}

StatusOr<std::unique_ptr<RuleDict>> RuleDict::Open(const std::string& path) {
  FIXREP_TRACE_SPAN("ruledict.open");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open rule dictionary " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat rule dictionary " + path);
  }
  const auto file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(RuleDictHeader)) {
    ::close(fd);
    return Status::MalformedInput(
        path + " is not a rule dictionary: " + std::to_string(file_size) +
        " bytes is smaller than the header");
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return Status::IoError("cannot mmap rule dictionary " + path);
  }

  std::unique_ptr<RuleDict> dict(new RuleDict());
  dict->path_ = path;
  dict->image_size_ = file_size;
  dict->header_ = static_cast<const RuleDictHeader*>(map);
  const Status status = dict->ValidateAndWire();
  if (!status.ok()) return status.WithContext(path);

  auto& registry = CurrentMetrics();
  registry.GetCounter("fixrep.ruledict.opens")->Add(1);
  registry.GetGauge("fixrep.ruledict.bytes")
      ->Set(static_cast<int64_t>(file_size));
  registry.GetGauge("fixrep.ruledict.rules")
      ->Set(static_cast<int64_t>(dict->header_->num_rules));
  return dict;
}

Status RuleDict::ValidateAndWire() {
  const RuleDictHeader& h = *header_;
  if (std::memcmp(h.magic, kRuleDictMagic, sizeof h.magic) != 0) {
    return Status::MalformedInput("bad magic: not a rule dictionary");
  }
  if (h.version != kRuleDictFormatVersion) {
    return Status::MalformedInput(
        "unsupported dictionary format version " + std::to_string(h.version) +
        " (this build reads version " +
        std::to_string(kRuleDictFormatVersion) + ")");
  }
  RuleDictHeader crc_copy;
  std::memcpy(&crc_copy, &h, sizeof crc_copy);
  crc_copy.header_crc = 0;
  const uint32_t crc = Crc32(&crc_copy, sizeof crc_copy);
  if (crc != h.header_crc) {
    return Status::MalformedInput("header CRC mismatch: dictionary corrupt");
  }
  if (h.file_size != image_size_) {
    return Status::MalformedInput(
        "file is " + std::to_string(image_size_) + " bytes but the header " +
        "records " + std::to_string(h.file_size) + " — truncated or padded");
  }
  if (h.arity > 64 || h.num_rules >= (uint32_t{1} << 31)) {
    return Status::MalformedInput("header counts out of range");
  }
  if (h.slot_count < 16 || (h.slot_count & (h.slot_count - 1)) != 0 ||
      h.string_hash_count < 16 ||
      (h.string_hash_count & (h.string_hash_count - 1)) != 0) {
    return Status::MalformedInput("hash table sizes must be powers of two");
  }

  // Per-section structural checks: 8-aligned, in file order, inside the
  // file, and exactly the size the header's counts imply. The CRC above
  // vouches for the header; these bounds make every later section read
  // safe without touching (and so faulting in) the sections themselves.
  const uint64_t n = h.num_rules;
  const uint64_t expected_bytes[kNumDictSections] = {
      h.section_bytes[0],  // attr_names is self-delimiting; parsed below
      uint64_t{h.slot_count} * sizeof(RuleSlot),
      h.num_postings * sizeof(uint32_t),
      n * sizeof(uint32_t),
      n * sizeof(AttrId),
      n * sizeof(uint32_t),
      n * sizeof(uint64_t),
      (n + 1) * sizeof(uint32_t),
      h.num_ev_pairs * sizeof(AttrId),
      h.num_ev_pairs * sizeof(ValueId),
      (n + 1) * sizeof(uint32_t),
      h.num_neg_values * sizeof(ValueId),
      uint64_t{h.num_empty_evidence} * sizeof(uint32_t),
      uint64_t{h.num_evidence_attrs} * sizeof(AttrId),
      (uint64_t{h.num_strings} + 1) * sizeof(uint32_t),
      h.section_bytes[15],  // string_bytes; cross-checked via offsets below
      uint64_t{h.string_hash_count} * sizeof(uint32_t),
  };
  uint64_t prev_end = sizeof(RuleDictHeader);
  for (size_t i = 0; i < kNumDictSections; ++i) {
    const uint64_t off = h.section_offset[i];
    const uint64_t bytes = h.section_bytes[i];
    if (off % 8 != 0 || off < prev_end || bytes > image_size_ ||
        off > image_size_ - bytes) {
      return Status::MalformedInput(
          std::string("section ") +
          DictSectionName(static_cast<DictSection>(i)) +
          " lies outside the file");
    }
    if (bytes != expected_bytes[i]) {
      return Status::MalformedInput(
          std::string("section ") +
          DictSectionName(static_cast<DictSection>(i)) +
          " size disagrees with the header counts");
    }
    prev_end = off + bytes;
  }

  slots_ = reinterpret_cast<const RuleSlot*>(SectionPtr(DictSection::kSlots));
  postings_ =
      reinterpret_cast<const uint32_t*>(SectionPtr(DictSection::kPostings));
  evidence_count_ = reinterpret_cast<const uint32_t*>(
      SectionPtr(DictSection::kEvidenceCount));
  target_ = reinterpret_cast<const AttrId*>(SectionPtr(DictSection::kTarget));
  fact_str_ =
      reinterpret_cast<const uint32_t*>(SectionPtr(DictSection::kFactStr));
  assured_bits_ = reinterpret_cast<const uint64_t*>(
      SectionPtr(DictSection::kAssuredBits));
  ev_offsets_ =
      reinterpret_cast<const uint32_t*>(SectionPtr(DictSection::kEvOffsets));
  ev_attrs_ =
      reinterpret_cast<const AttrId*>(SectionPtr(DictSection::kEvAttrs));
  ev_values_ =
      reinterpret_cast<const ValueId*>(SectionPtr(DictSection::kEvValues));
  neg_offsets_ =
      reinterpret_cast<const uint32_t*>(SectionPtr(DictSection::kNegOffsets));
  neg_values_ =
      reinterpret_cast<const ValueId*>(SectionPtr(DictSection::kNegValues));
  empty_evidence_ = reinterpret_cast<const uint32_t*>(
      SectionPtr(DictSection::kEmptyEvidence));
  evidence_attr_list_ = reinterpret_cast<const AttrId*>(
      SectionPtr(DictSection::kEvidenceAttrList));
  string_offsets_ = reinterpret_cast<const uint32_t*>(
      SectionPtr(DictSection::kStringOffsets));
  string_bytes_ =
      reinterpret_cast<const char*>(SectionPtr(DictSection::kStringBytes));
  string_hash_ = reinterpret_cast<const uint32_t*>(
      SectionPtr(DictSection::kStringHash));

  // CSR terminators must agree with the header so every per-rule slice
  // the chase derives stays inside its section.
  if (n > 0 || h.num_ev_pairs > 0) {
    if (ev_offsets_[0] != 0 || ev_offsets_[n] != h.num_ev_pairs ||
        neg_offsets_[0] != 0 || neg_offsets_[n] != h.num_neg_values) {
      return Status::MalformedInput("CSR offsets disagree with the header");
    }
  }
  const uint64_t string_bytes_size = h.section_bytes[15];
  if (string_offsets_[0] != 0 ||
      string_offsets_[h.num_strings] != string_bytes_size) {
    return Status::MalformedInput(
        "string pool offsets disagree with the header");
  }

  // The attribute-name blob is the one variable-format section: parse it
  // fully now, bounds-checked against its recorded size.
  {
    const uint8_t* p = SectionPtr(DictSection::kAttrNames);
    const uint8_t* end = p + h.section_bytes[0];
    auto read_u32 = [&](uint32_t* v) {
      if (end - p < static_cast<ptrdiff_t>(sizeof *v)) return false;
      std::memcpy(v, p, sizeof *v);
      p += sizeof *v;
      return true;
    };
    uint32_t count = 0;
    if (!read_u32(&count) || count != h.arity) {
      return Status::MalformedInput("attribute-name section corrupt");
    }
    attribute_names_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t len = 0;
      if (!read_u32(&len) || end - p < static_cast<ptrdiff_t>(len)) {
        return Status::MalformedInput("attribute-name section corrupt");
      }
      attribute_names_.emplace_back(reinterpret_cast<const char*>(p), len);
      p += len;
    }
    // A schema is built from these names, and a schema's names are
    // unique.
    const std::set<std::string_view> unique(attribute_names_.begin(),
                                            attribute_names_.end());
    if (unique.size() != attribute_names_.size()) {
      return Status::MalformedInput(
          "attribute-name section repeats a name (duplicate attribute)");
    }
  }
  return Status::Ok();
}

Status RuleDict::Bind(const Schema& schema, std::shared_ptr<ValuePool> pool) {
  FIXREP_TRACE_SPAN("ruledict.bind");
  FIXREP_CHECK(pool != nullptr);
  if (schema.attribute_names() != attribute_names_) {
    return Status::MalformedInput(
        "schema does not match the rule dictionary" +
        (path_.empty() ? std::string() : " " + path_) +
        " (compiled for relation with " +
        std::to_string(attribute_names_.size()) + " attributes)");
  }
  if (pool_ == pool) return Status::Ok();
  // Serial by contract (ValuePool interning is single-writer): every
  // distinct fact gets a live id now, so fact() never interns on the
  // chase's hot path — or from a worker thread. A fact the pool already
  // holds (always, for an image compiled from a set over this pool) is
  // only looked up.
  // Open checked the sections' bounds, not their contents: a fact must
  // name a string whose bytes lie inside the string section.
  const uint64_t string_bytes =
      header_->section_bytes[static_cast<size_t>(DictSection::kStringBytes)];
  std::vector<ValueId> live_fact(header_->num_rules);
  for (uint32_t i = 0; i < header_->num_rules; ++i) {
    const uint32_t id = fact_str_[i];
    if (id >= header_->num_strings ||
        string_offsets_[id] > string_offsets_[id + 1] ||
        string_offsets_[id + 1] > string_bytes) {
      return Status::MalformedInput("rule " + std::to_string(i) +
                                    " has a fact outside the string pool: "
                                    "dictionary " + path_ + " is corrupt");
    }
    const std::string_view fact = DictString(id);
    const ValueId known = pool->Find(fact);
    live_fact[i] = known != kNullValue ? known : pool->Intern(fact);
  }
  pool_ = std::move(pool);
  live_fact_ = std::move(live_fact);
  return Status::Ok();
}

std::unique_ptr<RuleDictHandle> RuleDict::MakeHandle() const {
  return std::make_unique<RuleDictHandle>(*this);
}

std::string_view RuleDict::DictString(uint32_t id) const {
  FIXREP_CHECK_LT(id, header_->num_strings);
  return {string_bytes_ + string_offsets_[id],
          string_offsets_[id + 1] - string_offsets_[id]};
}

ValueId RuleDict::FindString(std::string_view s) const {
  const size_t mask = header_->string_hash_count - 1;
  size_t slot = FnvHash(s) & mask;
  while (true) {
    const uint32_t id = string_hash_[slot];
    if (id == UINT32_MAX) return kAbsentValue;
    if (DictString(id) == s) return static_cast<ValueId>(id);
    slot = (slot + 1) & mask;
  }
}

}  // namespace fixrep
