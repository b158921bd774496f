#include "relation/value_pool.h"

#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

namespace fixrep {

namespace {

constexpr size_t kMinSlots = 16;
constexpr uint64_t kMul = 0x9fb21c651e98df25ULL;

uint64_t Load64(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

uint64_t Load32(const char* p) {
  uint32_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

uint64_t Step(uint64_t h, uint64_t word) {
  h = (h ^ word) * kMul;
  return h ^ (h >> 29);
}

#ifndef NDEBUG
// Flags any second Intern that overlaps the first in time. Catches the
// misuse the class comment warns about (concurrent interning) in debug
// and sanitizer builds instead of silently corrupting the hash.
class InternGuard {
 public:
  explicit InternGuard(std::atomic<bool>* busy) : busy_(busy) {
    FIXREP_CHECK(!busy_->exchange(true, std::memory_order_acquire))
        << "concurrent ValuePool::Intern detected; the pool is "
           "single-writer (see value_pool.h)";
  }
  ~InternGuard() { busy_->store(false, std::memory_order_release); }

 private:
  std::atomic<bool>* busy_;
};
#endif

}  // namespace

// Word-at-a-time multiply-xorshift over the bytes (a short tail is read
// with overlapping loads), finished with murmur3's fmix64 so every bit
// of the 32 kept reaches the slot index.
uint32_t ValuePool::Hash(std::string_view s) {
  const char* p = s.data();
  const size_t n = s.size();
  uint64_t h = Step(0x243f6a8885a308d3ULL, n);
  if (n >= 8) {
    const char* const last = p + n - 8;
    for (; p < last; p += 8) h = Step(h, Load64(p));
    h = Step(h, Load64(last));
  } else if (n >= 4) {
    h = Step(h, Load32(p) | Load32(p + n - 4) << 32);
  } else if (n > 0) {
    const auto byte = [&](size_t i) {
      return uint64_t{static_cast<unsigned char>(p[i])};
    };
    h = Step(h, byte(0) | byte(n / 2) << 8 | byte(n - 1) << 16);
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

size_t ValuePool::Probe(std::string_view s, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNullValue ||
        (slot.hash == hash &&
         views_[static_cast<size_t>(slot.id)].text == s)) {
      return i;
    }
  }
}

void ValuePool::Rehash(size_t capacity) {
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNullValue) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id != kNullValue) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

ValueId ValuePool::Intern(std::string_view s) {
#ifndef NDEBUG
  const InternGuard guard(&interning_);
#endif
  if (slots_.empty()) Rehash(kMinSlots);
  const uint32_t hash = Hash(s);
  Slot& slot = slots_[Probe(s, hash)];
  if (slot.id != kNullValue) return slot.id;
  const std::string_view stored = strings_.emplace_back(s);
  const ValueId id = static_cast<ValueId>(strings_.size() - 1);
  const char* const end = stored.data() + stored.size();
  views_.push_back({stored, FindCsvSpecial(stored.data(), end) != end});
  slot = {hash, id};
  if (2 * strings_.size() > slots_.size()) Rehash(2 * slots_.size());
  return id;
}

void ValuePool::Reserve(size_t expected_values) {
  size_t capacity = kMinSlots;
  while (capacity < 2 * expected_values) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

ValueId ValuePool::Find(std::string_view s) const {
  if (slots_.empty()) return kNullValue;
  return slots_[Probe(s, Hash(s))].id;
}

const std::string& ValuePool::GetString(ValueId id) const {
  FIXREP_CHECK_GE(id, 0);
  FIXREP_CHECK_LT(static_cast<size_t>(id), strings_.size());
  return strings_[static_cast<size_t>(id)];
}

const ValueView& ValuePool::GetView(ValueId id) const {
  FIXREP_CHECK_GE(id, 0);
  FIXREP_CHECK_LT(static_cast<size_t>(id), views_.size());
  return views_[static_cast<size_t>(id)];
}

size_t ValueOverlay::Commit() {
  const size_t before = pool_->size();
  committed_.resize(staged_.size());
  for (size_t i = 0; i < staged_.size(); ++i) {
    committed_[i] = pool_->Intern(staged_.GetString(static_cast<ValueId>(i)));
  }
  return pool_->size() - before;
}

}  // namespace fixrep
