#include "relation/value_pool.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace fixrep {

#ifndef NDEBUG
ValuePool::InternGuard::InternGuard(std::atomic<bool>* busy) : busy_(busy) {
  FIXREP_CHECK(!busy_->exchange(true, std::memory_order_acquire))
      << "concurrent ValuePool::Intern detected; the pool is "
         "single-writer (see value_pool.h)";
}
#endif

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

ValueId ValuePool::Insert(std::string_view s, uint32_t hash, size_t slot) {
  const std::string_view stored = strings_.emplace_back(s);
  const ValueId id = static_cast<ValueId>(strings_.size() - 1);
  const char* const end = stored.data() + stored.size();
  views_.push_back({stored, FindCsvSpecial(stored.data(), end) != end});
  slots_[slot] = {hash, id};
  if (2 * strings_.size() > slots_.size()) Rehash(2 * slots_.size());
  return id;
}

void ValuePool::Reserve(size_t expected_values) {
  size_t capacity = kMinSlots;
  while (capacity < 2 * expected_values) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
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
