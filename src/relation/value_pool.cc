#include "relation/value_pool.h"

#include "common/logging.h"

namespace fixrep {

namespace {

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

ValueId ValuePool::Intern(std::string_view s) {
#ifndef NDEBUG
  const InternGuard guard(&interning_);
#endif
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  strings_.emplace_back(s);
  const ValueId id = static_cast<ValueId>(strings_.size() - 1);
  index_.emplace(std::string_view(strings_.back()), id);
  return id;
}

void ValuePool::Reserve(size_t expected_values) {
  index_.reserve(expected_values);
}

ValueId ValuePool::Find(std::string_view s) const {
  const auto it = index_.find(s);
  return it == index_.end() ? kNullValue : it->second;
}

const std::string& ValuePool::GetString(ValueId id) const {
  FIXREP_CHECK_GE(id, 0);
  FIXREP_CHECK_LT(static_cast<size_t>(id), strings_.size());
  return strings_[static_cast<size_t>(id)];
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
