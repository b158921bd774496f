#include "relation/table.h"

#include <utility>

#include "common/logging.h"

namespace fixrep {

Table::Table(std::shared_ptr<const Schema> schema,
             std::shared_ptr<ValuePool> pool)
    : schema_(std::move(schema)),
      pool_(std::move(pool)),
      store_(schema_ == nullptr ? 0 : schema_->arity()) {
  FIXREP_CHECK(schema_ != nullptr);
  FIXREP_CHECK(pool_ != nullptr);
}

void Table::AppendRow(TupleRef row) {
  FIXREP_CHECK_EQ(row.size(), schema_->arity());
  store_.AppendRow(row);
}

void Table::AppendRowStrings(const std::vector<std::string>& fields) {
  FIXREP_CHECK_EQ(fields.size(), schema_->arity());
  const TupleSpan row = store_.AppendRowUninit();
  for (size_t i = 0; i < fields.size(); ++i) {
    row[i] = pool_->Intern(fields[i]);
  }
}

void Table::ApplyOverlay(const ValueOverlay& overlay) {
  for (size_t r = 0; r < num_rows(); ++r) {
    const TupleSpan row = store_.WriteRow(r);
    for (size_t i = 0; i < row.size(); ++i) row[i] = overlay.Final(row[i]);
  }
}

const std::string& Table::CellString(size_t row, AttrId attr) const {
  // Function-local static: one empty string for every table and every
  // null cell, alive for the whole process, so the returned reference
  // can never dangle regardless of table lifetime.
  static const std::string kEmptyString;
  const ValueId id = cell(row, attr);
  if (id == kNullValue) return kEmptyString;
  return pool_->GetString(id);
}

bool Table::RowsEqual(const Table& other) const {
  if (num_rows() != other.num_rows() ||
      num_columns() != other.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < num_rows(); ++r) {
    if (row(r) != other.row(r)) return false;
  }
  return true;
}

std::string Table::FormatRow(size_t row) const {
  std::string out = "(";
  for (size_t a = 0; a < num_columns(); ++a) {
    if (a > 0) out += ", ";
    out += CellString(row, static_cast<AttrId>(a));
  }
  out += ")";
  return out;
}

}  // namespace fixrep
