#include "relation/active_domain.h"

#include <cstdint>

namespace fixrep {

std::vector<std::vector<ValueId>> ActiveDomains(const Table& table) {
  std::vector<std::vector<ValueId>> domains(table.num_columns());
  // Dense marks over pool ids, cleared after each column.
  std::vector<uint8_t> seen(table.pool().size(), 0);
  for (size_t a = 0; a < table.num_columns(); ++a) {
    std::vector<ValueId>& domain = domains[a];
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const ValueId v = table.cell(r, static_cast<AttrId>(a));
      if (v != kNullValue && seen[static_cast<size_t>(v)] == 0) {
        seen[static_cast<size_t>(v)] = 1;
        domain.push_back(v);
      }
    }
    for (const ValueId v : domain) seen[static_cast<size_t>(v)] = 0;
  }
  return domains;
}

}  // namespace fixrep
