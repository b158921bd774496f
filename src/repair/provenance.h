#ifndef FIXREP_REPAIR_PROVENANCE_H_
#define FIXREP_REPAIR_PROVENANCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "relation/schema.h"
#include "relation/table.h"

namespace fixrep {

// A full audit log of one repair: a write log (CellRepair, in
// relation/table.h) that a curator reads to see which rule changed which
// cell — the "dependable" in dependable repairing includes being able to
// say why each cell changed. `fixrep_cli repair --log` prints the cRepair
// chase's log; `fixrep_cli audit` rebuilds one from a WAL.
struct RepairLog {
  std::vector<CellRepair> repairs;

  // Renders one entry like:
  //   row 12 capital: 'Shanghai' -> 'Beijing' by rule #3
  std::string Describe(const CellRepair& repair, const Schema& schema,
                       const ValuePool& pool) const;

  // Repairs grouped per rule (index -> how many cells it fixed).
  std::vector<size_t> PerRuleCounts(size_t num_rules) const;
};

}  // namespace fixrep

#endif  // FIXREP_REPAIR_PROVENANCE_H_
