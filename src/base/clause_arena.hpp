// Flat arena for learned blocking implicates ("clauses") over value-set
// literals.
//
// A clause is a nogood: a conjunction of containment facts
//   sets[node_i] ⊆ allowed_i   for every literal i
// that is known to admit no consistent execution. The implication engine
// watches two not-yet-true literals per clause; when every literal's
// containment holds mid-propagation, the engine may declare the conflict
// immediately instead of narrowing on toward the empty set the fixpoint
// would provably reach (propagation rules are monotone, so a state
// satisfying all leaf facts of a conflict derivation re-derives the
// conflict). Clauses therefore only shortcut work — they never change
// which states are conflicted.
//
// The arena is a flat pool (literals back to back, offset-indexed
// headers) so a search's clause set stays cache-dense.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "algebra/model.hpp"
#include "algebra/value_set.hpp"

namespace gdf::base {

/// One containment fact: true in an engine state iff
/// sets[node] ⊆ allowed, i.e. (sets[node] & ~allowed) == 0.
struct ClauseLit {
  alg::NodeId node = 0;
  alg::VSet allowed = 0;
};

/// Append-only flat clause pool; an index identifies a clause for the
/// watch lists.
class ClauseArena {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Appends a clause; rejects empty input. Returns its index.
  std::size_t add(std::span<const ClauseLit> lits);

  std::size_t size() const { return offsets_.size() - 1; }

  std::span<const ClauseLit> lits(std::size_t clause) const {
    return {pool_.data() + offsets_[clause],
            offsets_[clause + 1] - offsets_[clause]};
  }

 private:
  std::vector<ClauseLit> pool_;
  /// size()+1 offsets into pool_ (offsets_[0] == 0 always).
  std::vector<std::size_t> offsets_ = {0};
};

}  // namespace gdf::base
