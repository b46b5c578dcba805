#include "base/clause_arena.hpp"

#include <cassert>

namespace gdf::base {

std::size_t ClauseArena::add(std::span<const ClauseLit> lits) {
  assert(!lits.empty() && "a clause needs at least one literal");
  if (lits.empty()) return kNone;
  const std::size_t index = size();
  pool_.insert(pool_.end(), lits.begin(), lits.end());
  offsets_.push_back(pool_.size());
  return index;
}

}  // namespace gdf::base
