#include "base/clause_arena.hpp"

#include <cassert>

namespace gdf::base {

std::size_t ClauseArena::add(std::span<const ClauseLit> lits,
                             std::uint32_t lbd) {
  assert(!lits.empty() && "a clause needs at least one literal");
  if (lits.empty()) return kNone;
  const std::size_t index = size();
  pool_.insert(pool_.end(), lits.begin(), lits.end());
  offsets_.push_back(pool_.size());
  lbd_.push_back(lbd);
  activity_.push_back(0.0);
  return index;
}

void ClauseArena::scale_activities(double factor) {
  for (double& a : activity_) {
    a *= factor;
  }
}

}  // namespace gdf::base
