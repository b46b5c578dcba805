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
// Every clause carries quality metadata for the tiered database policy:
// its LBD (literal-block-distance — how many distinct decision levels the
// nogood's literals spanned when it was learned; low LBD = the clause
// talks about tightly coupled decisions and tends to fire again) and an
// EVSIDS-style activity bumped each time the clause announces a conflict.
// The engine's reduction pass keeps LBD≤2 "core" clauses forever and
// ranks the rest by (LBD, activity) — see ImplicationEngine::reduce.
//
// The arena is a flat pool (literals back to back, offset-indexed
// headers) so a search's clause set stays cache-dense.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Clause-quality tier by LBD (see ClauseArena::tier_of): core clauses
/// survive every reduction, mid clauses compete on (LBD, activity), local
/// clauses are evicted aggressively.
enum class ClauseTier : std::uint8_t { Core, Mid, Local };

/// Flat clause pool. Clauses are append-only between reductions; an index
/// identifies a clause for the watch lists.
class ClauseArena {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// LBD boundaries of the three tiers (Glucose-style).
  static constexpr std::uint32_t kCoreLbd = 2;
  static constexpr std::uint32_t kMidLbd = 6;

  /// Appends a clause stamped with its literal-block distance; rejects
  /// empty input. Returns its index.
  std::size_t add(std::span<const ClauseLit> lits, std::uint32_t lbd = 0);

  std::size_t size() const { return offsets_.size() - 1; }
  /// Total literals pooled — the arena's dominant memory term.
  std::size_t lit_count() const { return pool_.size(); }

  std::span<const ClauseLit> lits(std::size_t clause) const {
    return {pool_.data() + offsets_[clause],
            offsets_[clause + 1] - offsets_[clause]};
  }

  std::uint32_t lbd(std::size_t clause) const { return lbd_[clause]; }
  double activity(std::size_t clause) const { return activity_[clause]; }
  void bump_activity(std::size_t clause, double inc) {
    activity_[clause] += inc;
  }
  /// Rescales every activity (the EVSIDS overflow guard).
  void scale_activities(double factor);

  static ClauseTier tier_of(std::uint32_t lbd) {
    if (lbd <= kCoreLbd) {
      return ClauseTier::Core;
    }
    return lbd <= kMidLbd ? ClauseTier::Mid : ClauseTier::Local;
  }

 private:
  std::vector<ClauseLit> pool_;
  /// size()+1 offsets into pool_ (offsets_[0] == 0 always).
  std::vector<std::size_t> offsets_ = {0};
  std::vector<std::uint32_t> lbd_;
  std::vector<double> activity_;
};

}  // namespace gdf::base
