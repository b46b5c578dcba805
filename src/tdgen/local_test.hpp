// The product of one successful local (two-frame) test generation, and the
// derived quantities handed to the sequential phases:
//  * the required initial state S0 (to be synchronized by SEMILET),
//  * the two PI vectors (initial frame V1, test frame V2),
//  * the boundary classification of every PPO after the fast frame:
//    steady clean 0/1 (usable by the propagation phase), D / D' (the fault
//    effect), or U — fixed but unknown, the unjustifiable don't-care of
//    paper §6 ("SEMILET must assume a fixed, but unknown value is
//    present").
#pragma once

#include <cstdint>
#include <vector>

#include "algebra/model.hpp"
#include "algebra/tables.hpp"
#include "algebra/value_set.hpp"

namespace gdf::tdgen {

struct LocalTest {
  /// Engine value sets at the solution; define the applied vectors.
  std::vector<alg::VSet> pi_sets;   ///< Netlist::inputs() order
  std::vector<alg::VSet> ppi_sets;  ///< Netlist::dffs() order
  /// Forward-simulation value sets at the PPO lines (sound without relying
  /// on internal search decisions).
  std::vector<alg::VSet> ppo_sets;  ///< Netlist::dffs() order
  /// Observation points proven to carry the fault effect (simulation sets
  /// contained in {Rc,Fc}).
  std::vector<alg::NodeId> observed;
  bool observed_at_po = false;
};

/// State-boundary classification of one PPO value set.
enum class PpoKind : std::uint8_t {
  Known0,     ///< steady hazard-free 0 — may be specified to SEMILET
  Known1,     ///< steady hazard-free 1
  Unknown,    ///< transition/hazard/wide: fixed but unknown (U)
  FaultD,     ///< carries the fault effect; good 1 / faulty 0
  FaultDbar,  ///< carries the fault effect; good 0 / faulty 1
};

PpoKind classify_ppo(alg::VSet s);

/// Required S0 per flip-flop: 0, 1, or -1 (don't care).
std::vector<int> required_initial_state(const LocalTest& t);

/// PI bits of the initial frame V1: 0, 1, or -1 (X).
std::vector<int> initial_frame_pis(const LocalTest& t);

/// PI bits of the test frame V2: 0, 1, or -1 (X).
std::vector<int> test_frame_pis(const LocalTest& t);

}  // namespace gdf::tdgen
