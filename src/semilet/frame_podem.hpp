// Single-time-frame PODEM over the five-valued logic — the workhorse of
// SEMILET. One instance searches one time frame for either
//  * ObserveFault: an assignment making a fault effect (D/D') visible at a
//    primary output (or, if allowed, at a pseudo primary output, which the
//    caller then chases into the next frame), or
//  * JustifyValues: an assignment producing required values at given lines
//    (used by reverse-time propagation justification and synchronization).
//
// Decisions are made on this frame's unassigned primary inputs and — where
// the caller permits — on unknown pseudo primary inputs; the latter are
// reported back as requirements on the previous time frame, exactly the
// paper's "values at PPIs [that] are not justified directly".
//
// The search is resumable: next() enumerates distinct solutions so outer
// phases can reject one and ask for another (inter-phase backtracking).
#pragma once

#include <utility>
#include <vector>

#include "semilet/options.hpp"
#include "sim/seq_sim.hpp"

namespace gdf::semilet {

enum class PodemMode { ObserveFault, JustifyValues };

struct PodemRequest {
  PodemMode mode = PodemMode::ObserveFault;
  /// State entering the frame; may contain D/D' (the fault effect) and X.
  sim::StateVec in_state;
  /// Which X bits of in_state the search may assign (unjustifiable U bits
  /// and known bits must be false here).
  std::vector<bool> assignable_ppi;
  /// Pre-assigned PI values (empty means all X).
  sim::InputVec base_pis;
  /// JustifyValues: required line values (binary).
  std::vector<std::pair<net::GateId, sim::Lv>> objectives;
  /// ObserveFault: when true only a PO counts as success.
  bool require_po = false;
  /// Static fault forced during this frame (a stuck-at fault whose effect
  /// the search activates and observes).
  sim::Injection injection;
  /// ObserveFault with injection: while no fault effect exists yet, chase
  /// this activation objective (site line driven to the non-stuck value).
  net::GateId activation_line = net::kNoGate;
  sim::Lv activation_value = sim::Lv::X;
};

struct FrameSolution {
  sim::InputVec pis;                                        ///< 0/1/X per PI
  std::vector<std::pair<std::size_t, sim::Lv>> ppi_assignments;
  std::vector<sim::Lv> line_values;                         ///< settled frame
  bool po_hit = false;
  bool ppo_hit = false;
};

enum class PodemStatus { Solution, Exhausted, Aborted };

class FramePodem {
 public:
  FramePodem(const sim::SeqSimulator& sim, Budget& budget,
             PodemRequest request);

  /// Produces the next distinct solution; Exhausted when the frame's
  /// decision space is used up, Aborted when the shared budget ran out.
  PodemStatus next(FrameSolution* out);

 private:
  struct Decision {
    bool is_ppi = false;
    std::size_t index = 0;
    sim::Lv value = sim::Lv::X;
    bool flipped = false;
  };

  void simulate();
  void collect_effects();
  bool success() const;
  bool hopeless() const;
  bool choose_objective(net::GateId* line, sim::Lv* value) const;
  bool backtrace(net::GateId line, sim::Lv value, Decision* decision) const;
  void apply(const Decision& d);
  bool backtrack();
  void fill_solution(FrameSolution* out) const;

  const sim::SeqSimulator* sim_;
  const net::Netlist* nl_;
  Budget* budget_;
  PodemRequest request_;

  sim::InputVec pis_;
  sim::StateVec state_;
  std::vector<sim::Lv> lines_;
  std::vector<Decision> stack_;
  /// Sources (is_ppi, index) assigned or un-assigned since the last
  /// settle: simulate() replays only their cones instead of re-evaluating
  /// the frame — the frame-PODEM side of the push/pop-deltas discipline.
  std::vector<std::pair<bool, std::size_t>> changed_sources_;
  sim::BitQueue work_;
  bool lines_ready_ = false;
  /// ObserveFault: the lines that can carry D/D' in this frame (the
  /// fanout cone of the entering PI and state fault effects and of the
  /// injection site); empty in JustifyValues mode.
  std::vector<net::GateId> effect_cone_;
  /// The settled frame's D/D' lines, refreshed from effect_cone_ whenever
  /// simulate() resettles. hopeless() starts its X-path walk from them and
  /// choose_objective() reads the D-frontier off their readers
  /// (FlatCircuit::readers), so neither walks the netlist's gates per
  /// search iteration; neither result depends on their order.
  std::vector<net::GateId> effects_;
  /// Reused X-path scratch (hopeless() runs every search iteration and
  /// walks the reader CSR). seen_ is epoch-stamped so a call costs
  /// O(reached), not O(circuit).
  mutable std::vector<std::uint32_t> seen_;
  mutable std::uint32_t seen_epoch_ = 0;
  mutable std::vector<net::GateId> bfs_;
  bool started_ = false;
  bool aborted_ = false;
};

}  // namespace gdf::semilet
