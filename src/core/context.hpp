// CircuitContext — the immutable, shareable half of an ATPG run.
//
// Everything the flow derives from the circuit structure alone lives here:
// the (optionally fanout-expanded) working netlist, the decomposed
// eight-valued model, the flat simulation form, and the canonical fault
// list. None of it changes after build(), so one context can back any
// number of concurrent Fogbusters — each of those owns its own mutable
// engines (search state, simulators' scratch, RNG) and shares the context
// via shared_ptr.
//
// Two AtpgOptions produce the same context iff their structural knob
// (fault_sites) agrees; the per-run knobs (algebra mode, backtrack
// limits, seed, fault dropping, work budget) do not enter the context.
// `structurally_compatible` is the exact predicate.
#pragma once

#include <memory>
#include <vector>

#include "algebra/model.hpp"
#include "algebra/tables.hpp"
#include "core/options.hpp"
#include "netlist/netlist.hpp"
#include "sim/flat_circuit.hpp"
#include "tdgen/fault.hpp"

namespace gdf::core {

class CircuitContext {
 public:
  /// Builds the shared structure for `circuit` under `options`'s
  /// structural configuration. The netlist is copied (and its fanout
  /// branches expanded when options.fault_sites.include_branches is set),
  /// so the argument need not outlive the context.
  static std::shared_ptr<const CircuitContext> build(
      const net::Netlist& circuit, const AtpgOptions& options = {});

  /// The working netlist every fault and node id refers to (expanded when
  /// built that way).
  const net::Netlist& netlist() const { return nl_; }
  const alg::AtpgModel& model() const { return model_; }
  const std::shared_ptr<const sim::FlatCircuit>& flat() const {
    return flat_;
  }

  /// Canonical fault list (line id ascending, StR before StF) — the order
  /// every FogbusterResult reports in, whatever the targeting order.
  const std::vector<tdgen::DelayFault>& faults() const { return faults_; }

  /// The memoized set-operator tables: the process-wide instance of
  /// alg::algebra_for, built lazily per mode (thread-safe), so a
  /// robust-only process never builds the non-robust tables.
  const alg::DelayAlgebra& algebra(alg::Mode mode) const {
    return alg::algebra_for(mode);
  }

  /// True when `options` would derive this exact structure.
  bool structurally_compatible(const AtpgOptions& options) const;

  CircuitContext(const CircuitContext&) = delete;
  CircuitContext& operator=(const CircuitContext&) = delete;

 private:
  CircuitContext(const net::Netlist& circuit, const AtpgOptions& options);

  tdgen::FaultListOptions fault_sites_;
  net::Netlist nl_;
  alg::AtpgModel model_;  ///< holds a pointer to nl_: address-stable here
  std::shared_ptr<const sim::FlatCircuit> flat_;
  std::vector<tdgen::DelayFault> faults_;
};

}  // namespace gdf::core
