#include "core/context.hpp"

#include "netlist/fanout.hpp"

namespace gdf::core {

CircuitContext::CircuitContext(const net::Netlist& circuit,
                               const AtpgOptions& options)
    : expand_branches_(options.expand_branches),
      fault_sites_(options.fault_sites),
      nl_(options.expand_branches ? net::expand_fanout_branches(circuit)
                                  : circuit),
      model_(nl_),
      flat_(sim::FlatCircuit::build(nl_)),
      faults_(tdgen::enumerate_faults(nl_, options.fault_sites)) {}

std::shared_ptr<const CircuitContext> CircuitContext::build(
    const net::Netlist& circuit, const AtpgOptions& options) {
  // Not make_shared: the constructor is private and the context must be
  // heap-pinned anyway (model_ points into nl_).
  return std::shared_ptr<const CircuitContext>(
      new CircuitContext(circuit, options));
}

const alg::DelayAlgebra& CircuitContext::algebra(alg::Mode mode) const {
  if (mode == alg::Mode::Robust) {
    std::call_once(robust_once_, [this] {
      robust_algebra_ = alg::shared_algebra(alg::Mode::Robust);
    });
    return *robust_algebra_;
  }
  std::call_once(nonrobust_once_, [this] {
    nonrobust_algebra_ = alg::shared_algebra(alg::Mode::NonRobust);
  });
  return *nonrobust_algebra_;
}

bool CircuitContext::structurally_compatible(
    const AtpgOptions& options) const {
  return options.expand_branches == expand_branches_ &&
         options.fault_sites == fault_sites_;
}

}  // namespace gdf::core
