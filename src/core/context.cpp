#include "core/context.hpp"

#include "netlist/fanout.hpp"

namespace gdf::core {

CircuitContext::CircuitContext(const net::Netlist& circuit,
                               const AtpgOptions& options)
    : fault_sites_(options.fault_sites),
      nl_(options.fault_sites.include_branches
              ? net::expand_fanout_branches(circuit)
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

bool CircuitContext::structurally_compatible(
    const AtpgOptions& options) const {
  return options.fault_sites == fault_sites_;
}

}  // namespace gdf::core
