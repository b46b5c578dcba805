#include "tdgen/fault.hpp"

namespace gdf::tdgen {

std::string fault_name(const net::Netlist& nl, const DelayFault& fault) {
  return nl.gate(fault.line).name + (fault.slow_to_rise ? " StR" : " StF");
}

std::vector<DelayFault> enumerate_faults(const net::Netlist& nl,
                                         const FaultListOptions& options) {
  std::vector<DelayFault> faults;
  for (net::GateId id = 0; id < nl.size(); ++id) {
    if (nl.gate(id).is_branch && !options.include_branches) {
      continue;
    }
    faults.push_back({id, true});
    faults.push_back({id, false});
  }
  return faults;
}

}  // namespace gdf::tdgen
