// The robust gate delay fault model of paper §3: "each gate output and each
// fan out branch can contain a Slow-to-Rise (StR) and a Slow-to-Fall (StF)
// fault, that both need to be tested robustly".
//
// Fault sites are lines of the (fanout-expanded) netlist; a branch fault is
// simply a fault on its branch buffer's output.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace gdf::tdgen {

struct DelayFault {
  net::GateId line = net::kNoGate;
  bool slow_to_rise = true;

  bool operator==(const DelayFault&) const = default;
};

/// "G11 StR", "G8$b0 StF".
std::string fault_name(const net::Netlist& nl, const DelayFault& fault);

struct FaultListOptions {
  bool include_branches = true;  ///< faults on fanout-branch buffers

  bool operator==(const FaultListOptions&) const = default;
};

/// Enumerates StR and StF faults for every selected line of `nl`
/// (deterministic order: line id ascending, StR before StF). Run this on
/// the fanout-expanded netlist to include branch faults.
std::vector<DelayFault> enumerate_faults(const net::Netlist& nl,
                                         const FaultListOptions& options = {});

}  // namespace gdf::tdgen
