// Exact embedded benchmark netlists.
//
// s27 (sequential) and c17 (combinational) are small enough to ship
// verbatim from the public ISCAS benchmark suites; they anchor the test
// suite to real circuits. The larger ISCAS'89 circuits of Table 3 are
// substituted by the synthetic generator (see generator.hpp, and README's
// "Running sweeps" for loading genuine .bench files instead).
#pragma once

#include <string_view>

#include "netlist/netlist.hpp"

namespace gdf::circuits {

/// The ISCAS'89 s27 benchmark: 4 PI, 1 PO, 3 DFF, 10 logic gates.
net::Netlist make_s27();

/// The ISCAS'85 c17 benchmark: 5 PI, 2 PO, 6 NAND gates (combinational).
net::Netlist make_c17();

/// Raw .bench sources (exposed for parser round-trip tests).
std::string_view s27_bench_text();
std::string_view c17_bench_text();

}  // namespace gdf::circuits
