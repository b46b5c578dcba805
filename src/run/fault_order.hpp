// Fault targeting order policies (--fault-order).
//
// The flow targets untested faults one by one; after each success, fault
// simulation drops every accidentally detected fault. Which fault gets
// targeted *next* therefore shapes the final test set: targeting
// hard-to-detect faults first lets their (long, information-rich)
// sequences sweep away the easy faults for free.
//
//  * Static — the canonical enumeration order (line id ascending, StR
//    before StF); the paper's setup and the default.
//  * Random — a seeded Fisher-Yates shuffle; the baseline ordering
//    experiments are measured against.
//  * Adi — accidental detection index (Pomeranz & Reddy): fault-simulate a
//    fixed budget of random sequences with TDsim, count how often each
//    fault is detected by chance, and target the rarely-hit faults first.
//
// All three are deterministic in (context, options): the same inputs
// always produce the same permutation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/context.hpp"
#include "core/options.hpp"

namespace gdf::run {

enum class FaultOrder : std::uint8_t { Static, Random, Adi };

std::string_view fault_order_name(FaultOrder order);

/// Parses "static" | "random" | "adi"; throws gdf::Error otherwise.
FaultOrder parse_fault_order(std::string_view text);

/// Produces the targeting permutation of ctx.faults() for the policy.
/// Random and Adi derive their randomness from options.fill_seed.
std::vector<std::size_t> make_fault_order(const core::CircuitContext& ctx,
                                          FaultOrder order,
                                          const core::AtpgOptions& options);

}  // namespace gdf::run
