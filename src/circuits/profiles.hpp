// Structural profiles of the ISCAS'89 circuits evaluated in Table 3 of the
// paper, used to parameterize the synthetic generator. PI/PO/FF/gate counts
// follow the published benchmark documentation (approximate where variants
// of the suite disagree; absolute agreement is not required, since the
// generated circuits are structural substitutes, not the real netlists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gdf::circuits {

/// Families steer the generator toward the structure of the real circuit.
enum class CircuitStyle {
  Exact,         ///< shipped verbatim (s27)
  CounterChain,  ///< fractional-multiplier family: s208, s420, s838
  Fsm,           ///< dense controller FSM: s298, s386
  Arithmetic,    ///< datapath/reconvergent cloud: s344, s349, s641, s713,
                 ///< s1196, s1238
};

struct BenchmarkProfile {
  std::string name;
  int primary_inputs = 0;
  int primary_outputs = 0;
  int flip_flops = 0;
  int logic_gates = 0;
  CircuitStyle style = CircuitStyle::Fsm;
  std::uint64_t seed = 0;
};

/// The twelve circuits of Table 3, in the paper's row order.
const std::vector<BenchmarkProfile>& table3_profiles();

/// Profile lookup by circuit name; throws gdf::Error if unknown.
const BenchmarkProfile& profile_for(const std::string& name);

}  // namespace gdf::circuits
