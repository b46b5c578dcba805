#include "workloads.hpp"

#include <fstream>

#include "base/error.hpp"
#include "circuits/catalog.hpp"
#include "circuits/generator.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/validate.hpp"

namespace perfbench {

using gdf::check;

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& bench_path) {
  Workload w;
  w.name = name;
  if (name == "catalog") {
    w.catalog = gdf::circuits::catalog_names();
    w.options.fill_seed = seed;
  } else if (name == "tail_sharded") {
    w.catalog = {"s1196", "s1238"};
    w.options.fill_seed = seed;
    w.workers = 4;
    w.fill_seeds = 3;
  } else if (name == "fsm_adi") {
    check(!bench_path.empty(), "workload fsm_adi needs --bench FILE");
    w.bench_path = bench_path;
    w.order = gdf::run::FaultOrder::Adi;
    w.options.fault_budget = 20000;
    w.options.fill_seed = seed;
    w.fill_seeds = 2;
  } else {
    check(false, "unknown workload '" + name + "'");
  }
  return w;
}

gdf::circuits::BenchmarkProfile fsm_profile(std::uint64_t seed) {
  gdf::circuits::BenchmarkProfile profile;
  profile.name = "fsm" + std::to_string(seed);
  profile.primary_inputs = 16;
  profile.primary_outputs = 24;
  profile.flip_flops = 96;
  profile.logic_gates = 1200;
  profile.style = gdf::circuits::CircuitStyle::Fsm;
  profile.seed = seed;
  return profile;
}

void write_fsm_bench(const gdf::circuits::BenchmarkProfile& profile,
                     const std::string& path) {
  const gdf::net::Netlist generated =
      gdf::circuits::generate_iscas_like(profile);
  const std::string text = gdf::net::write_bench(generated);
  const gdf::net::Netlist parsed =
      gdf::net::parse_bench(text, profile.name);
  gdf::net::validate_or_throw(parsed);
  check(parsed.inputs().size() == generated.inputs().size() &&
            parsed.outputs().size() == generated.outputs().size() &&
            parsed.dffs().size() == generated.dffs().size() &&
            parsed.logic_gate_count() == generated.logic_gate_count(),
        "generated .bench does not round-trip: " + profile.name);
  std::ofstream out(path);
  out << text;
  out.flush();
  check(static_cast<bool>(out), "cannot write " + path);
}

}  // namespace perfbench
