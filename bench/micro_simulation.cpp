// Micro-benchmarks (M1): the sequential simulators behind SEMILET and
// FAUSIM — scalar five-valued frames vs the 64-lane dual-rail evaluator —
// plus the TDgen search-core primitives (ISSUE 5): the incremental
// trail-based implication engine and the cone-scoped verification probe.
#include <benchmark/benchmark.h>

#include "algebra/frame_sim.hpp"
#include "algebra/model.hpp"
#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "netlist/fanout.hpp"
#include "sim/parallel3.hpp"
#include "sim/seq_sim.hpp"
#include "tdgen/implication.hpp"

namespace {

using namespace gdf;
using sim::Lv;

void BM_ScalarFrame(benchmark::State& state) {
  const net::Netlist nl = circuits::load_circuit("s838");
  const sim::SeqSimulator simulator(nl);
  Rng rng(7);
  sim::InputVec pis(nl.inputs().size());
  for (Lv& v : pis) {
    v = rng.next_bool() ? Lv::One : Lv::Zero;
  }
  sim::StateVec st(nl.dffs().size(), Lv::Zero);
  std::vector<Lv> lines;
  for (auto _ : state) {
    simulator.eval_frame(pis, st, lines);
    st = simulator.next_state(lines);
    benchmark::DoNotOptimize(st.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(nl.size()));
}
BENCHMARK(BM_ScalarFrame);

void BM_ParallelFrame64Lanes(benchmark::State& state) {
  const net::Netlist nl = circuits::load_circuit("s838");
  const sim::ParallelSim3 simulator(nl);
  Rng rng(7);
  const auto random_binary = [&rng](sim::Word3& w) {
    w.ones = rng.next();
    w.zeros = ~w.ones;
  };
  std::vector<sim::Word3> pis(nl.inputs().size());
  for (auto& w : pis) {
    random_binary(w);
  }
  std::vector<sim::Word3> st(nl.dffs().size());
  for (auto& w : st) {
    random_binary(w);
  }
  std::vector<sim::Word3> lines;
  for (auto _ : state) {
    simulator.eval_frame(pis, st, lines);
    simulator.next_state(lines, st);
    benchmark::DoNotOptimize(st.data());
  }
  // 64 machines per pass; gate-evals/s is items_per_second.
  state.SetItemsProcessed(state.iterations() * static_cast<long>(nl.size()) *
                          64);
}
BENCHMARK(BM_ParallelFrame64Lanes);

void BM_ImplicationFixpoint(benchmark::State& state) {
  // One decision/undo cycle of the incremental engine: push a level,
  // assign a primary and propagate to fixpoint, then unwind the trail.
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::load_circuit("s838"));
  const alg::AtpgModel model(nl);
  tdgen::ImplicationEngine engine(model, alg::robust_algebra());
  // A mid-circuit fault site, chosen structurally (generated circuits use
  // synthetic names).
  const alg::FaultSpec fault{
      model.head_of(static_cast<net::GateId>(nl.size() / 2)), true};
  engine.init(fault);
  long narrowings = 0;
  for (auto _ : state) {
    engine.push_level();
    engine.assign(fault.site, alg::vset_of(alg::V8::RiseC));
    engine.assign(model.pis()[1], alg::vset_of(alg::V8::Zero));
    engine.assign(model.pis()[3], alg::vset_of(alg::V8::Rise));
    narrowings = engine.counters().trail_pushes;
    engine.pop_level();
    benchmark::DoNotOptimize(narrowings);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["narrowings"] = static_cast<double>(narrowings);
}
BENCHMARK(BM_ImplicationFixpoint);

void BM_ConeProbe(benchmark::State& state) {
  // One cone-scoped verification probe: a single stimulus bit changes and
  // only its fanout cone is resettled (the TDgen don't-care lifting
  // pattern), versus a full two-frame pass per probe before ISSUE 5.
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::load_circuit("s838"));
  const alg::AtpgModel model(nl);
  const alg::TwoFrameSim sim(model, alg::robust_algebra());
  const alg::FaultSpec fault{
      model.head_of(static_cast<net::GateId>(nl.size() / 2)), true};
  alg::TwoFrameStimulus stimulus;
  stimulus.pi_sets.assign(model.pis().size(), alg::kPrimaryDomain);
  stimulus.ppi_sets.assign(model.ppis().size(), alg::kPrimaryDomain);
  std::vector<alg::VSet> sets;
  sim.run(stimulus, &fault, sets);
  bool flip = false;
  std::vector<std::pair<alg::NodeId, alg::VSet>> diffs(1);
  for (auto _ : state) {
    flip = !flip;
    diffs[0] = {model.pis()[2],
                flip ? alg::vset_of(alg::V8::Zero) : alg::kPrimaryDomain};
    sim.rerun_sources(diffs, &fault, sets);
    benchmark::DoNotOptimize(sets.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConeProbe);

}  // namespace

BENCHMARK_MAIN();
