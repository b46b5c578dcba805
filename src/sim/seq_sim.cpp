#include "sim/seq_sim.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace gdf::sim {

SeqSimulator::SeqSimulator(const net::Netlist& nl)
    : fc_(FlatCircuit::build(nl)) {}

SeqSimulator::SeqSimulator(std::shared_ptr<const FlatCircuit> fc)
    : fc_(std::move(fc)) {
  GDF_ASSERT(fc_ != nullptr, "null flat circuit");
}

StateVec SeqSimulator::unknown_state() const {
  return StateVec(fc_->dffs().size(), Lv::X);
}

void SeqSimulator::eval_frame(std::span<const Lv> pis,
                              std::span<const Lv> state,
                              std::vector<Lv>& line_values,
                              const Injection* injection) const {
  const FlatCircuit& fc = *fc_;
  GDF_ASSERT(pis.size() == fc.inputs().size(), "PI vector size mismatch");
  GDF_ASSERT(state.size() == fc.dffs().size(), "state vector size mismatch");
  line_values.assign(fc.line_count(), Lv::X);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    line_values[fc.inputs()[i]] = pis[i];
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    line_values[fc.dffs()[i]] = state[i];
  }
  const LvOps ops;
  if (injection != nullptr && injection->active()) {
    const net::GateId site = injection->line;
    const Lv faulty = injection->faulty;
    if (site < line_values.size()) {
      // Boundary injection (the site may also be a body; the hook below
      // re-applies after the body's value is computed).
      line_values[site] = combine(good_value(line_values[site]), faulty);
    }
    eval_flat(fc, ops, line_values.data(), [&](net::GateId id, Lv& v) {
      if (id == site) {
        v = combine(good_value(v), faulty);
      }
    });
  } else {
    eval_flat(fc, ops, line_values.data());
  }
}

void SeqSimulator::resettle_frame(std::vector<Lv>& line_values,
                                  BitQueue& work,
                                  const Injection* injection) const {
  const FlatCircuit& fc = *fc_;
  const LvOps ops;
  const net::GateId site = injection != nullptr && injection->active()
                               ? injection->line
                               : net::kNoGate;
  // Body indices are levelized, so pops ascend through the affected cones
  // with every input final; the wave dies wherever a value is unchanged.
  std::uint32_t b;
  while (work.pop(&b)) {
    const net::GateId out = fc.body_out()[b];
    Lv v = eval_body(fc, ops, line_values.data(), b);
    if (out == site) {
      v = combine(good_value(v), injection->faulty);
    }
    if (v == line_values[out]) {
      continue;
    }
    line_values[out] = v;
    for (const std::uint32_t reader : fc.readers(out)) {
      work.push(reader);
    }
  }
}

StateVec SeqSimulator::next_state(std::span<const Lv> line_values) const {
  StateVec next;
  next.reserve(fc_->dff_data().size());
  for (const net::GateId data : fc_->dff_data()) {
    next.push_back(line_values[data]);
  }
  return next;
}

std::vector<Lv> SeqSimulator::outputs(std::span<const Lv> line_values) const {
  std::vector<Lv> pos;
  pos.reserve(fc_->outputs().size());
  for (const net::GateId po : fc_->outputs()) {
    pos.push_back(line_values[po]);
  }
  return pos;
}

bool SeqSimulator::po_differs(StateVec good, StateVec faulty,
                              std::span<const InputVec> frames) const {
  std::vector<Lv> good_lines, faulty_lines;
  for (const InputVec& pis : frames) {
    eval_frame(pis, good, good_lines);
    eval_frame(pis, faulty, faulty_lines);
    for (const net::GateId po : fc_->outputs()) {
      if (is_binary(good_lines[po]) && is_binary(faulty_lines[po]) &&
          good_lines[po] != faulty_lines[po]) {
        return true;
      }
    }
    good = next_state(good_lines);
    faulty = next_state(faulty_lines);
  }
  return false;
}

StateVec SeqSimulator::run(std::span<const InputVec> sequence, StateVec state,
                           std::vector<std::vector<Lv>>* po_trace) const {
  std::vector<Lv> line_values;
  for (const InputVec& pis : sequence) {
    eval_frame(pis, state, line_values);
    if (po_trace != nullptr) {
      po_trace->push_back(outputs(line_values));
    }
    state = next_state(line_values);
  }
  return state;
}

}  // namespace gdf::sim
