#include "semilet/propagate.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace gdf::semilet {

using sim::Lv;

namespace {

std::string state_key(const sim::StateVec& state) {
  std::string key;
  key.reserve(state.size());
  for (const Lv v : state) {
    key.push_back(static_cast<char>('0' + static_cast<int>(v)));
  }
  return key;
}

bool has_fault_effect(const sim::StateVec& state) {
  return std::any_of(state.begin(), state.end(), sim::is_fault_effect);
}

}  // namespace

Propagator::Propagator(const net::Netlist& nl, Budget& budget)
    : nl_(&nl), sim_(nl), budget_(&budget) {}

Propagator::Propagator(std::shared_ptr<const sim::FlatCircuit> fc,
                       Budget& budget)
    : nl_(&fc->netlist()), sim_(std::move(fc)), budget_(&budget) {}

void Propagator::start(sim::StateVec boundary_state,
                       std::vector<bool> assignable) {
  layers_.clear();
  seen_.clear();
  started_ = true;
  if (!has_fault_effect(boundary_state)) {
    return;  // nothing to propagate; next() reports Exhausted
  }
  seen_.insert(state_key(boundary_state));
  push_layer(std::move(boundary_state), std::move(assignable));
}

bool Propagator::push_layer(sim::StateVec in_state,
                            std::vector<bool> assignable) {
  if (layers_.size() >=
      static_cast<std::size_t>(
          budget_->options().max_propagation_frames)) {
    return false;
  }
  PodemRequest po_request;
  po_request.mode = PodemMode::ObserveFault;
  po_request.in_state = in_state;
  po_request.assignable_ppi = assignable;
  po_request.require_po = true;
  PodemRequest advance_request = po_request;
  advance_request.require_po = false;
  Layer layer;
  layer.po_podem =
      std::make_unique<FramePodem>(sim_, *budget_, std::move(po_request));
  layer.advance_podem = std::make_unique<FramePodem>(
      sim_, *budget_, std::move(advance_request));
  layer.in_state = std::move(in_state);
  layer.assignable = std::move(assignable);
  layers_.push_back(std::move(layer));
  return true;
}

SeqStatus Propagator::next(PropagationOutcome* out) {
  GDF_ASSERT(started_, "Propagator::next before start");
  while (!layers_.empty()) {
    Layer& top = layers_.back();
    if (!top.advancing) {
      // Phase one: drive the fault effect to a PO inside this frame.
      const PodemStatus status = top.po_podem->next(&top.sol);
      if (status == PodemStatus::Aborted) {
        return SeqStatus::Aborted;
      }
      if (status == PodemStatus::Solution) {
        if (justify(out)) {
          return SeqStatus::Success;
        }
        if (budget_->exhausted()) {
          return SeqStatus::Aborted;
        }
        continue;  // next PO sensitization
      }
      top.advancing = true;
    }
    // Phase two: carry the effect into the next frame.
    const PodemStatus status = top.advance_podem->next(&top.sol);
    if (status == PodemStatus::Aborted) {
      return SeqStatus::Aborted;
    }
    if (status == PodemStatus::Exhausted) {
      layers_.pop_back();
      continue;
    }
    sim::StateVec next_state = sim_.next_state(top.sol.line_values);
    if (!has_fault_effect(next_state)) {
      continue;
    }
    if (!seen_.insert(state_key(next_state)).second) {
      continue;  // an identical sub-search was already explored
    }
    // Bits that are X in the advanced state arose from X logic in this
    // frame, so requiring them is justifiable through it.
    std::vector<bool> assignable(next_state.size());
    for (std::size_t i = 0; i < next_state.size(); ++i) {
      assignable[i] = next_state[i] == Lv::X;
    }
    push_layer(std::move(next_state), std::move(assignable));
  }
  return SeqStatus::Exhausted;
}

bool Propagator::justify(PropagationOutcome* out) {
  // Collect per-boundary requirements: layer t's PPI assignments constrain
  // the state entering frame t.
  std::vector<std::vector<std::pair<std::size_t, Lv>>> reqs(layers_.size());
  for (std::size_t t = 0; t < layers_.size(); ++t) {
    reqs[t] = layers_[t].sol.ppi_assignments;
  }
  std::vector<sim::InputVec> justified_pis(layers_.size());
  for (std::size_t t = 0; t < layers_.size(); ++t) {
    justified_pis[t] = layers_[t].sol.pis;
  }

  // Reverse time processing: resolve boundary-t requirements inside frame
  // t-1, possibly creating boundary-(t-1) requirements.
  for (std::size_t t = layers_.size(); t-- > 1;) {
    if (reqs[t].empty()) {
      continue;
    }
    Layer& below = layers_[t - 1];
    PodemRequest request;
    request.mode = PodemMode::JustifyValues;
    request.in_state = below.in_state;
    for (const auto& [ff, v] : below.sol.ppi_assignments) {
      request.in_state[ff] = v;  // already-required bits are fixed here
    }
    request.assignable_ppi.assign(below.in_state.size(), false);
    for (std::size_t i = 0; i < request.in_state.size(); ++i) {
      request.assignable_ppi[i] =
          request.in_state[i] == Lv::X && below.assignable[i];
    }
    request.base_pis = justified_pis[t - 1];
    for (const auto& [ff, v] : reqs[t]) {
      request.objectives.emplace_back(
          nl_->gate(nl_->dffs()[ff]).fanin[0], v);
    }
    FramePodem justifier(sim_, *budget_, std::move(request));
    FrameSolution jsol;
    if (justifier.next(&jsol) != PodemStatus::Solution) {
      return false;
    }
    justified_pis[t - 1] = jsol.pis;
    for (const auto& [ff, v] : jsol.ppi_assignments) {
      // Merge with requirements already present at this boundary.
      bool conflict = false;
      bool present = false;
      for (const auto& [ff2, v2] : reqs[t - 1]) {
        if (ff2 == ff) {
          present = true;
          conflict = v2 != v;
          break;
        }
      }
      if (conflict) {
        return false;
      }
      if (!present) {
        reqs[t - 1].emplace_back(ff, v);
      }
    }
  }

  if (out != nullptr) {
    out->frames = std::move(justified_pis);
    out->boundary_requirements.clear();
    if (!reqs.empty()) {
      out->boundary_requirements = reqs[0];
    }
  }
  return true;
}

}  // namespace gdf::semilet
