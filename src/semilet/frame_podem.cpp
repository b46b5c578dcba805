#include "semilet/frame_podem.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace gdf::semilet {

using net::GateId;
using net::GateType;
using sim::Lv;

namespace {

Lv negate_bit(Lv v) {
  GDF_ASSERT(sim::is_binary(v), "negate_bit on non-binary value");
  return v == Lv::Zero ? Lv::One : Lv::Zero;
}

/// Controlling value of the gate body (And/Or families); Xor has none.
bool body_has_controlling(GateType type, Lv* controlling) {
  switch (type) {
    case GateType::And:
    case GateType::Nand:
      *controlling = Lv::Zero;
      return true;
    case GateType::Or:
    case GateType::Nor:
      *controlling = Lv::One;
      return true;
    default:
      return false;
  }
}

}  // namespace

FramePodem::FramePodem(const sim::SeqSimulator& sim, Budget& budget,
                       PodemRequest request)
    : sim_(&sim),
      nl_(&sim.netlist()),
      budget_(&budget),
      request_(std::move(request)) {
  GDF_ASSERT(request_.in_state.size() == nl_->dffs().size(),
             "in_state size mismatch");
  GDF_ASSERT(request_.assignable_ppi.size() == nl_->dffs().size(),
             "assignable mask size mismatch");
  pis_ = request_.base_pis.empty()
             ? sim::InputVec(nl_->inputs().size(), Lv::X)
             : request_.base_pis;
  GDF_ASSERT(pis_.size() == nl_->inputs().size(), "base PI size mismatch");
  state_ = request_.in_state;
  if (request_.mode != PodemMode::ObserveFault) {
    return;
  }
  // Decisions assign only 0/1, so D/D' can appear only downstream of the
  // entering boundary's fault effects and of the injection site: the lines
  // collect_effects() has to look at, fixed for this search's life.
  const sim::FlatCircuit& fc = *sim.flat();
  std::vector<std::uint8_t> reached(nl_->size(), 0);
  const auto reach = [&](GateId line) {
    if (reached[line] == 0) {
      reached[line] = 1;
      effect_cone_.push_back(line);
    }
  };
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    if (sim::is_fault_effect(pis_[i])) {
      reach(nl_->inputs()[i]);
    }
  }
  for (std::size_t k = 0; k < state_.size(); ++k) {
    if (sim::is_fault_effect(state_[k])) {
      reach(nl_->dffs()[k]);
    }
  }
  if (request_.injection.active()) {
    reach(request_.injection.line);
  }
  for (std::size_t head = 0; head < effect_cone_.size(); ++head) {
    for (const std::uint32_t b : fc.readers(effect_cone_[head])) {
      reach(fc.body_out()[b]);
    }
  }
}

void FramePodem::simulate() {
  const sim::Injection* injection =
      request_.injection.active() ? &request_.injection : nullptr;
  if (!lines_ready_) {
    sim_->eval_frame(pis_, state_, lines_, injection);
    lines_ready_ = true;
    changed_sources_.clear();
    collect_effects();
    return;
  }
  if (changed_sources_.empty()) {
    return;  // still settled from the previous iteration
  }
  // Delta resettle: write the changed boundary values (re-applying the
  // injection when it sits on one) and replay only their cones. Exactly
  // equivalent to the full eval_frame above.
  const sim::FlatCircuit& fc = *sim_->flat();
  work_.begin(fc.body_count());
  bool any = false;
  for (const auto& [is_ppi, index] : changed_sources_) {
    const net::GateId line =
        is_ppi ? nl_->dffs()[index] : nl_->inputs()[index];
    Lv v = is_ppi ? state_[index] : pis_[index];
    if (injection != nullptr && injection->line == line) {
      v = sim::combine(sim::good_value(v), injection->faulty);
    }
    if (v == lines_[line]) {
      continue;
    }
    lines_[line] = v;
    for (const std::uint32_t reader : fc.readers(line)) {
      work_.push(reader);
    }
    any = true;
  }
  changed_sources_.clear();
  if (any) {
    sim_->resettle_frame(lines_, work_, injection);
    collect_effects();
  }
}

void FramePodem::collect_effects() {
  effects_.clear();
  for (const GateId id : effect_cone_) {
    if (sim::is_fault_effect(lines_[id])) {
      effects_.push_back(id);
    }
  }
}

bool FramePodem::success() const {
  if (request_.mode == PodemMode::JustifyValues) {
    for (const auto& [line, value] : request_.objectives) {
      if (lines_[line] != value) {
        return false;
      }
    }
    return true;
  }
  bool po = false;
  for (const GateId out : nl_->outputs()) {
    if (sim::is_fault_effect(lines_[out])) {
      po = true;
      break;
    }
  }
  if (po) {
    return true;
  }
  if (request_.require_po) {
    return false;
  }
  for (const GateId ppo : sim_->flat()->dff_data()) {
    if (sim::is_fault_effect(lines_[ppo])) {
      return true;
    }
  }
  return false;
}

bool FramePodem::hopeless() const {
  if (request_.mode == PodemMode::JustifyValues) {
    // An objective simulating to the opposite definite value is dead.
    for (const auto& [line, value] : request_.objectives) {
      const Lv now = lines_[line];
      if (sim::is_binary(now) && now != value) {
        return true;
      }
      if (sim::is_fault_effect(now)) {
        return true;  // justification targets are good-machine values
      }
    }
    return false;
  }
  // ObserveFault: X-path check — some D/D' line must reach an observation
  // point through X-valued lines, walked over the flat circuit's reader
  // CSR from the settled frame's fault-effect lines. Scratch buffers are
  // members and the visited set is epoch-stamped: this runs every search
  // iteration, and re-zeroing the whole vector would cost O(circuit) per
  // call while the walk itself usually touches a handful of lines.
  if (effects_.empty()) {
    if (request_.activation_line != net::kNoGate &&
        lines_[request_.activation_line] == Lv::X) {
      return false;  // the fault could still be activated in this frame
    }
    return true;  // the fault effect died (or cannot appear) in this frame
  }
  if (seen_.size() != nl_->size()) {
    seen_.assign(nl_->size(), 0);
    seen_epoch_ = 0;
  }
  if (++seen_epoch_ == 0) {  // wrapped: stale stamps could collide
    std::fill(seen_.begin(), seen_.end(), 0);
    seen_epoch_ = 1;
  }
  const sim::FlatCircuit& fc = *sim_->flat();
  const std::span<const GateId> body_out = fc.body_out();
  const std::span<const int> obs_distance = fc.obs_distance();
  bfs_.assign(effects_.begin(), effects_.end());
  for (const GateId id : bfs_) {
    seen_[id] = seen_epoch_;
  }
  for (std::size_t head = 0; head < bfs_.size(); ++head) {
    const GateId id = bfs_[head];
    // Observation distance 0 marks exactly the POs and the DFF data pins.
    if (obs_distance[id] == 0 && (!request_.require_po || nl_->is_po(id))) {
      return false;
    }
    for (const std::uint32_t b : fc.readers(id)) {
      const GateId reader = body_out[b];
      if (seen_[reader] == seen_epoch_) {
        continue;
      }
      const Lv v = lines_[reader];
      if (v == Lv::X || sim::is_fault_effect(v)) {
        seen_[reader] = seen_epoch_;
        bfs_.push_back(reader);
      }
    }
  }
  return true;
}

bool FramePodem::choose_objective(GateId* line, Lv* value) const {
  if (request_.mode == PodemMode::JustifyValues) {
    for (const auto& [l, v] : request_.objectives) {
      if (lines_[l] == Lv::X) {
        *line = l;
        *value = v;
        return true;
      }
    }
    return false;
  }
  // No fault effect yet: work on activation first (stuck-at use).
  if (request_.activation_line != net::kNoGate && effects_.empty()) {
    if (lines_[request_.activation_line] == Lv::X) {
      *line = request_.activation_line;
      *value = request_.activation_value;
      return true;
    }
    return false;
  }
  // D-frontier: gate with X output and a fault effect on an input, read
  // off the fault-effect lines' readers; pick the one closest to an
  // observation point, the lowest gate id among equals, then set one X
  // input to the non-controlling (sensitizing) value.
  const sim::FlatCircuit& fc = *sim_->flat();
  const std::span<const GateId> body_out = fc.body_out();
  const std::span<const int> obs_distance = fc.obs_distance();
  GateId best = net::kNoGate;
  for (const GateId effect : effects_) {
    for (const std::uint32_t b : fc.readers(effect)) {
      const GateId id = body_out[b];
      if (lines_[id] != Lv::X) {
        continue;
      }
      if (best == net::kNoGate || obs_distance[id] < obs_distance[best] ||
          (obs_distance[id] == obs_distance[best] && id < best)) {
        best = id;
      }
    }
  }
  if (best == net::kNoGate) {
    return false;
  }
  const net::Gate& g = nl_->gate(best);
  Lv noncontrolling = Lv::One;
  Lv controlling;
  if (body_has_controlling(g.type, &controlling)) {
    noncontrolling = negate_bit(controlling);
  }
  for (const GateId driver : g.fanin) {
    if (lines_[driver] == Lv::X) {
      *line = driver;
      // XOR bodies have no controlling value; any definite value
      // sensitizes, so One/Zero are both fine — prefer the non-controlling
      // convention for uniformity.
      *value = noncontrolling;
      return true;
    }
  }
  return false;
}

bool FramePodem::backtrace(GateId line, Lv value, Decision* decision) const {
  GDF_ASSERT(sim::is_binary(value), "backtrace value must be binary");
  const sim::FlatCircuit& fc = *sim_->flat();
  const std::span<const int> level = fc.level();
  for (;;) {
    const net::Gate& g = nl_->gate(line);
    if (g.type == GateType::Input) {
      for (std::size_t i = 0; i < nl_->inputs().size(); ++i) {
        if (nl_->inputs()[i] == line) {
          *decision = {false, i, value, false};
          return true;
        }
      }
      GDF_ASSERT(false, "input gate not in inputs list");
    }
    if (g.type == GateType::Dff) {
      for (std::size_t i = 0; i < nl_->dffs().size(); ++i) {
        if (nl_->dffs()[i] == line) {
          if (!request_.assignable_ppi[i] || state_[i] != Lv::X) {
            return false;  // fixed-but-unknown U value: not assignable
          }
          *decision = {true, i, value, false};
          return true;
        }
      }
      GDF_ASSERT(false, "dff gate not in dffs list");
    }
    const Lv body_value = net::is_inverting(g.type) ? negate_bit(value)
                                                    : value;
    // Choose the X input to chase; prefer inputs that can reach a primary
    // input so the walk ends at an assignable source, and among those the
    // shallowest one (a cheap controllability estimate — e.g. a global
    // clear line beats re-justifying a whole carry chain).
    GateId chosen = net::kNoGate;
    for (const GateId driver : g.fanin) {
      if (lines_[driver] != Lv::X) {
        continue;
      }
      if (chosen == net::kNoGate) {
        chosen = driver;
        continue;
      }
      if (fc.pi_reachable(driver) != fc.pi_reachable(chosen)) {
        if (fc.pi_reachable(driver)) {
          chosen = driver;
        }
        continue;
      }
      if (level[driver] < level[chosen]) {
        chosen = driver;
      }
    }
    if (chosen == net::kNoGate) {
      return false;  // definite already; the caller treats it as conflict
    }
    Lv next_value = body_value;
    if (g.type == GateType::Xor || g.type == GateType::Xnor) {
      // target = body_value XOR (definite part of the other inputs);
      // unknown others are assumed 0 — heuristic, corrected by backtrack.
      int parity = body_value == Lv::One ? 1 : 0;
      for (const GateId driver : g.fanin) {
        if (driver != chosen && lines_[driver] == Lv::One) {
          parity ^= 1;
        }
      }
      next_value = parity == 1 ? Lv::One : Lv::Zero;
    } else {
      Lv controlling;
      if (body_has_controlling(g.type, &controlling)) {
        // body 0 for AND: one controlling input suffices; body 1: all
        // inputs non-controlling. Either way the chosen X input gets:
        next_value = body_value == controlling ? controlling
                                               : negate_bit(controlling);
      }
      // Buf/Not handled by body_value already (single input).
    }
    line = chosen;
    value = next_value;
  }
}

void FramePodem::apply(const Decision& d) {
  if (d.is_ppi) {
    GDF_ASSERT(state_[d.index] == Lv::X, "PPI already assigned");
    state_[d.index] = d.value;
  } else {
    GDF_ASSERT(pis_[d.index] == Lv::X, "PI already assigned");
    pis_[d.index] = d.value;
  }
  changed_sources_.emplace_back(d.is_ppi, d.index);
  stack_.push_back(d);
}

bool FramePodem::backtrack() {
  if (!budget_->note_backtrack()) {
    aborted_ = true;
    return false;
  }
  while (!stack_.empty()) {
    Decision& d = stack_.back();
    if (!d.flipped) {
      d.flipped = true;
      d.value = negate_bit(d.value);
      if (d.is_ppi) {
        state_[d.index] = d.value;
      } else {
        pis_[d.index] = d.value;
      }
      changed_sources_.emplace_back(d.is_ppi, d.index);
      return true;
    }
    if (d.is_ppi) {
      state_[d.index] = Lv::X;
    } else {
      pis_[d.index] = Lv::X;
    }
    changed_sources_.emplace_back(d.is_ppi, d.index);
    stack_.pop_back();
  }
  return false;
}

void FramePodem::fill_solution(FrameSolution* out) const {
  out->pis = pis_;
  out->ppi_assignments.clear();
  for (const Decision& d : stack_) {
    if (d.is_ppi) {
      out->ppi_assignments.emplace_back(d.index, d.value);
    }
  }
  out->line_values = lines_;
  out->po_hit = false;
  out->ppo_hit = false;
  for (const GateId po : nl_->outputs()) {
    if (sim::is_fault_effect(lines_[po])) {
      out->po_hit = true;
    }
  }
  for (const GateId ppo : sim_->flat()->dff_data()) {
    if (sim::is_fault_effect(lines_[ppo])) {
      out->ppo_hit = true;
    }
  }
}

PodemStatus FramePodem::next(FrameSolution* out) {
  if (aborted_) {
    return PodemStatus::Aborted;
  }
  // Resume past the previous solution.
  if (started_ && !backtrack()) {
    return aborted_ ? PodemStatus::Aborted : PodemStatus::Exhausted;
  }
  started_ = true;
  for (;;) {
    simulate();
    if (success()) {
      if (out != nullptr) {
        fill_solution(out);
      }
      return PodemStatus::Solution;
    }
    GateId line;
    Lv value;
    Decision d;
    if (hopeless() || !choose_objective(&line, &value) ||
        !backtrace(line, value, &d)) {
      if (!backtrack()) {
        return aborted_ ? PodemStatus::Aborted : PodemStatus::Exhausted;
      }
      continue;
    }
    apply(d);
  }
}

}  // namespace gdf::semilet
