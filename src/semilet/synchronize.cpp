#include "semilet/synchronize.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "sim/sync_library.hpp"

namespace gdf::semilet {

using sim::Lv;

namespace {

std::string requirement_key(
    std::vector<std::pair<std::size_t, Lv>> requirements) {
  std::sort(requirements.begin(), requirements.end());
  std::string key;
  for (const auto& [ff, v] : requirements) {
    key += std::to_string(ff);
    key.push_back(v == Lv::One ? '1' : '0');
    key.push_back(',');
  }
  return key;
}

}  // namespace

Synchronizer::Synchronizer(const net::Netlist& nl, Budget& budget)
    : nl_(&nl), sim_(nl), budget_(&budget) {}

Synchronizer::Synchronizer(std::shared_ptr<const sim::FlatCircuit> fc,
                           Budget& budget)
    : nl_(&fc->netlist()), sim_(std::move(fc)), budget_(&budget) {}

bool Synchronizer::push_layer(
    std::vector<std::pair<std::size_t, Lv>> requirements) {
  if (layers_.size() >=
      static_cast<std::size_t>(budget_->options().max_sync_frames)) {
    return false;
  }
  PodemRequest request;
  request.mode = PodemMode::JustifyValues;
  request.in_state.assign(nl_->dffs().size(), Lv::X);
  request.assignable_ppi.assign(nl_->dffs().size(), true);
  for (const auto& [ff, v] : requirements) {
    request.objectives.emplace_back(nl_->gate(nl_->dffs()[ff]).fanin[0], v);
  }
  Layer layer;
  layer.podem =
      std::make_unique<FramePodem>(sim_, *budget_, std::move(request));
  layer.requirements = std::move(requirements);
  layers_.push_back(std::move(layer));
  return true;
}

SeqStatus Synchronizer::synchronize(
    std::vector<std::pair<std::size_t, Lv>> requirements, SyncResult* out) {
  if (requirements.empty()) {
    if (out != nullptr) {
      out->frames.clear();
    }
    return SeqStatus::Success;
  }
  // Forward step: the shortest covering prefix of the circuit's random
  // simulation library, at no search cost.
  const std::size_t max_frames = static_cast<std::size_t>(
      std::max(0, budget_->options().max_sync_frames));
  if (sim_.flat()->sync_library().find_prefix(
          requirements, max_frames, out != nullptr ? &out->frames : nullptr)) {
    return SeqStatus::Success;
  }
  layers_.clear();
  seen_.clear();
  seen_.insert(requirement_key(requirements));
  push_layer(std::move(requirements));

  while (!layers_.empty()) {
    Layer& top = layers_.back();
    const PodemStatus status = top.podem->next(&top.sol);
    if (status == PodemStatus::Aborted) {
      return SeqStatus::Aborted;
    }
    if (status == PodemStatus::Exhausted) {
      layers_.pop_back();
      continue;
    }
    if (top.sol.ppi_assignments.empty()) {
      // The deepest frame needs no state support: the sequence is
      // complete. Layers were built from latest to earliest, so reverse.
      if (out != nullptr) {
        out->frames.clear();
        for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
          out->frames.push_back(it->sol.pis);
        }
      }
      return SeqStatus::Success;
    }
    // The frame leaned on state bits: they become the requirements of an
    // earlier frame (reverse time processing).
    std::vector<std::pair<std::size_t, Lv>> earlier =
        top.sol.ppi_assignments;
    const std::string key = requirement_key(earlier);
    if (!seen_.insert(key).second) {
      continue;  // a repeating requirement set cannot make progress
    }
    push_layer(std::move(earlier));
  }
  return SeqStatus::Exhausted;
}

}  // namespace gdf::semilet
