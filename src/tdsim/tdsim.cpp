#include "tdsim/tdsim.hpp"

namespace gdf::tdsim {

using alg::NodeId;
using alg::V8;
using alg::VSet;
using alg::vset_carrier_only;

namespace {

/// Robust activation of the fault requires a guaranteed clean transition
/// of the right polarity at the site.
bool activated(VSet fault_free_site, bool slow_to_rise) {
  return fault_free_site ==
         alg::vset_of(slow_to_rise ? V8::Rise : V8::Fall);
}

}  // namespace

bool Tdsim::credited(const TdsimRequest& request,
                     std::span<const alg::VSet> fault_free,
                     std::span<const alg::VSet> injected) const {
  for (const NodeId obs : model_->observation_points()) {
    if (model_->node(obs).is_po && vset_carrier_only(injected[obs])) {
      return true;
    }
  }
  for (std::size_t k = 0; k < model_->ppis().size(); ++k) {
    if (k >= request.observable_ppo.size() || !request.observable_ppo[k]) {
      continue;
    }
    const NodeId ppo = model_->ppo_node(k);
    if (!vset_carrier_only(injected[ppo])) {
      continue;
    }
    // The paper's invalidation trace: the fault must leave every state bit
    // the propagation phase relies on exactly as in the good machine.
    bool invalidates = false;
    for (const std::size_t q : request.needed_ppos) {
      if (q == k) {
        continue;
      }
      const NodeId needed = model_->ppo_node(q);
      if (injected[needed] != fault_free[needed]) {
        invalidates = true;
        break;
      }
    }
    if (!invalidates) {
      return true;
    }
  }
  return false;
}

std::vector<bool> Tdsim::detect(
    const TdsimRequest& request,
    std::span<const tdgen::DelayFault> faults) const {
  std::vector<VSet> fault_free;
  sim_.run(request.stimulus, nullptr, fault_free);
  std::vector<bool> detected(faults.size(), false);
  std::vector<VSet> injected;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const NodeId site = model_->head_of(faults[i].line);
    if (!activated(fault_free[site], faults[i].slow_to_rise)) {
      continue;
    }
    sim_.run_injected(fault_free, {site, faults[i].slow_to_rise}, injected);
    detected[i] = credited(request, fault_free, injected);
  }
  return detected;
}

}  // namespace gdf::tdsim
