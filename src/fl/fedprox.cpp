#include "fl/fedprox.h"

#include <algorithm>
#include <stdexcept>

namespace helios::fl {

FedProx::FedProx(float mu, double min_work)
    : SyncRoundStrategy("fedprox.cycle"), mu_(mu), min_work_(min_work) {
  if (mu < 0.0F) throw std::invalid_argument("FedProx: negative mu");
  if (min_work <= 0.0 || min_work > 1.0) {
    throw std::invalid_argument("FedProx: min_work out of (0, 1]");
  }
}

void FedProx::start_run(Fleet& fleet) {
  for (auto& client : fleet.clients()) client->set_proximal_mu(mu_);
}

std::vector<SyncRoundStrategy::ClientPlan> FedProx::plan(
    std::span<Client* const> roster, int /*cycle*/) {
  std::vector<ClientPlan> plans(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (roster[i]->is_straggler()) {
      plans[i].work = std::clamp(roster[i]->volume(), min_work_, 1.0);
    }
  }
  return plans;
}

}  // namespace helios::fl
