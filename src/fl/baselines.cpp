#include "fl/baselines.h"

#include "fl/submodel.h"

namespace helios::fl {

RandomSubmodel::RandomSubmodel(std::uint64_t seed)
    : SyncRoundStrategy("baseline.cycle"), seed_(seed) {}

void RandomSubmodel::start_run(Fleet& fleet) {
  util::Rng rng(seed_);
  client_rng_.clear();
  for (auto& c : fleet.clients()) {
    client_rng_.emplace(c->id(),
                        rng.fork(static_cast<std::uint64_t>(c->id())));
  }
}

std::vector<SyncRoundStrategy::ClientPlan> RandomSubmodel::plan(
    std::span<Client* const> roster, int /*cycle*/) {
  std::vector<ClientPlan> plans(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    Client& client = *roster[i];
    if (client.is_straggler() && client.volume() < 1.0) {
      plans[i].mask =
          random_volume_mask(client.estimation_model(), client.volume(),
                             client_rng_.at(client.id()));
    }
  }
  return plans;
}

void RandomSubmodel::save_state(const Fleet& fleet,
                                CheckpointWriter& w) const {
  (void)fleet;
  w.u32(static_cast<std::uint32_t>(client_rng_.size()));
  for (const auto& [id, rng] : client_rng_) {
    w.i32(id);
    w.rng(rng.state());
  }
}

void RandomSubmodel::load_state(Fleet& fleet, CheckpointReader& r) {
  (void)fleet;
  client_rng_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const int id = r.i32();
    client_rng_.emplace(id, util::Rng::from_state(r.rng()));
  }
}

StaticPrune::StaticPrune(std::uint64_t seed)
    : SyncRoundStrategy("baseline.cycle"), seed_(seed) {}

void StaticPrune::start_run(Fleet& fleet) {
  // One fixed mask per straggler for the whole run.
  util::Rng rng(seed_);
  fixed_.clear();
  for (auto& c : fleet.clients()) {
    if (c->is_straggler() && c->volume() < 1.0) {
      util::Rng crng = rng.fork(static_cast<std::uint64_t>(c->id()));
      fixed_.emplace(c->id(), random_volume_mask(c->estimation_model(),
                                                 c->volume(), crng));
    }
  }
}

std::vector<SyncRoundStrategy::ClientPlan> StaticPrune::plan(
    std::span<Client* const> roster, int /*cycle*/) {
  std::vector<ClientPlan> plans(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    auto it = fixed_.find(roster[i]->id());
    if (it != fixed_.end()) plans[i].mask = it->second;
  }
  return plans;
}

void StaticPrune::save_state(const Fleet& fleet, CheckpointWriter& w) const {
  (void)fleet;
  w.u32(static_cast<std::uint32_t>(fixed_.size()));
  for (const auto& [id, mask] : fixed_) {
    w.i32(id);
    w.vec_u8(mask);
  }
}

void StaticPrune::load_state(Fleet& fleet, CheckpointReader& r) {
  (void)fleet;
  fixed_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const int id = r.i32();
    fixed_.emplace(id, r.vec_u8());
  }
}

}  // namespace helios::fl
