#include "core/helios_strategy.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "fl/hierarchy.h"
#include "obs/telemetry.h"

namespace helios::core {

HeliosStrategy::HeliosStrategy(HeliosConfig config)
    : SyncRoundStrategy("helios.cycle"), config_(config) {}

std::string HeliosStrategy::name() const {
  return config_.hetero_aggregation ? "Helios" : "S.T. Only";
}

void HeliosStrategy::set_cycle_hook(
    std::function<void(fl::Fleet&, int)> hook) {
  cycle_hook_ = std::move(hook);
}

HeliosStrategy::StragglerState& HeliosStrategy::state_for(fl::Client& client) {
  auto it = state_.find(client.id());
  if (it == state_.end()) {
    StragglerState st;
    SoftTrainerConfig cfg;
    cfg.keep_ratio = client.volume();
    cfg.ps = config_.ps;
    cfg.seed = config_.seed + static_cast<std::uint64_t>(client.id()) * 7919;
    // Architecture-only queries: the estimation model avoids materializing
    // a hibernated client's replica just to read the neuron index.
    st.trainer = std::make_unique<SoftTrainer>(client.estimation_model(), cfg);
    st.regulator = std::make_unique<RotationRegulator>(
        client.estimation_model().neuron_total(), st.trainer->budget_total());
    it = state_.emplace(client.id(), std::move(st)).first;
  }
  return it->second;
}

void HeliosStrategy::start_run(fl::Fleet& fleet) {
  (void)fleet;
  state_.clear();
}

std::vector<fl::Client*> HeliosStrategy::roster(fl::Fleet& fleet, int cycle) {
  if (cycle_hook_) cycle_hook_(fleet, cycle);
  return fleet.round_roster(cycle);
}

std::vector<fl::SyncRoundStrategy::ClientPlan> HeliosStrategy::plan(
    std::span<fl::Client* const> roster, int cycle) {
  HELIOS_TRACE_SPAN("helios.select_submodels", {{"cycle", cycle}});
  std::vector<ClientPlan> plans(roster.size());
  forced_.assign(roster.size(), 0);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    fl::Client& client = *roster[i];
    if (client.is_straggler() && client.volume() < 1.0) {
      StragglerState& st = state_for(client);
      std::vector<int> forced;
      if (config_.rotation_regulation) forced = st.regulator->overdue();
      forced_[i] = static_cast<int>(forced.size());
      plans[i].mask = st.trainer->select_mask(forced);
    }
  }
  return plans;
}

void HeliosStrategy::close_round(fl::Fleet& fleet, Round& round) {
  fl::AggOptions opts;
  opts.hetero_volume_weights = config_.hetero_aggregation;
  opts.per_neuron_merge = config_.hetero_aggregation;
  opts.alpha_damping = config_.alpha_damping;
  const fl::NetDelivery& net = round.net;
  const std::vector<fl::ClientUpdate>& updates = round.updates;
  obs::TelemetrySink* tel = fleet.telemetry();

  // Contribution updates + rotation bookkeeping + aggregation. Only
  // *delivered* updates count: if a straggler's frame was dropped, the
  // server never saw its parameters, so crediting contributions and
  // advancing the C_s rotation counters would drift the soft-training
  // state away from what actually aggregated. In the extreme case — the
  // whole cohort lost before the deadline — the round must close as a
  // clean no-op (Server::aggregate already skips an empty span).
  // With an aggregator tree attached, the U^ij statistics are computed by
  // the edge nodes while folding (stage_bookkeeping arms that), so the
  // aggregation runs first and the loop below adopts each device's
  // root-merged shard — bit-identical to computing it here, because the
  // edges run agg::neuron_change_means on the decoded (bit-exact) params
  // against the same base snapshot. Devices are partitioned across edges,
  // so the root's merge of the shards is an exact disjoint union, and the
  // C_s rotation counters stay per-device (disjoint by construction).
  fl::HierarchySession* hier = fleet.hierarchy();
  const bool sharded_bookkeeping = hier != nullptr && hier->active();
  if (sharded_bookkeeping) {
    hier->stage_bookkeeping(round.global_before);
    fleet.server().aggregate(net.aggregate_span(updates), opts);
  }
  for (std::size_t i = 0; i < round.roster.size(); ++i) {
    const std::vector<std::uint8_t>& mask = round.plans[i].mask;
    if (mask.empty()) continue;
    if (!net.pass_through && !net.delivered[i]) continue;
    StragglerState& st = state_for(*round.roster[i]);
    const std::vector<double>* shard =
        sharded_bookkeeping ? hier->contributions_for(round.roster[i]->id())
                            : nullptr;
    if (shard != nullptr) {
      st.trainer->apply_contributions(mask, *shard);
    } else {
      st.trainer->update_contributions(round.global_before,
                                       updates[i].params, mask);
    }
    st.regulator->record_cycle(mask);
    if (tel) {
      // Skipped-cycle distribution: neurons with C_s = 0 / 1 / 2 / >= 3.
      std::array<int, 4> cs{0, 0, 0, 0};
      const int m = st.regulator->neuron_total();
      for (int j = 0; j < m; ++j) {
        cs[static_cast<std::size_t>(
            std::min(st.regulator->skipped_cycles(j), 3))]++;
      }
      tel->record_rotation(round.roster[i]->id(), forced_[i], cs);
    }
  }
  if (!sharded_bookkeeping) {
    fleet.server().aggregate(net.aggregate_span(updates), opts);
  }

  // Pace adaptation during the first cycles (Sec. V-A Step 1 — "Helios
  // needs first few training cycles to finalize the stragglers and model
  // volumes"). Uses the *observed* per-device times, so under a simulated
  // network the wire (retries included) drives the volumes.
  if (round.cycle >= config_.pace_adaptation_cycles) return;
  double capable_pace = 0.0;
  for (std::size_t i = 0; i < round.roster.size(); ++i) {
    if (!round.roster[i]->is_straggler()) {
      capable_pace = std::max(
          capable_pace, updates[i].train_seconds + net.comm_seconds[i]);
    }
  }
  if (capable_pace <= 0.0) return;
  for (std::size_t i = 0; i < round.roster.size(); ++i) {
    fl::Client& c = *round.roster[i];
    if (round.plans[i].mask.empty()) continue;
    if (!c.active()) continue;  // died this round
    const double ratio =
        (updates[i].train_seconds + net.comm_seconds[i]) / capable_pace;
    // Outside a 10% band, rescale the volume toward the pace.
    if (ratio > 1.1 || ratio < 0.9) {
      const double next =
          std::clamp(c.volume() / ratio, config_.min_volume, 1.0);
      c.set_volume(next);
      StragglerState& st = state_for(c);
      st.trainer->set_keep_ratio(next);
      st.regulator->set_budget_total(st.trainer->budget_total());
    }
  }
}

void HeliosStrategy::save_state(const fl::Fleet& fleet,
                                fl::CheckpointWriter& w) const {
  (void)fleet;
  std::vector<int> ids;
  ids.reserve(state_.size());
  for (const auto& [id, st] : state_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (int id : ids) {
    const StragglerState& st = state_.at(id);
    w.i32(id);
    w.f64(st.trainer->keep_ratio());
    w.vec_f64(st.trainer->contributions());
    w.rng(st.trainer->rng_state());
    w.vec_i32(st.regulator->skipped());
  }
}

void HeliosStrategy::load_state(fl::Fleet& fleet, fl::CheckpointReader& r) {
  state_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const int id = r.i32();
    const double keep_ratio = r.f64();
    std::vector<double> contributions = r.vec_f64();
    const util::RngState rng = r.rng();
    std::vector<int> skipped = r.vec_i32();
    fl::Client* client = fleet.find_client(id);
    if (client == nullptr) {
      throw fl::CheckpointError(
          "HeliosStrategy: checkpointed straggler id not in fleet");
    }
    // state_for rebuilds geometry from the estimation model; overlay the
    // carried state on top.
    StragglerState& st = state_for(*client);
    st.trainer->set_keep_ratio(keep_ratio);
    st.trainer->set_contributions(std::move(contributions));
    st.trainer->set_rng_state(rng);
    st.regulator->set_budget_total(st.trainer->budget_total());
    st.regulator->set_skipped(std::move(skipped));
  }
}

}  // namespace helios::core
