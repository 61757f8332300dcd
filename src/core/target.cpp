#include "core/target.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "device/cost_model.h"
#include "fl/submodel.h"

namespace helios::core {

const std::vector<double>& TargetDeterminer::default_levels() {
  static const std::vector<double> levels{0.5, 0.35, 0.25, 0.2};
  return levels;
}

void TargetDeterminer::assign_predefined(fl::Fleet& fleet,
                                         const StragglerReport& report,
                                         const std::vector<double>& levels) {
  if (levels.empty()) {
    throw std::invalid_argument("assign_predefined: no levels");
  }
  // report.timings is slowest-first; the slowest straggler gets the
  // smallest feasible level ordering: levels are listed strongest-straggler
  // -volume first, so walk stragglers slowest-first through the levels from
  // the back.
  std::vector<int> straggler_order;  // slowest first
  for (const auto& t : report.timings) {
    if (t.straggler) straggler_order.push_back(t.client_id);
  }
  for (std::size_t rank = 0; rank < straggler_order.size(); ++rank) {
    // Slowest straggler -> most aggressive (last) level.
    const std::size_t level_idx =
        levels.size() - 1 -
        std::min(rank, levels.size() - 1);
    if (fl::Client* c = fleet.find_client(straggler_order[rank])) {
      c->set_volume(levels[level_idx]);
    }
  }
}

namespace {

// Architecture-only cost terms by per-layer budget vector, for one planning
// call. A volume's cost depends only on how many neurons per layer train
// (fl::layer_budgets), so bisection steps, and stragglers whose searches meet
// the same budgets, share one mask install and model walk; only the
// device-specific Client::cycle_seconds runs per probe. The empty key is the
// unmasked model (volume >= 1). All clients of one fleet share the
// architecture, so one table serves the whole fleet. It lives no longer
// than the call that builds it, so nothing can go stale.
class CostTable {
 public:
  explicit CostTable(nn::Model& architecture)
      : ranges_(fl::layer_ranges(architecture)),
        neuron_total_(static_cast<std::size_t>(architecture.neuron_total())) {}

  double cycle_seconds(fl::Client& client, double volume) {
    return client.cycle_seconds(terms(client, volume));
  }

  // Largest keep ratio in [min_volume, 1] fitting `pace_seconds` and the
  // device's memory capacity.
  double profile_volume(fl::Client& client, double pace_seconds,
                        double min_volume) {
    if (min_volume <= 0.0 || min_volume > 1.0) {
      throw std::invalid_argument("profile_volume: bad min_volume");
    }
    if (pace_seconds <= 0.0) {
      throw std::invalid_argument("profile_volume: non-positive pace");
    }
    // Binary-search the largest feasible volume; cost is monotone in P.
    double lo = min_volume, hi = 1.0;
    if (cycle_seconds(client, lo) > pace_seconds) {
      return min_volume;  // even the smallest volume misses the pace
    }
    for (int iter = 0; iter < 20; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (cycle_seconds(client, mid) <= pace_seconds) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    // Memory constraint: shrink further while the peak footprint overflows.
    double chosen = lo;
    if (chosen <= min_volume) return chosen;
    const double peak_mb = device::peak_memory_mb(terms(client, 1.0),
                                                  client.config().batch_size);
    while (chosen > min_volume &&
           peak_mb * chosen > client.profile().memory_mb) {
      chosen = std::max(min_volume, chosen - 0.05);
    }
    return chosen;
  }

 private:
  const device::CostTerms& terms(fl::Client& client, double volume) {
    std::vector<int> budgets;
    if (volume < 1.0) budgets = fl::layer_budgets(ranges_, volume);
    auto it = terms_.find(budgets);
    if (it == terms_.end()) {
      // FLOP and upload accounting depend only on how many neurons per
      // layer are active, not which; mask in the first k_i of each layer.
      std::vector<std::uint8_t> mask(budgets.empty() ? 0 : neuron_total_, 0);
      for (std::size_t i = 0; i < budgets.size(); ++i) {
        std::fill_n(mask.begin() + ranges_[i].begin, budgets[i],
                    std::uint8_t{1});
      }
      it = terms_.emplace(std::move(budgets), client.cost_terms(mask)).first;
    }
    return it->second;
  }

  std::vector<fl::LayerNeuronRange> ranges_;
  std::size_t neuron_total_;
  std::map<std::vector<int>, device::CostTerms> terms_;
};

}  // namespace

double TargetDeterminer::cycle_seconds_at_volume(fl::Client& client,
                                                 double volume) {
  return CostTable(client.estimation_model()).cycle_seconds(client, volume);
}

double TargetDeterminer::profile_volume(fl::Client& client,
                                        double pace_seconds,
                                        double min_volume) {
  return CostTable(client.estimation_model())
      .profile_volume(client, pace_seconds, min_volume);
}

std::vector<double> TargetDeterminer::assign_profiled(
    fl::Fleet& fleet, const StragglerReport& report, double min_volume) {
  if (report.pace_seconds <= 0.0) {
    throw std::invalid_argument("assign_profiled: report has no pace");
  }
  CostTable table(fleet.server().reference_model());
  std::vector<double> volumes(fleet.size(), 1.0);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fl::Client& c = fleet.client(i);
    if (!c.is_straggler()) continue;
    const double chosen =
        table.profile_volume(c, report.pace_seconds, min_volume);
    c.set_volume(chosen);
    volumes[i] = chosen;
  }
  return volumes;
}

}  // namespace helios::core
