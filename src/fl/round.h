// The synchronous round driver. Syn. FL, FedProx, Random, Static Prune,
// top-k compressed FedAvg and Helios all run the same round; they differ
// only in the policy hooks below. One round, in order:
//
//   1. telemetry cycle and the strategy's per-cycle trace span;
//   2. roster(): the round's participants;
//   3. plan(): each participant's submodel mask and work scale, drawn
//      sequentially (policies may consume RNG state here);
//   4. one snapshot of the global parameters and buffers;
//   5. Fleet::parallel_train from that snapshot, finish_update() applied to
//      each update on its worker;
//   6. deliver_round, then the virtual clock advances by the round length;
//   7. close_round(): aggregation plus any bookkeeping of the policy;
//   8. evaluation and the RoundRecord (mean loss over max(1, n)
//      participants), reported to telemetry.
//
// The event-driven strategies (AFO, and Asyn. FL in its fully asynchronous
// mode) run on fl::Afo's completion loop instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fl/strategy.h"
#include "fl/transport.h"

namespace helios::fl {

/// Appends `record` to `result` and reports it to the fleet's telemetry.
void record_round(Fleet& fleet, RunResult& result, const RoundRecord& record);

class SyncRoundStrategy : public Strategy {
 public:
  void run_range(Fleet& fleet, RunResult& result, int begin,
                 int end) final;

 protected:
  /// One participant's work order for the round.
  struct ClientPlan {
    std::vector<std::uint8_t> mask;  ///< empty = full model
    double work = 1.0;               ///< fraction of each epoch's batches
  };
  /// A delivered round, as close_round sees it; vectors in roster order.
  struct Round {
    int cycle = 0;
    std::vector<Client*> roster;
    std::vector<ClientPlan> plans;
    std::vector<float> global_before;
    std::vector<float> buffers_before;
    std::vector<ClientUpdate> updates;
    NetDelivery net;
  };

  /// `cycle_span` names the per-cycle trace span (a string literal).
  explicit SyncRoundStrategy(const char* cycle_span)
      : cycle_span_(cycle_span) {}

  /// Called when a run starts at cycle 0: (re)initialize policy state.
  virtual void start_run(Fleet& fleet) { (void)fleet; }
  /// The round's participants (default: the fleet's round roster).
  virtual std::vector<Client*> roster(Fleet& fleet, int cycle) {
    return fleet.round_roster(cycle);
  }
  /// Per-participant plans, one per roster entry (default: full model,
  /// full work).
  virtual std::vector<ClientPlan> plan(std::span<Client* const> roster,
                                       int cycle) {
    (void)cycle;
    return std::vector<ClientPlan>(roster.size());
  }
  /// Runs on the training worker right after `update` was trained from
  /// `base`; must touch no shared state.
  virtual void finish_update(const Fleet& fleet, std::span<const float> base,
                             ClientUpdate& update) const {
    (void)fleet;
    (void)base;
    (void)update;
  }
  /// Aggregates the delivered round (default: sample-weighted FedAvg).
  virtual void close_round(Fleet& fleet, Round& round);

 private:
  const char* cycle_span_;
};

}  // namespace helios::fl
