#include "fl/round.h"

#include <algorithm>

#include "obs/telemetry.h"

namespace helios::fl {

void record_round(Fleet& fleet, RunResult& result, const RoundRecord& record) {
  result.rounds.push_back(record);
  if (obs::TelemetrySink* tel = fleet.telemetry()) {
    tel->record_cycle_result(result.method, record.cycle,
                             record.virtual_time, record.test_accuracy,
                             record.mean_train_loss, record.upload_mb);
  }
}

void SyncRoundStrategy::run_range(Fleet& fleet, RunResult& result, int begin,
                                  int end) {
  if (begin == 0) start_run(fleet);
  obs::TelemetrySink* tel = fleet.telemetry();
  for (int cycle = begin; cycle < end; ++cycle) {
    HELIOS_TRACE_SPAN(cycle_span_, {{"cycle", cycle}});
    if (tel) tel->set_cycle(cycle);
    Round round;
    round.cycle = cycle;
    round.roster = roster(fleet, cycle);
    round.plans = plan(round.roster, cycle);
    // The plans were all drawn above, so the training cycles are
    // independent and fan out; the updates come back in roster order.
    round.global_before = fleet.server().global();
    round.buffers_before = fleet.server().global_buffers();
    round.updates = Fleet::parallel_train(
        round.roster, [&](Client& client, std::size_t i) {
          ClientUpdate update = client.run_cycle(
              round.global_before, round.buffers_before,
              round.plans[i].mask, round.plans[i].work);
          finish_update(fleet, round.global_before, update);
          return update;
        });
    double loss = 0.0;
    for (const ClientUpdate& u : round.updates) loss += u.mean_loss;
    // The network (if any) decides what arrived and how long the round
    // took; without a session this is the analytic max(train + upload).
    round.net = deliver_round(fleet, round.updates, round.global_before);
    fleet.clock().advance(round.net.round_seconds);
    close_round(fleet, round);
    const double n = static_cast<double>(
        std::max<std::size_t>(1, round.roster.size()));
    record_round(fleet, result,
                 {cycle, fleet.clock().now(), fleet.evaluate(), loss / n,
                  round.net.upload_mb});
  }
}

void SyncRoundStrategy::close_round(Fleet& fleet, Round& round) {
  fleet.server().aggregate(round.net.aggregate_span(round.updates), {});
}

}  // namespace helios::fl
