#include "fl/afo.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "fl/round.h"
#include "obs/telemetry.h"

namespace helios::fl {

Afo::Afo(double alpha, double staleness_exponent)
    : alpha_(alpha), staleness_exponent_(staleness_exponent) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("Afo: alpha out of (0, 1]");
  }
  if (staleness_exponent < 0.0) {
    throw std::invalid_argument("Afo: negative staleness exponent");
  }
}

// The one event-driven completion loop (AsyncFL's fully-async mode runs it
// with staleness exponent 0). Stays sequential by design: each completion
// event applies a staleness-discounted update to the evolving global model
// before the next one starts, so there is never a batch of independent
// cycles to hand to Fleet::parallel_train. Intra-op kernel parallelism
// still applies inside each run_cycle.
void Afo::run_range(Fleet& fleet, RunResult& result, int begin, int end) {
  if (fleet.size() == 0) throw std::logic_error("Afo: empty fleet");

  // Population sampling: the recorded-round index plays the cohort round.
  // An unselected client parks (hibernated) instead of rescheduling and is
  // re-examined whenever a round completes; the reference device always
  // runs so recording progresses.
  const RosterSampler* sampler = fleet.sampler();
  auto start_client = [&](std::size_t i, double now) {
    Client& c = fleet.client(i);
    if (!c.active()) return;  // dead device: never rescheduled
    if (sampler && c.id() != reference_id_ &&
        !sampler->selected(c.id(), recorded_)) {
      parked_[i] = 1;
      c.hibernate();
      return;
    }
    parked_[i] = 0;
    inflight_[i].base.assign(fleet.server().global().begin(),
                             fleet.server().global().end());
    inflight_[i].base_buffers.assign(fleet.server().global_buffers().begin(),
                                     fleet.server().global_buffers().end());
    inflight_[i].started_version = version_;
    events_.push_back({now + c.estimate_cycle_seconds({}),
                       static_cast<int>(i)});
    std::push_heap(events_.begin(), events_.end(), std::greater<Event>{});
  };
  auto sweep_parked = [&] {
    if (!sampler) return;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (parked_[i]) start_client(i, fleet.clock().now());
    }
  };

  if (begin == 0) {
    auto capable = fleet.capable();
    reference_id_ =
        capable.empty() ? fleet.client(0).id() : capable.front()->id();
    events_.clear();
    inflight_.assign(fleet.size(), InFlight{});
    parked_.assign(fleet.size(), 0);
    version_ = 0;
    recorded_ = 0;
    loss_acc_ = 0.0;
    upload_acc_ = 0.0;
    loss_count_ = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      start_client(i, fleet.clock().now());
    }
  } else if (begin != recorded_) {
    // The engine's carried state encodes progress through `recorded_`
    // rounds; a mismatched begin means the caller and the engine disagree
    // about where the run stands.
    throw std::logic_error("Afo: run_range begin != engine progress");
  }

  NetworkSession* session = fleet.network();
  obs::TelemetrySink* tel = fleet.telemetry();
  while (recorded_ < end && !events_.empty()) {
    HELIOS_TRACE_SPAN("afo.completion", {{"cycle", recorded_}});
    std::pop_heap(events_.begin(), events_.end(), std::greater<Event>{});
    const Event ev = events_.back();
    events_.pop_back();
    if (ev.time > fleet.clock().now()) fleet.clock().advance_to(ev.time);
    Client& client = fleet.client(static_cast<std::size_t>(ev.client_index));
    auto& fl = inflight_[static_cast<std::size_t>(ev.client_index)];
    // The device finished *at* ev.time; backdate the sink so the Gantt slab
    // covers the cycle it just spent training.
    if (tel) {
      tel->set_virtual_time(
          std::max(0.0, ev.time - client.estimate_cycle_seconds({})));
    }

    ClientUpdate update = client.run_cycle(fl.base, fl.base_buffers, {});
    const bool is_reference = client.id() == reference_id_;
    bool accepted = true;
    if (session != nullptr) {
      // ev.time already contains the analytic upload; the frame leaves the
      // device when training ends.
      NetworkSession::SingleDelivery sd = session->deliver_update(
          update, fl.base, ev.time - update.upload_seconds);
      if (sd.delivered) {
        if (sd.settle_s > fleet.clock().now()) {
          fleet.clock().advance_to(sd.settle_s);
        }
        update = std::move(sd.update);
      } else {
        accepted = false;  // lost after retries or died mid-upload
      }
      if (sd.died && is_reference) {
        // Re-anchor recording on a surviving device so the run completes.
        auto active = fleet.active_clients();
        auto cap = fleet.capable();
        if (!cap.empty()) {
          reference_id_ = cap.front()->id();
        } else if (!active.empty()) {
          reference_id_ = active.front()->id();
        } else {
          break;  // everyone is dead; nothing left to record
        }
        sweep_parked();  // the new reference may be parked — wake it
      }
    }
    if (accepted) {
      const long staleness = version_ - fl.started_version;
      const double mix_alpha =
          alpha_ * std::pow(1.0 + static_cast<double>(staleness),
                            -staleness_exponent_);
      fleet.server().mix(update, mix_alpha);
      ++version_;
      loss_acc_ += update.mean_loss;
      upload_acc_ += update.upload_mb;
      ++loss_count_;
    }

    if (is_reference && client.active()) {
      record_round(fleet, result,
                   {recorded_, fleet.clock().now(), fleet.evaluate(),
                    loss_count_ ? loss_acc_ / loss_count_ : 0.0,
                    upload_acc_});
      ++recorded_;
      loss_acc_ = 0.0;
      upload_acc_ = 0.0;
      loss_count_ = 0;
      sweep_parked();  // round advanced: re-draw the parked clients
    }
    start_client(static_cast<std::size_t>(ev.client_index),
                 fleet.clock().now());
  }
}

void Afo::save_state(const Fleet& fleet, CheckpointWriter& w) const {
  (void)fleet;
  w.i64(static_cast<std::int64_t>(version_));
  w.i32(reference_id_);
  w.i32(recorded_);
  w.f64(loss_acc_);
  w.f64(upload_acc_);
  w.i32(loss_count_);
  w.vec_u8(parked_);
  w.u32(static_cast<std::uint32_t>(events_.size()));
  for (const Event& ev : events_) {
    w.f64(ev.time);
    w.i32(ev.client_index);
  }
  w.u32(static_cast<std::uint32_t>(inflight_.size()));
  for (const InFlight& fl : inflight_) {
    w.vec_f32(fl.base);
    w.vec_f32(fl.base_buffers);
    w.i64(static_cast<std::int64_t>(fl.started_version));
  }
}

void Afo::load_state(Fleet& fleet, CheckpointReader& r) {
  version_ = static_cast<long>(r.i64());
  reference_id_ = r.i32();
  recorded_ = r.i32();
  loss_acc_ = r.f64();
  upload_acc_ = r.f64();
  loss_count_ = r.i32();
  parked_ = r.vec_u8();
  events_.clear();
  const std::uint32_t n_events = r.u32();
  events_.reserve(n_events);
  for (std::uint32_t i = 0; i < n_events; ++i) {
    Event ev;
    ev.time = r.f64();
    ev.client_index = r.i32();
    events_.push_back(ev);
  }
  inflight_.clear();
  const std::uint32_t n_inflight = r.u32();
  if (n_inflight != fleet.size()) {
    throw CheckpointError("Afo: in-flight table does not match fleet size");
  }
  inflight_.resize(n_inflight);
  for (std::uint32_t i = 0; i < n_inflight; ++i) {
    inflight_[i].base = r.vec_f32();
    inflight_[i].base_buffers = r.vec_f32();
    inflight_[i].started_version = static_cast<long>(r.i64());
  }
  if (parked_.size() != fleet.size()) {
    throw CheckpointError("Afo: parked table does not match fleet size");
  }
}

}  // namespace helios::fl
