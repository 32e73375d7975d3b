#include "transport/arq.hpp"

#include <algorithm>

namespace bneck::transport {
namespace {

// No jitter and no retry budget: a simulated link never dies.
GoBackNConfig core_config(const ArqConfig& cfg, TimeNs rtt) {
  // timeout 0 derives 4x the round trip (data out, ack back), with a
  // floor so zero-delay test links still get a sane timer.
  const TimeNs rto = cfg.timeout != 0
                         ? cfg.timeout
                         : std::max<TimeNs>(4 * rtt, microseconds(10));
  const bool capped = cfg.backoff > 1.0 && cfg.max_timeout > 0;
  return {.window = cfg.window, .rto_initial = rto,
          .rto_max = capped ? cfg.max_timeout : kTimeNever,
          .backoff = cfg.backoff, .first_seq = cfg.first_seq};
}

}  // namespace

ArqChannel::ArqChannel(sim::Simulator& sim, sim::FifoChannel& data_channel,
                       sim::FifoChannel& ack_channel, TimeNs data_tx,
                       TimeNs data_prop, TimeNs ack_tx, TimeNs ack_prop,
                       ArqConfig config, Rng rng, DeliverFn deliver,
                       WireFn on_wire)
    : sim_(sim),
      data_channel_(data_channel),
      ack_channel_(ack_channel),
      data_tx_(data_tx),
      data_prop_(data_prop),
      ack_tx_(ack_tx),
      ack_prop_(ack_prop),
      loss_(config.loss_probability),
      rng_(rng),
      deliver_(std::move(deliver)),
      on_wire_(std::move(on_wire)),
      gbn_(core_config(config, data_tx + data_prop + ack_tx + ack_prop)) {
  data_rx_.self = this;
  ack_rx_.self = this;
  BNECK_EXPECT(loss_ >= 0.0 && loss_ < 1.0,
               "loss probability must be in [0,1)");
}

// Puts one frame on `channel`; returns when its transmission starts.
template <class Rx, class Frame>
TimeNs ArqChannel::wire(sim::FifoChannel& channel, TimeNs tx, TimeNs prop,
                        Rx& rx, const Frame& frame) {
  const TimeNs arrival = channel.transmit(sim_.now(), tx, prop);
  if (rng_.chance(loss_)) {
    ++losses_;  // occupied the wire, never arrives
  } else {
    sim_.schedule_delivery_at(arrival, rx, frame);
  }
  return arrival - prop - tx;
}

auto ArqChannel::emitter() {
  return [this](std::uint64_t seq, const Packet& p) {
    if (on_wire_) on_wire_(p);
    return wire(data_channel_, data_tx_, data_prop_, data_rx_,
                DataFrame{p, seq});
  };
}

void ArqChannel::send(Packet p) {
  gbn_.send(p, sim_.now(), emitter());
  schedule_timer();
}

void ArqChannel::on_data(std::uint64_t seq, const Packet& p) {
  if (gbn_.on_data(seq)) deliver_(p);
  // Every arrival triggers a cumulative ack, which also repairs lost acks.
  ++acks_sent_;
  wire(ack_channel_, ack_tx_, ack_prop_, ack_rx_, AckFrame{gbn_.expected()});
}

void ArqChannel::on_ack(std::uint64_t cumulative) {
  gbn_.on_ack(cumulative, sim_.now(), emitter());
  schedule_timer();
}

// One simulator timer per arming of the core's deadline; a superseded
// timer still fires, as a no-op.  Keying on the arming count, not on the
// deadline's value, keeps the schedule calls and so the simulator's
// (time, seq) tie-breaks exactly those of one timer per arming.
void ArqChannel::schedule_timer() {
  if (gbn_.arms() == scheduled_arms_) return;
  scheduled_arms_ = gbn_.arms();
  sim_.schedule_at(gbn_.next_deadline(), [this, arms = scheduled_arms_] {
    if (arms != scheduled_arms_) return;
    gbn_.on_timer(sim_.now(), emitter());
    schedule_timer();
  });
}

}  // namespace bneck::transport
