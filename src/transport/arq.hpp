// Reliable in-order simulated links (go-back-N ARQ) with loss injection.
//
// B-Neck assumes reliable FIFO links (docs/protocol.md); with loss and no
// repair, a lost Update or Response leaves sessions stuck in WAITING_*
// states.  ArqChannel is the simulator's adapter over the sans-IO
// go-back-N core (transport/gbn.hpp): one instance per directed link
// carries core::Packet data frames on its FifoChannel, cumulative acks on
// the reverse one, draws loss for every frame in both directions, and
// turns each arming of the core's deadline into one simulator timer.
// With nothing unacked there are no timers and no traffic.
#pragma once

#include <cstdint>
#include <functional>

#include "base/rng.hpp"
#include "core/packet.hpp"
#include "sim/simulator.hpp"
#include "transport/gbn.hpp"

namespace bneck::transport {

using core::Packet;

struct ArqConfig {
  /// Probability that any wire transmission (data or ack) is lost.
  double loss_probability = 0.0;
  std::int32_t window = 32;  // go-back-N sender window
  TimeNs timeout = 0;        // retransmission timeout; 0 = 4x the RTT
  /// Timeout multiplier per silent round; 1 = fixed interval.  Ack
  /// progress resets to the base timeout.
  double backoff = 1.0;
  TimeNs max_timeout = 0;       // backoff ceiling; 0 = uncapped
  std::uint64_t first_seq = 0;  // serial arithmetic wraps through 2^64
};

class ArqChannel {
 public:
  /// Delivery callback: invoked exactly once, in order, per send().
  using DeliverFn = std::function<void(const Packet&)>;
  /// Wire callback: invoked for every *data* transmission (first try and
  /// retransmissions) so the owner can count control traffic.
  using WireFn = std::function<void(const Packet&)>;

  /// `data_tx`/`data_prop` are the transmission and propagation times of
  /// the forward link, `ack_tx`/`ack_prop` of the reverse link carrying
  /// the acknowledgements.
  ArqChannel(sim::Simulator& sim, sim::FifoChannel& data_channel,
             sim::FifoChannel& ack_channel, TimeNs data_tx, TimeNs data_prop,
             TimeNs ack_tx, TimeNs ack_prop, ArqConfig config, Rng rng,
             DeliverFn deliver, WireFn on_wire);

  ArqChannel(const ArqChannel&) = delete;
  ArqChannel& operator=(const ArqChannel&) = delete;

  /// Queues a packet for reliable in-order delivery at the far end.
  void send(Packet p);

  [[nodiscard]] std::uint64_t data_sends() const { return gbn_.data_sends(); }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return gbn_.retransmissions();
  }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t losses() const { return losses_; }
  [[nodiscard]] bool idle() const { return gbn_.idle(); }

 private:
  // Frames cross the simulator as typed events (sim/event.hpp), with no
  // allocation per transmission.
  struct DataFrame { Packet packet; std::uint64_t seq; };
  struct AckFrame { std::uint64_t cumulative; };
  static_assert(sizeof(DataFrame) <= sim::Event::kInlinePayloadBytes);
  struct DataRx final : sim::DeliveryHandlerOf<DataRx, DataFrame> {
    ArqChannel* self = nullptr;
    void on_delivery(const DataFrame& f) { self->on_data(f.seq, f.packet); }
  };
  struct AckRx final : sim::DeliveryHandlerOf<AckRx, AckFrame> {
    ArqChannel* self = nullptr;
    void on_delivery(const AckFrame& f) { self->on_ack(f.cumulative); }
  };

  auto emitter();  // the core's emit functor
  template <class Rx, class Frame>
  TimeNs wire(sim::FifoChannel& channel, TimeNs tx, TimeNs prop, Rx& rx,
              const Frame& frame);
  void on_data(std::uint64_t seq, const Packet& p);
  void on_ack(std::uint64_t cumulative);
  void schedule_timer();

  sim::Simulator& sim_;
  sim::FifoChannel& data_channel_;
  sim::FifoChannel& ack_channel_;
  TimeNs data_tx_, data_prop_, ack_tx_, ack_prop_;
  double loss_;
  Rng rng_;
  DeliverFn deliver_;
  WireFn on_wire_;
  GoBackN<Packet> gbn_;
  std::uint64_t scheduled_arms_ = 0;  // gbn_.arms() of the newest timer
  DataRx data_rx_;
  AckRx ack_rx_;
  std::uint64_t acks_sent_ = 0, losses_ = 0;
};

}  // namespace bneck::transport
