// Reliable framing over real (lossy) sockets.
//
// ReliableChannel is the socket adapter over the sans-IO go-back-N core
// (transport/gbn.hpp) that also runs the simulator's ArqChannel.  One
// instance serves one peer: it wraps each encoded Packet frame in a wire
// Data frame, hands transmissions to a raw byte-send callback, and is
// pumped by its owner (transport::UdpTransport), which feeds it Data and
// Ack frames and calls poll(now) when next_deadline() is due.  Backoff
// jitter is seeded by ReliableConfig::seed; a peer silent for
// max_retries rounds fails the channel, which the owner surfaces as a
// terminal error instead of retrying forever.  With nothing unacked
// there is no deadline and no traffic (heartbeats are the owner's).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "base/time.hpp"
#include "transport/gbn.hpp"

namespace bneck::transport {

struct ReliableConfig {
  std::int32_t window = 64;               // max unacked Data frames
  TimeNs rto_initial = milliseconds(20);  // first retransmission delay
  TimeNs rto_max = milliseconds(640);     // backoff ceiling
  double backoff = 2.0;                   // RTO multiplier per silent round
  /// Each RTO is scaled by 1 ± jitter, so channels' retransmit storms
  /// decorrelate; the jitter stream is seeded by `seed`.
  double jitter = 0.1;
  std::int32_t max_retries = 10;  // silent rounds before failing (peer gone)
  std::uint64_t seed = 1;
  std::uint64_t first_seq = 0;  // wraparound tests start near 2^64
};

class ReliableChannel {
 public:
  /// Sends raw bytes to the peer; false means the kernel (or the fault
  /// injector) refused the datagram, which counts as wire loss.
  using RawSend = std::function<bool(std::span<const std::uint8_t>)>;

  ReliableChannel(const ReliableConfig& cfg, RawSend raw);

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;
  ReliableChannel(ReliableChannel&&) = default;

  /// Queues one encoded Packet frame for reliable in-order delivery.
  /// Returns false once the channel has failed (frames are dropped).
  bool send(std::span<const std::uint8_t> packet_frame, TimeNs now);
  /// A Data frame arrived: true means deliver it.  The owner must ack
  /// expected() to the peer after every call, fresh or stale.
  [[nodiscard]] bool on_data(std::uint64_t seq) { return gbn_.on_data(seq); }
  void on_ack(std::uint64_t cumulative, TimeNs now);
  /// Fires the retransmit timer if due; returns the frames re-sent.
  std::size_t poll(TimeNs now);

  [[nodiscard]] TimeNs next_deadline() const { return gbn_.next_deadline(); }
  [[nodiscard]] std::uint64_t expected() const { return gbn_.expected(); }
  [[nodiscard]] bool failed() const { return gbn_.failed(); }
  [[nodiscard]] bool idle() const { return gbn_.idle(); }
  [[nodiscard]] std::uint64_t data_sends() const { return gbn_.data_sends(); }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return gbn_.retransmissions();
  }
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return gbn_.duplicates_dropped();
  }

 private:
  using Frame = std::vector<std::uint8_t>;  // complete encoded Data frame

  auto emitter(TimeNs now) {  // the core's emit functor
    return [this, now](std::uint64_t, const Frame& frame) {
      raw_(frame);
      return now;  // a datagram departs when it is handed to the kernel
    };
  }

  RawSend raw_;
  GoBackN<Frame> gbn_;
};

}  // namespace bneck::transport
