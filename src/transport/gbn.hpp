// Sans-IO go-back-N: the one reliable in-order state machine under both
// reliability layers (docs/architecture.md).
//
// B-Neck assumes reliable FIFO links (docs/protocol.md).  GoBackN gives
// exactly-once in-order delivery over a lossy wire: a sender window
// numbered with serial-arithmetic seqnums (transport/seqnum.hpp),
// cumulative acks, one retransmit deadline with backoff and seeded
// jitter, and a retry budget after which the peer counts as gone.  The
// receiver accepts only the next in-order seqnum; its owner acks every
// arrival with expected(), which also repairs lost acks.
//
// The core does no I/O and owns no clock.  Inputs: send, on_data, on_ack,
// on_timer(now).  Outputs: on_data's deliver-or-drop verdict,
// next_deadline(), and one call of the emit functor passed to each input
// per transmission: emit(seq, payload) returns when the frame starts
// transmission, and the deadline runs the RTO from the later of `now`
// and the newest departure, so a window queued behind a busy link is
// timed from when it leaves, not from when it was queued.
// transport::ArqChannel adapts the core to simulator links and timers,
// transport::ReliableChannel to wire frames over UDP.  With nothing
// unacked there is no deadline and no traffic (quiescence).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "base/time.hpp"
#include "transport/seqnum.hpp"

namespace bneck::transport {

struct GoBackNConfig {
  std::int32_t window = 1;         // most frames in flight
  TimeNs rto_initial = 0;          // also the RTO after any ack progress
  TimeNs rto_max = kTimeNever;     // backoff ceiling
  double backoff = 1.0;            // RTO multiplier per silent round
  double jitter = 0.0;             // each armed RTO scaled by 1 ± jitter
  std::int64_t max_retries =       // silent rounds before failed()
      std::numeric_limits<std::int64_t>::max();
  std::uint64_t seed = 0;          // jitter stream
  std::uint64_t first_seq = 0;     // both directions
};

template <class Payload>
class GoBackN {
 public:
  explicit GoBackN(const GoBackNConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        next_seq_(cfg.first_seq),
        send_base_(cfg.first_seq),
        expected_(cfg.first_seq),
        rto_(cfg.rto_initial) {
    BNECK_EXPECT(cfg_.window >= 1, "go-back-N window must be positive");
    BNECK_EXPECT(cfg_.rto_initial > 0, "rto must be positive");
    BNECK_EXPECT(cfg_.backoff >= 1.0, "backoff must be >= 1");
    BNECK_EXPECT(cfg_.jitter >= 0.0 && cfg_.jitter < 1.0,
                 "jitter must be in [0,1)");
    BNECK_EXPECT(cfg_.max_retries >= 1, "max_retries must be positive");
  }

  /// Queues `payload` as seqnum next_seq(), transmits it if the window
  /// has room and arms the deadline if none is armed.  Returns false,
  /// dropping it, once the channel has failed.
  template <class Emit>
  bool send(Payload payload, TimeNs now, Emit&& emit) {
    if (failed_) return false;
    window_.push_back(InFlight{next_seq_++, std::move(payload), false});
    if (in_window(window_.back().seq)) transmit(window_.back(), emit);
    if (deadline_ == kTimeNever) arm(now);
    return true;
  }

  /// True when `seq` is the next in-order frame (deliver it), false for
  /// duplicates and out-of-order frames (drop it).
  [[nodiscard]] bool on_data(std::uint64_t seq) {
    if (seq != expected_) {
      ++dups_;
      return false;
    }
    ++expected_;
    return true;
  }

  /// A cumulative ack: retires the frames before `cumulative`, resets the
  /// backoff and the retry budget, and admits frames into the window.
  /// Stale acks and acks for frames never sent are ignored.
  template <class Emit>
  void on_ack(std::uint64_t cumulative, TimeNs now, Emit&& emit) {
    if (seq_le(cumulative, send_base_) || seq_lt(next_seq_, cumulative)) {
      return;
    }
    while (!window_.empty() && seq_lt(window_.front().seq, cumulative)) {
      window_.pop_front();
    }
    send_base_ = cumulative;
    rto_ = cfg_.rto_initial;
    silent_rounds_ = 0;
    for (InFlight& entry : window_) {
      if (!in_window(entry.seq)) break;
      if (!entry.on_wire) transmit(entry, emit);
    }
    deadline_ = kTimeNever;
    if (!window_.empty()) arm(now);
  }

  /// When the deadline is due: retransmits the window, backs off and
  /// re-arms, or fails after max_retries silent rounds.  Returns the
  /// number of frames re-sent.
  template <class Emit>
  std::size_t on_timer(TimeNs now, Emit&& emit) {
    if (failed_ || window_.empty() || now < deadline_) return 0;
    if (silent_rounds_++ == cfg_.max_retries) {
      failed_ = true;
      deadline_ = kTimeNever;
      return 0;
    }
    std::size_t sent = 0;
    for (InFlight& entry : window_) {
      if (!in_window(entry.seq)) break;
      transmit(entry, emit);
      ++sent;
    }
    rto_ = std::min<TimeNs>(
        static_cast<TimeNs>(static_cast<double>(rto_) * cfg_.backoff),
        cfg_.rto_max);
    arm(now);
    return sent;
  }

  /// Earliest instant on_timer() has work to do; kTimeNever when idle.
  [[nodiscard]] TimeNs next_deadline() const {
    return window_.empty() || failed_ ? kTimeNever : deadline_;
  }
  /// Times the deadline was armed: a timer-driven owner schedules one
  /// timer per arming and ignores the superseded ones.
  [[nodiscard]] std::uint64_t arms() const { return arms_; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  [[nodiscard]] std::uint64_t expected() const { return expected_; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool idle() const { return window_.empty(); }
  [[nodiscard]] std::uint64_t data_sends() const { return data_sends_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retx_; }
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return dups_; }

 private:
  struct InFlight {
    std::uint64_t seq;
    Payload payload;
    bool on_wire;  // transmitted at least once
  };

  [[nodiscard]] bool in_window(std::uint64_t seq) const {
    return seq_lt(seq, send_base_ + static_cast<std::uint64_t>(cfg_.window));
  }

  template <class Emit>
  void transmit(InFlight& entry, Emit& emit) {
    ++data_sends_;
    if (entry.on_wire) ++retx_;
    entry.on_wire = true;
    last_departure_ = emit(entry.seq, std::as_const(entry.payload));
  }

  void arm(TimeNs now) {
    const double scale =
        1.0 + (cfg_.jitter > 0 ? rng_.uniform_real(-cfg_.jitter, cfg_.jitter)
                               : 0.0);
    deadline_ = std::max(now, last_departure_) +
                static_cast<TimeNs>(static_cast<double>(rto_) * scale);
    ++arms_;
  }

  GoBackNConfig cfg_;
  Rng rng_;
  std::deque<InFlight> window_;  // unacked + queued, seq order
  std::uint64_t next_seq_;       // next sequence number to assign
  std::uint64_t send_base_;      // lowest unacked sequence number
  std::uint64_t expected_;       // receiver: next in-order sequence
  TimeNs rto_;                   // current (backed-off) timeout
  TimeNs deadline_ = kTimeNever;
  TimeNs last_departure_ = 0;    // of the newest transmission
  std::uint64_t arms_ = 0;
  std::int64_t silent_rounds_ = 0;
  bool failed_ = false;
  std::uint64_t data_sends_ = 0, retx_ = 0, dups_ = 0;
};

}  // namespace bneck::transport
