// Exhaustive adversary test of the sans-IO go-back-N core
// (transport/gbn.hpp), driven directly with no simulator and no socket.
//
// The bounded adversary: the application sends 3 payloads through a
// window of 2 at any point; the network delivers data and ack frames in
// FIFO order, except for at most 2 faults drawn from drop, duplicate and
// reorder of a data or an ack frame (corruption is a drop: the frame
// checksum discards it); and the retransmit timer may fire at every
// point it is armed.  A DFS enumerates every schedule, from first_seq 0
// and from 2^64-2 (so seqnums wrap through zero), and checks on each:
//   - exactly-once, in-order delivery (and all of it unless the channel
//     failed);
//   - quiescence: next_deadline() == kTimeNever whenever nothing is
//     unacked, and an armed deadline whenever something is;
//   - failed() exactly when max_retries silent rounds have passed, and
//     sends dropped from then on;
//   - stale acks, acks for frames never sent and early timer polls
//     leave the core untouched.
//
// States are merged on a key that determines the core's behaviour (the
// model tracks the send base and silent rounds the core keeps private),
// and each state's schedule count is memoized, so the exact number of
// maximal schedules is counted without walking each one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "transport/gbn.hpp"

namespace bneck::transport {
namespace {

using Core = GoBackN<int>;

constexpr int kPayloads = 3;
constexpr int kMaxFaults = 2;
constexpr std::int64_t kMaxRetries = 2;
constexpr TimeNs kRto = 10;

GoBackNConfig adversary_config(std::uint64_t first_seq) {
  return {.window = 2, .rto_initial = kRto, .rto_max = 3 * kRto,
          .backoff = 2.0, .max_retries = kMaxRetries, .first_seq = first_seq};
}

struct World {
  Core core;
  TimeNs now = 0;
  int sent = 0;       // payloads handed to send()
  int delivered = 0;  // payloads delivered in order
  int faults_left = kMaxFaults;
  std::uint64_t send_base;  // model: lowest unacked seqnum
  std::int64_t silent = 0;  // model: due timer fires since ack progress
  bool failed = false;      // model: silent ever exceeded max_retries
  std::vector<std::uint64_t> data{};  // data frames in flight (seqnums)
  std::vector<std::uint64_t> acks{};  // acks in flight (cumulative)
};

class Adversary {
 public:
  explicit Adversary(std::uint64_t first_seq) : first_seq_(first_seq) {}

  /// Number of maximal schedules from `w`, checking every state on the
  /// way.
  std::uint64_t explore(const World& w) {
    const std::vector<std::uint64_t> k = key(w);
    if (const auto it = memo_.find(k); it != memo_.end()) return it->second;
    check_state(w);
    std::uint64_t schedules = 0;
    bool terminal = true;
    for_each_move(w, [&](const World& next) {
      terminal = false;
      schedules += explore(next);
    });
    if (terminal) {
      check_terminal(w);
      schedules = 1;
    }
    memo_.emplace(k, schedules);
    return schedules;
  }

  [[nodiscard]] std::size_t states() const { return memo_.size(); }

 private:
  [[nodiscard]] int payload_of(std::uint64_t seq) const {
    return static_cast<int>(seq - first_seq_);
  }

  auto emitter(World& w) {
    return [this, &w](std::uint64_t seq, const int& payload) {
      EXPECT_EQ(payload, payload_of(seq));
      w.data.push_back(seq);
      return w.now;
    };
  }

  static std::vector<std::uint64_t> key(const World& w) {
    std::vector<std::uint64_t> k = {
        static_cast<std::uint64_t>(w.now),
        static_cast<std::uint64_t>(w.sent),
        static_cast<std::uint64_t>(w.delivered),
        static_cast<std::uint64_t>(w.faults_left),
        w.send_base,
        static_cast<std::uint64_t>(w.silent),
        static_cast<std::uint64_t>(w.failed),
        static_cast<std::uint64_t>(w.core.next_deadline()),
        w.data.size()};
    k.insert(k.end(), w.data.begin(), w.data.end());
    k.insert(k.end(), w.acks.begin(), w.acks.end());
    return k;
  }

  void check_state(const World& w) {
    const Core& c = w.core;
    const bool unacked = w.send_base != c.next_seq();
    EXPECT_EQ(c.idle(), !unacked);
    EXPECT_EQ(c.failed(), w.failed);
    if (!unacked || c.failed()) {
      EXPECT_EQ(c.next_deadline(), kTimeNever);  // quiescent
    } else {
      EXPECT_GT(c.next_deadline(), w.now);
    }
    EXPECT_EQ(payload_of(c.expected()), w.delivered);
    EXPECT_EQ(payload_of(c.next_seq()), w.sent);
    probe_ignored_inputs(w);
  }

  // Inputs that must leave the core exactly as it was: acks at or behind
  // the send base, acks past the newest frame sent, an early timer poll,
  // and a send after failure.
  void probe_ignored_inputs(const World& w) {
    const auto unchanged = [&](World& probe) {
      EXPECT_TRUE(probe.data.size() == w.data.size());
      EXPECT_EQ(probe.core.next_deadline(), w.core.next_deadline());
      EXPECT_EQ(probe.core.arms(), w.core.arms());
      EXPECT_EQ(probe.core.idle(), w.core.idle());
      EXPECT_EQ(probe.core.data_sends(), w.core.data_sends());
      EXPECT_EQ(probe.core.next_seq(), w.core.next_seq());
    };
    for (const std::uint64_t ack :
         {w.send_base, w.send_base - 1, w.core.next_seq() + 1}) {
      World probe = w;
      probe.core.on_ack(ack, w.now, emitter(probe));
      unchanged(probe);
    }
    if (const TimeNs due = w.core.next_deadline(); due != kTimeNever) {
      World probe = w;
      EXPECT_EQ(probe.core.on_timer(due - 1, emitter(probe)), 0u);
      unchanged(probe);
    }
    if (w.core.failed() && w.sent < kPayloads) {
      World probe = w;
      EXPECT_FALSE(probe.core.send(w.sent, w.now, emitter(probe)));
      unchanged(probe);
    }
  }

  void check_terminal(const World& w) {
    EXPECT_TRUE(w.data.empty() && w.acks.empty());
    if (!w.core.failed()) {
      EXPECT_EQ(w.delivered, kPayloads);  // everything, exactly once
      EXPECT_TRUE(w.core.idle());
    }
  }

  void deliver_data(World& w, std::size_t i, bool keep) {
    const std::uint64_t seq = w.data[i];
    if (!keep) w.data.erase(w.data.begin() + static_cast<std::ptrdiff_t>(i));
    const bool in_order = seq == w.core.expected();
    EXPECT_EQ(w.core.on_data(seq), in_order);
    if (in_order) {
      EXPECT_EQ(payload_of(seq), w.delivered);
      ++w.delivered;
    }
    w.acks.push_back(w.core.expected());
  }

  void deliver_ack(World& w, std::size_t i, bool keep) {
    const std::uint64_t ack = w.acks[i];
    if (!keep) w.acks.erase(w.acks.begin() + static_cast<std::ptrdiff_t>(i));
    const bool progress =
        seq_lt(w.send_base, ack) && seq_le(ack, w.core.next_seq());
    const std::size_t before = w.data.size();
    w.core.on_ack(ack, w.now, emitter(w));
    if (progress) {
      w.send_base = ack;
      w.silent = 0;
    } else {
      EXPECT_EQ(w.data.size(), before);
    }
  }

  template <class Visit>
  void for_each_move(const World& w, Visit&& visit) {
    const auto move = [&](auto&& apply) {
      World next = w;
      apply(next);
      visit(next);
    };
    if (w.sent < kPayloads && !w.core.failed()) {
      move([&](World& n) {
        EXPECT_TRUE(n.core.send(n.sent, n.now, emitter(n)));
        ++n.sent;
      });
    }
    if (const TimeNs due = w.core.next_deadline(); due != kTimeNever) {
      move([&](World& n) {
        n.now = due;
        const std::size_t before = n.data.size();
        const std::size_t resent = n.core.on_timer(n.now, emitter(n));
        ++n.silent;
        EXPECT_EQ(resent, n.data.size() - before);
        if (n.silent > kMaxRetries) {
          n.failed = true;
          EXPECT_EQ(resent, 0u);
        } else {
          // Go-back-N: the whole window, from the send base, in order.
          ASSERT_GT(resent, 0u);
          for (std::size_t i = 0; i < resent; ++i) {
            EXPECT_EQ(n.data[before + i], n.send_base + i);
          }
        }
      });
    }
    network_moves(w, &World::data, move, [this](World& n, std::size_t i,
                                                bool keep) {
      deliver_data(n, i, keep);
    });
    network_moves(w, &World::acks, move, [this](World& n, std::size_t i,
                                                bool keep) {
      deliver_ack(n, i, keep);
    });
  }

  // The network on one direction: FIFO delivery is free; a fault, while
  // the budget lasts, drops any frame, delivers a later frame first
  // (reorder) or delivers the head but keeps a copy in flight
  // (duplicate).
  template <class Move, class Deliver>
  static void network_moves(const World& w,
                            std::vector<std::uint64_t> World::*queue,
                            const Move& move, const Deliver& deliver) {
    for (std::size_t i = 0; i < (w.*queue).size(); ++i) {
      if (i == 0 || w.faults_left > 0) {
        move([&](World& n) {
          if (i > 0) --n.faults_left;
          deliver(n, i, /*keep=*/false);
        });
      }
      if (w.faults_left == 0) continue;
      move([&](World& n) {
        --n.faults_left;
        (n.*queue).erase((n.*queue).begin() + static_cast<std::ptrdiff_t>(i));
      });
      if (i == 0) {
        move([&](World& n) {
          --n.faults_left;
          deliver(n, 0, /*keep=*/true);
        });
      }
    }
  }

  std::uint64_t first_seq_;
  std::map<std::vector<std::uint64_t>, std::uint64_t> memo_;
};

std::uint64_t explore_from(std::uint64_t first_seq, std::size_t* states) {
  Adversary adversary(first_seq);
  const World start{.core = Core(adversary_config(first_seq)),
                    .send_base = first_seq};
  const std::uint64_t schedules = adversary.explore(start);
  *states = adversary.states();
  return schedules;
}

// Pinned: a change to the core's reachable behaviour, or to the
// adversary, moves these counts.
constexpr std::uint64_t kSchedules = 2'568'886'263'392'411;
constexpr std::size_t kStates = 84'231;

TEST(GoBackNAdversary, EverySchedule) {
  std::size_t states = 0;
  EXPECT_EQ(explore_from(0, &states), kSchedules);
  EXPECT_EQ(states, kStates);
}

TEST(GoBackNAdversary, EveryScheduleAcrossTheWrap) {
  // 2^64-2, 2^64-1, 0: the same state graph, one seqnum wrap inside it.
  std::size_t states = 0;
  EXPECT_EQ(explore_from(~std::uint64_t{0} - 1, &states), kSchedules);
  EXPECT_EQ(states, kStates);
}

}  // namespace
}  // namespace bneck::transport
