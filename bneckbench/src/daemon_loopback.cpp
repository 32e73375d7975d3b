// daemon_loopback: the bneckd deployment in one process.
//
// An in-process transport::Daemon serves the router plane on one thread
// and one transport::SourceClient runs the source tasks on the calling
// thread, over lossless 127.0.0.1 UDP.  The loop is closed: the client
// sends a burst of API calls, waits for convergence with the
// compliance harness's rule (client sources stable, then the daemon's
// status stable twice in a row with no new packets), checks the rates
// against core::solve_reference, and only then sends the next burst.
//
// A round is one cycle of three bursts on a fresh daemon and client:
// kBurst joins, kBurst/2 demand changes, then kBurst leaves.  The
// daemon keeps a tombstone per departed session and the client's join
// scans every session it ever held, so reusing one pair for many
// cycles would make later cycles slower; a fresh pair per cycle keeps
// every cycle the same work.  The simulator is never used.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/rate.hpp"
#include "bench.hpp"
#include "core/maxmin.hpp"
#include "topo/transit_stub.hpp"
#include "transport/client.hpp"
#include "transport/daemon.hpp"
#include "wire/codec.hpp"
#include "workload/workload.hpp"

namespace bneckbench {
namespace {

using namespace bneck;

constexpr std::int32_t kBurst = 1000;  // sessions joined per cycle
constexpr int kSubSeeds = 20;
constexpr std::int64_t kDeadlineNs = 5'000'000'000;  // per burst

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// A daemon serving on its own thread; stopped and joined on
/// destruction, so its counters may be read afterwards.
class DaemonThread {
 public:
  explicit DaemonThread(const net::Network& net)
      : daemon_(net, transport::DaemonOptions{}),
        thread_([this] { daemon_.serve(); }) {
    pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_);
  }
  ~DaemonThread() { stop(); }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    daemon_.request_stop();
    thread_.join();
  }
  [[nodiscard]] transport::Endpoint endpoint() const {
    return daemon_.endpoint();
  }
  /// CPU time of the serving thread (only while it runs).
  [[nodiscard]] std::int64_t cpu_ns() const { return clock_ns(cpu_clock_); }
  /// Only after stop().
  transport::Daemon& daemon() { return daemon_; }

 private:
  transport::Daemon daemon_;
  clockid_t cpu_clock_{};
  std::thread thread_;  // last: starts after the daemon exists
};

struct Burst {
  std::int64_t start = 0;
  std::int64_t converged = 0;
  std::int64_t last_rx = 0;  // last protocol packet the client received
  std::string failure;
};

/// Everything one cycle needs, built from its sub-workload seed alone.
struct Cycle {
  std::unique_ptr<net::Network> net;
  std::vector<workload::SessionPlan> joins;
  std::vector<Rate> new_demand;  // for the first kBurst/2 sessions
  std::unique_ptr<DaemonThread> daemon;
  std::unique_ptr<transport::SourceClient> client;
};

double set_up(Cycle& c, std::uint64_t seed, Tracer& tr) {
  const std::int64_t t0 = wall_ns();
  Rng rng(seed);
  {
    Tracer::Scope s(tr, "topo.build");
    auto params = topo::medium_params();
    params.hosts = 2 * kBurst + 64;
    c.net = std::make_unique<net::Network>(topo::make_transit_stub(params, rng));
  }
  {
    Tracer::Scope s(tr, "net.paths");
    const net::PathFinder paths(*c.net);
    workload::WorkloadConfig wcfg;
    wcfg.sessions = kBurst;
    wcfg.demand_fraction = 0.5;
    c.joins = workload::generate_sessions(*c.net, paths, wcfg, rng);
    c.new_demand.clear();
    for (std::int32_t i = 0; i < kBurst / 2; ++i) {
      c.new_demand.push_back(rng.uniform_real(1.0, 100.0));
    }
  }
  {
    Tracer::Scope s(tr, "transport.bringup");
    c.daemon = std::make_unique<DaemonThread>(*c.net);
    c.client = std::make_unique<transport::SourceClient>(
        *c.net, c.daemon->endpoint());
  }
  return static_cast<double>(wall_ns() - t0) * 1e-9;
}

/// Waits for convergence by the compliance harness's rule.
void converge(transport::SourceClient& client, Burst& b, Tracer& tr) {
  const std::int64_t deadline = b.start + kDeadlineNs;
  std::uint64_t last_rx = client.packets_received();
  std::uint64_t last_seen = ~std::uint64_t{0};
  int stable_polls = 0;
  while (wall_ns() < deadline) {
    client.poll(1);
    if (client.failed()) {
      b.failure = client.failure();
      return;
    }
    if (client.packets_received() != last_rx) {
      last_rx = client.packets_received();
      b.last_rx = wall_ns();
    }
    if (!client.sources_stable()) {
      stable_polls = 0;
      continue;
    }
    std::optional<wire::StatusReply> st;
    {
      Tracer::Scope s(tr, "client.status");
      st = client.query_status(100);
    }
    if (!st) continue;
    if (st->stable && st->active_sessions == client.live_sessions() &&
        st->packets_seen == last_seen) {
      if (++stable_polls >= 2) {
        b.converged = wall_ns();
        return;
      }
    } else {
      stable_polls = 0;
      last_seen = st->packets_seen;
    }
  }
  b.failure = "no convergence within 5 s (" +
              std::to_string(client.live_sessions()) + " live sessions)";
}

/// Rates of the live sessions against the reference solver.
std::string check_rates(const Cycle& c,
                        const std::map<std::int32_t, core::SessionSpec>& live) {
  if (c.client->live_sessions() != live.size()) {
    return "client holds " + std::to_string(c.client->live_sessions()) +
           " live sessions, expected " + std::to_string(live.size());
  }
  if (live.empty()) return "";
  std::vector<core::SessionSpec> specs;
  for (const auto& [id, spec] : live) specs.push_back(spec);
  const core::MaxMinSolution sol = core::solve_reference(*c.net, specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Rate got = c.client->rate_of(specs[i].id);
    const Rate want = sol.rates[i];
    if (std::isnan(got) ||
        std::abs(got - want) > kRateCheckEps * std::max(1.0, want)) {
      return "session " + std::to_string(specs[i].id.value()) +
             " converged to " + std::to_string(got) + ", solver says " +
             std::to_string(want);
    }
  }
  return "";
}

/// Per-frame encode and decode cost over a frame mix built from the
/// cycle's sessions: each session's Join (with its real path) and one
/// frame of every other packet type, wrapped in reliability Data frames
/// as the channel sends them.
void wire_costs(const std::vector<workload::SessionPlan>& joins,
                Outcome& outcome, Layers& layers) {
  std::vector<core::Packet> packets;
  std::vector<std::vector<LinkId>> paths;
  for (const auto& plan : joins) {
    for (int t = 0; t < core::kPacketTypeCount; ++t) {
      core::Packet p;
      p.type = static_cast<core::PacketType>(t);
      p.session = plan.id;
      p.eta = plan.path.links.front();
      p.hop = 1;
      p.lambda = 10.0;
      if (p.type == core::PacketType::Response) p.tag = core::ResponseTag::Update;
      packets.push_back(p);
      paths.push_back(p.type == core::PacketType::Join ? plan.path.links
                                                       : std::vector<LinkId>{});
    }
  }
  constexpr int kReps = 20;
  std::vector<std::uint8_t> inner;
  std::vector<std::uint8_t> frame;
  std::vector<std::vector<std::uint8_t>> frames(packets.size());
  const std::int64_t e0 = wall_ns();
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < packets.size(); ++i) {
      inner.clear();
      frame.clear();
      wire::encode_packet(packets[i], paths[i], inner);
      wire::encode_data(i, inner, frame);
      if (rep == 0) frames[i] = frame;
    }
  }
  const std::int64_t e1 = wall_ns();
  std::size_t ok = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& f : frames) ok += wire::decode(f).ok() ? 1 : 0;
  }
  const std::int64_t e2 = wall_ns();
  const double n = static_cast<double>(kReps) * static_cast<double>(packets.size());
  layers["wire.encode_ns"] = static_cast<double>(e1 - e0) / n;
  layers["wire.decode_ns"] = static_cast<double>(e2 - e1) / n;
  ++outcome.attempted;
  if (static_cast<double>(ok) != n) outcome.fail("wire replay: a frame failed to decode");
}

}  // namespace

void daemon_loopback(const Options& opt, double seconds, Tracer& tr,
                     Pass& pass, Outcome& outcome, Layers& layers) {
  std::int64_t burst_wall = 0;  // the interval the CPU times cover
  std::int64_t client_cpu = 0;
  std::int64_t daemon_cpu = 0;
  double datagrams = 0;
  double sessions = 0;
  double retransmissions = 0;
  double acks = 0;
  double duplicates = 0;
  double accepted = 0;
  double rejected = 0;
  int cycles = 0;
  std::vector<workload::SessionPlan> last_joins;

  for_cycles(seconds, kSubSeeds, pass, [&](int k_seed) {
    const std::uint64_t seed = sub_seed(opt.seed, k_seed, kSubSeeds);
    Cycle c;
    pass.setup_s.push_back(set_up(c, seed, tr));
    transport::SourceClient& client = *c.client;
    std::map<std::int32_t, core::SessionSpec> live;
    Round round;
    const auto rx0 = client.transport().datagrams_received();
    const auto tx0 = client.transport().datagrams_sent();

    // Runs one burst of API calls to convergence and checks it.
    auto burst = [&](const char* span, auto&& api_calls) {
      Burst b;
      const std::int64_t cpu0 = thread_cpu_ns();
      const std::int64_t dcpu0 = c.daemon->cpu_ns();
      {
        Tracer::Scope s(tr, span);
        b.start = wall_ns();
        b.last_rx = b.start;
        api_calls();
        converge(client, b, tr);
      }
      burst_wall += wall_ns() - b.start;
      client_cpu += thread_cpu_ns() - cpu0;
      daemon_cpu += c.daemon->cpu_ns() - dcpu0;
      ++outcome.attempted;
      if (b.failure.empty()) b.failure = check_rates(c, live);
      if (!b.failure.empty()) {
        outcome.fail(std::string("daemon_loopback seed ") +
                     std::to_string(seed) + " " + span + ": " + b.failure);
        return false;
      }
      const std::int64_t latency = b.converged - b.start;
      round.wall_s += static_cast<double>(latency) * 1e-9;
      round.quiescence_ms += static_cast<double>(b.last_rx - b.start) * 1e-6;
      pass.ops_ms.push_back(static_cast<double>(latency) * 1e-6);
      return true;
    };
    auto api = [&](auto&& call) {
      {
        Tracer::Scope s(tr, "client.api");
        call();
      }
      client.poll(0);  // keep the socket drained during the burst
    };

    bool ok = burst("transport.join_burst", [&] {
      for (const auto& p : c.joins) {
        api([&] { client.join(p.id, p.path, p.demand, p.weight); });
        core::SessionSpec spec;
        spec.id = p.id;
        spec.path = p.path;
        spec.demand = p.demand;
        spec.weight = p.weight;
        live.emplace(p.id.value(), std::move(spec));
      }
    });
    ok = ok && burst("transport.change_burst", [&] {
      for (std::size_t i = 0; i < c.new_demand.size(); ++i) {
        const SessionId id = c.joins[i].id;
        api([&] { client.change(id, c.new_demand[i]); });
        live.at(id.value()).demand = c.new_demand[i];
      }
    });
    ok = ok && burst("transport.leave_burst", [&] {
      for (const auto& p : c.joins) {
        api([&] { client.leave(p.id); });
        live.erase(p.id.value());
      }
    });
    if (ok) {
      round.packets = static_cast<double>(
          client.transport().datagrams_received() - rx0 +
          client.transport().datagrams_sent() - tx0);
      round.sessions = static_cast<double>(c.joins.size() * 2 +
                                           c.new_demand.size());
      pass.rounds.push_back(round);
      datagrams += round.packets;
      sessions += round.sessions;
    }
    client.shutdown_daemon();
    c.daemon->stop();
    transport::Daemon& d = c.daemon->daemon();
    retransmissions += static_cast<double>(
        client.transport().retransmissions() + d.transport().retransmissions());
    acks += static_cast<double>(client.transport().acks_sent() +
                                d.transport().acks_sent());
    duplicates += static_cast<double>(client.transport().duplicates_dropped() +
                                      d.transport().duplicates_dropped());
    accepted += static_cast<double>(d.stats().frames_accepted);
    rejected += static_cast<double>(d.stats().frames_rejected);
    ++cycles;
    if (tr.on()) last_joins = c.joins;
  });
  if (!tr.on()) return;

  const double bursts = static_cast<double>(pass.ops_ms.size());
  const double n = cycles;
  layers["topo.build_s"] = tr.total_s("topo.build") / n;
  layers["net.paths_s"] = tr.total_s("net.paths") / n;
  layers["transport.client.api_ms"] =
      tr.total_s("client.api") * 1e3 / std::max(1.0, bursts);
  layers["transport.client.status_ms"] =
      tr.total_s("client.status") * 1e3 / std::max(1.0, bursts);
  const double wall = std::max<double>(1, static_cast<double>(burst_wall));
  layers["transport.client.cpu_share"] = static_cast<double>(client_cpu) / wall;
  layers["transport.daemon.cpu_share"] = static_cast<double>(daemon_cpu) / wall;
  layers["transport.datagrams_per_session"] = datagrams / std::max(1.0, sessions);
  layers["transport.retransmissions"] = retransmissions / n;
  layers["transport.acks_sent"] = acks / n;
  layers["transport.duplicates_dropped"] = duplicates / n;
  layers["transport.daemon.frames_accepted"] = accepted / n;
  layers["transport.daemon.frames_rejected"] = rejected / n;
  wire_costs(last_joins, outcome, layers);
}

}  // namespace bneckbench
