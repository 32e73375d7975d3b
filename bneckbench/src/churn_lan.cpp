// churn_lan: the paper's Experiment 2 (Fig. 6) on the classic engine.
//
// Five phases (join, leave, change, join, mixed) on the medium
// transit-stub network with LAN delays, sized like `exp2_dynamics
// --scale 0.05` (5000-session join phase, 1000-session churn), so the
// per-link session tables and the event queue are far larger than a
// core's cache.  The benchmark calls the same public pieces that
// workload::DynamicsRunner::run_phase calls — PhasePlanner::plan_phase,
// schedule_joins / Simulator::schedule_at, Simulator::run_until_idle —
// so each step can be timed on its own, and checks every phase against
// core::solve_waterfill outside the timed region.
//
// A round is one fresh set-up (topology, routing, runner) plus the five
// phases of one sub-workload.  Its simulated protocol costs (packets,
// time to quiescence) equal exp2_dynamics' own output for the same seed
// and scale.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "base/rate.hpp"
#include "bench.hpp"
#include "core/maxmin.hpp"
#include "proto/bneck_driver.hpp"
#include "topo/transit_stub.hpp"
#include "workload/experiment.hpp"
#include "workload/workload.hpp"

namespace bneckbench {
namespace {

using namespace bneck;

constexpr std::int32_t kBase = 5000;  // exp2_dynamics --scale 0.05
constexpr TimeNs kBinWidth = milliseconds(5);
constexpr int kSubSeeds = 4;
// A set-up takes milliseconds next to a round's seconds: each round
// sets up this many times (keeping the last) so the set-up median rests
// on more samples.
constexpr int kSetupRepeats = 3;

const std::array<const char*, 5> kPhaseSpan = {
    "workload.phase1", "workload.phase2", "workload.phase3",
    "workload.phase4", "workload.phase5"};

struct Phase {
  workload::PhaseSpec spec;
  std::size_t active_after;  // expected live sessions after the phase
};

/// exp2_dynamics' five phases for a join population of `base`.
std::vector<Phase> five_phases(std::int32_t base) {
  const std::int32_t churn = base / 5;
  const auto b = static_cast<std::size_t>(base);
  const auto c = static_cast<std::size_t>(churn);
  std::vector<Phase> out(5);
  out[0].spec.joins = base;
  out[0].active_after = b;
  out[1].spec.leaves = churn;
  out[1].active_after = b - c;
  out[2].spec.changes = churn;
  out[2].active_after = b - c;
  out[3].spec.joins = churn;
  out[3].active_after = b;
  out[4].spec.joins = churn;
  out[4].spec.leaves = churn;
  out[4].spec.changes = churn;
  out[4].active_after = b;
  return out;
}

/// One set-up: network, routing and the runner pieces of
/// DynamicsRunner, in DynamicsRunner's construction (and rng) order.
struct Classic {
  Rng rng;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<workload::PhasePlanner> planner;
  sim::Simulator sim;
  workload::PacketBinner binner{kBinWidth};
  std::unique_ptr<proto::BneckDriver> driver;

  explicit Classic(std::uint64_t seed) : rng(seed) {}
};

/// Builds a Classic and returns its set-up wall time (seconds).
/// `sink`, when set, observes every packet instead of the binner alone
/// (it must forward to the binner itself).
double set_up(Classic& c, std::int32_t base, Tracer& tr,
              core::TraceSink* sink = nullptr) {
  const std::int64_t t0 = wall_ns();
  auto params = topo::medium_params();
  params.hosts = base + 3 * (base / 5) + 64;  // distinct source hosts
  {
    Tracer::Scope s(tr, "topo.build");
    c.net = std::make_unique<net::Network>(
        topo::make_transit_stub(params, c.rng));
  }
  {
    Tracer::Scope s(tr, "net.paths");
    c.planner = std::make_unique<workload::PhasePlanner>(*c.net, c.rng);
  }
  {
    Tracer::Scope s(tr, "core.runner");
    c.driver = std::make_unique<proto::BneckDriver>(
        c.sim, *c.net, core::BneckConfig{},
        sink != nullptr ? sink : &c.binner);
  }
  return static_cast<double>(wall_ns() - t0) * 1e-9;
}

/// Agreement with the centralized solver (the relative error
/// DynamicsRunner::max_rate_error reports, within kRateCheckEps — the
/// two compute the same levels in a different order of floating-point
/// operations) plus the live-session count; returns "" when the phase
/// is right.
std::string check_phase(const Classic& c, const Phase& ph, std::size_t k,
                        Tracer& tr) {
  Tracer::Scope s(tr, "core.solve");
  const auto specs = c.driver->active_specs();
  const auto sol = core::solve_waterfill(*c.net, specs);
  if (specs.size() != ph.active_after ||
      c.driver->protocol().active_sessions() != ph.active_after) {
    return "phase " + std::to_string(k + 1) + ": " +
           std::to_string(specs.size()) + " active sessions, expected " +
           std::to_string(ph.active_after);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Rate got = c.driver->current_rate(specs[i].id);
    if (!(std::fabs(got - sol.rates[i]) <=
          kRateCheckEps * std::max(1.0, sol.rates[i]))) {
      return "phase " + std::to_string(k + 1) + ": session " +
             std::to_string(specs[i].id.value()) + " rate " +
             std::to_string(got) + ", solver " +
             std::to_string(sol.rates[i]);
    }
  }
  return "";
}

struct PhaseRun {
  double wall_s = 0;
  double sim_s = 0;  // the Simulator::run_until_idle / step() part
  std::uint64_t packets = 0;
  TimeNs quiescence = 0;
  std::uint64_t events = 0;
};

/// Plans, schedules and simulates one phase — DynamicsRunner::run_phase
/// step by step.  `plan_out` receives the plan when non-null.
PhaseRun run_phase(Classic& c, const workload::PhaseSpec& spec, Tracer& tr,
                   std::size_t* pending_peak,
                   workload::PhasePlan* plan_out = nullptr) {
  PhaseRun r;
  const TimeNs started = c.sim.now();
  const std::uint64_t packets0 = c.driver->packets_sent();
  const std::uint64_t events0 = c.sim.events_processed();
  const std::int64_t t0 = wall_ns();
  workload::PhasePlan plan;
  {
    Tracer::Scope s(tr, "workload.plan");
    plan = c.planner->plan_phase(spec, c.sim.now());
  }
  {
    Tracer::Scope s(tr, "sim.schedule");
    proto::BneckDriver& driver = *c.driver;
    workload::schedule_joins(c.sim, driver, plan.joins);
    for (const auto& l : plan.leaves) {
      c.sim.schedule_at(l.when,
                        [&driver, id = l.id] { driver.leave(SessionId{id}); });
    }
    for (const auto& ch : plan.changes) {
      c.sim.schedule_at(ch.when, [&driver, id = ch.id, d = ch.demand] {
        driver.change(SessionId{id}, d);
      });
    }
  }
  const std::int64_t t_sim = wall_ns();
  {
    Tracer::Scope s(tr, "sim.run");
    if (pending_peak == nullptr) {
      c.sim.run_until_idle();
    } else {
      // Traced: step one event at a time to sample the queue depth.
      std::size_t n = 0;
      std::size_t peak = *pending_peak;
      while (c.sim.step()) {
        if ((++n & 63) == 0) peak = std::max(peak, c.sim.pending());
      }
      *pending_peak = peak;
    }
  }
  r.sim_s = static_cast<double>(wall_ns() - t_sim) * 1e-9;
  r.wall_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  r.packets = c.driver->packets_sent() - packets0;
  r.quiescence = c.sim.now() - started;
  r.events = c.sim.events_processed() - events0;
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return r;
}

/// Records every packet's send and arrival instant (arrival replayed
/// through a private copy of the transport's per-link FIFO clocks) and
/// forwards it to the binner.
class Recorder final : public core::TraceSink {
 public:
  struct Rec {
    TimeNs send;
    TimeNs arrive;
  };

  explicit Recorder(core::TraceSink& next) : next_(next) {}

  void bind(const net::Network& net) {
    net_ = &net;
    fifo_.assign(static_cast<std::size_t>(net.link_count()), {});
  }

  void on_packet_sent(TimeNs t, const core::Packet& p, LinkId e) override {
    next_.on_packet_sent(t, p, e);
    const net::Link& l = net_->link(e);
    recs.push_back({t, fifo_[static_cast<std::size_t>(e.value())].transmit(
                           t, cfg_.control_tx_time(l), l.prop_delay)});
  }

  std::vector<Rec> recs;

 private:
  const net::Network* net_ = nullptr;
  core::TraceSink& next_;
  core::BneckConfig cfg_;
  std::vector<sim::FifoChannel> fifo_;
};

struct Tick {
  std::int32_t unused = 0;
};

/// Replays one phase's event schedule through a bare Simulator whose
/// handler does nothing but schedule the recorded follow-up deliveries:
/// what is left is the event queue's own cost on this schedule.
class Replayer final : public sim::DeliveryHandlerOf<Replayer, Tick> {
 public:
  explicit Replayer(const std::vector<Recorder::Rec>& recs) : recs_(recs) {}

  /// Returns (wall seconds, events fired).
  std::pair<double, std::uint64_t> run(const std::vector<TimeNs>& api) {
    for (const TimeNs t : api) sim_.schedule_delivery_at(t, *this, Tick{});
    const std::int64_t t0 = wall_ns();
    sim_.run_until_idle();
    return {static_cast<double>(wall_ns() - t0) * 1e-9,
            sim_.events_processed()};
  }
  [[nodiscard]] bool complete() const { return next_ == recs_.size(); }

  void on_delivery(const Tick&) {
    const TimeNs now = sim_.now();
    while (next_ < recs_.size() && recs_[next_].send <= now) {
      sim_.schedule_delivery_at(std::max(now, recs_[next_].arrive), *this,
                                Tick{});
      ++next_;
    }
  }

 private:
  const std::vector<Recorder::Rec>& recs_;
  sim::Simulator sim_;
  std::size_t next_ = 0;
};

std::vector<TimeNs> api_times(const workload::PhasePlan& plan) {
  std::vector<TimeNs> t;
  for (const auto& j : plan.joins) t.push_back(j.join_at);
  for (const auto& l : plan.leaves) t.push_back(l.when);
  for (const auto& c : plan.changes) t.push_back(c.when);
  std::sort(t.begin(), t.end());
  return t;
}

/// Traced-only extras, run once after the traced rounds on sub-workload
/// `seed`, whose traced rounds took `round_s` (all five phases) and
/// `sim_s` (their simulator part) on average: the queue replay, the
/// half-size round and the 2-shard engine.
void extras(std::uint64_t seed, double round_s, double sim_s,
            Outcome& outcome, Layers& layers) {
  const auto phases = five_phases(kBase);

  // 1. Queue replay on this workload's schedule.  The extra rounds run
  // with a private, disabled tracer so they stay out of the spans.
  Tracer off;
  Classic rec_run(seed);
  Recorder rec(rec_run.binner);
  set_up(rec_run, kBase, off, &rec);
  rec.bind(*rec_run.net);
  double replay_s = 0;
  std::uint64_t replay_events = 0;
  std::uint64_t rec_packets = 0;
  for (const Phase& ph : phases) {
    workload::PhasePlan plan;
    rec.recs.clear();
    rec_packets += run_phase(rec_run, ph.spec, off, nullptr, &plan).packets;
    Replayer replayer(rec.recs);
    const auto [s, n] = replayer.run(api_times(plan));
    ++outcome.attempted;
    if (!replayer.complete()) outcome.fail("queue replay lost packets");
    replay_s += s;
    replay_events += n;
  }
  layers["sim.queue_ns_per_event"] =
      replay_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, replay_events));
  layers["core.handler_ns_per_packet"] =
      (sim_s - replay_s) * 1e9 /
      static_cast<double>(std::max<std::uint64_t>(1, rec_packets));

  // 2. The same five phases at half the population.
  {
    Classic half(seed);
    set_up(half, kBase / 2, off);
    double wall = 0;
    std::uint64_t packets = 0;
    for (const Phase& ph : five_phases(kBase / 2)) {
      const PhaseRun r = run_phase(half, ph.spec, off, nullptr);
      wall += r.wall_s;
      packets += r.packets;
    }
    layers["core.ns_per_packet.half"] =
        wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, packets));
  }

  // 3. The sharded engine with two shards on the same phases.
  {
    Rng rng(seed);
    auto params = topo::medium_params();
    params.hosts = kBase + 3 * (kBase / 5) + 64;
    const net::Network net = topo::make_transit_stub(params, rng);
    core::ShardedConfig scfg;
    scfg.shards = 2;
    workload::ShardedDynamicsRunner runner(net, rng, scfg, kBinWidth);
    const std::int64_t t0 = wall_ns();
    for (const Phase& ph : phases) (void)runner.run_phase(ph.spec);
    const double k2_s = static_cast<double>(wall_ns() - t0) * 1e-9;
    const auto& engine = runner.engine();
    layers["sim.shard.k2.run_s"] = k2_s;
    layers["sim.shard.k2.speedup"] = round_s / k2_s;
    layers["sim.shard.windows"] = static_cast<double>(engine.windows_run());
    layers["sim.shard.cross_share"] =
        static_cast<double>(engine.cross_shard_packets()) /
        static_cast<double>(std::max<std::uint64_t>(1, engine.packets_sent()));
    const stats::BinnedCounter merged = runner.bins();
    const stats::BinnedCounter& classic = rec_run.binner.bins();
    bool same = merged.bin_count() == classic.bin_count();
    for (std::size_t b = 0; same && b < classic.bin_count(); ++b) {
      for (std::size_t k = 0; k < classic.category_count(); ++k) {
        if (merged.at(b, k) != classic.at(b, k)) same = false;
      }
    }
    layers["sim.shard.bins_identical"] = same ? 1 : 0;
  }
}

}  // namespace

void churn_lan(const Options& opt, double seconds, Tracer& tr, Pass& pass,
               Outcome& outcome, Layers& layers) {
  const auto phases = five_phases(kBase);
  std::size_t pending_peak = 0;
  std::uint64_t events = 0;
  std::array<double, 5> phase_s{};
  std::array<std::uint64_t, core::kPacketTypeCount> by_type{};
  std::uint64_t probe_cycles = 0;
  std::vector<double> link_sizes;
  int rounds = 0;
  // Traced rounds of sub-workload 0, which the extras run again.
  double first_round_s = 0;
  double first_sim_s = 0;
  int first_rounds = 0;

  for_cycles(seconds, kSubSeeds, pass, [&](int k_seed) {
    const std::uint64_t seed = sub_seed(opt.seed, k_seed, kSubSeeds);
    for (int i = 1; i < kSetupRepeats; ++i) {
      Classic spare(seed);
      pass.setup_s.push_back(set_up(spare, kBase, tr));
    }
    Classic c(seed);
    pass.setup_s.push_back(set_up(c, kBase, tr));
    Round round;
    for (std::size_t k = 0; k < phases.size(); ++k) {
      PhaseRun r;
      {
        Tracer::Scope s(tr, kPhaseSpan[k]);
        r = run_phase(c, phases[k].spec, tr,
                      tr.on() ? &pending_peak : nullptr);
      }
      ++outcome.attempted;
      round.wall_s += r.wall_s;
      round.packets += static_cast<double>(r.packets);
      round.quiescence_ms += static_cast<double>(r.quiescence) * 1e-6;
      round.sessions += phases[k].spec.joins + phases[k].spec.leaves +
                        phases[k].spec.changes;
      pass.ops_ms.push_back(r.wall_s * 1e3);
      events += r.events;
      phase_s[k] += r.wall_s;
      if (k_seed == 0) {
        first_round_s += r.wall_s;
        first_sim_s += r.sim_s;
      }
      if (const std::string err = check_phase(c, phases[k], k, tr);
          !err.empty()) {
        outcome.fail("churn_lan seed " + std::to_string(seed) + " " + err);
      }
    }
    pass.rounds.push_back(round);
    ++rounds;
    if (k_seed == 0) ++first_rounds;
    if (tr.on()) {
      const core::BneckProtocol& p = c.driver->protocol();
      for (int t = 0; t < core::kPacketTypeCount; ++t) {
        by_type[static_cast<std::size_t>(t)] +=
            p.packets_by_type()[static_cast<std::size_t>(t)];
      }
      probe_cycles += p.total_probe_cycles();
      link_sizes.clear();
      for (const LinkId e : p.active_links()) {
        link_sizes.push_back(
            static_cast<double>(p.router_link(e)->table().size()));
      }
    }
  });
  if (!tr.on()) return;

  const double n = rounds;
  const double setups = static_cast<double>(pass.setup_s.size());
  layers["topo.build_s"] = tr.total_s("topo.build") / setups;
  layers["net.paths_s"] = tr.total_s("net.paths") / setups;
  layers["workload.plan_s"] = tr.total_s("workload.plan") / n;
  layers["sim.schedule_s"] = tr.total_s("sim.schedule") / n;
  layers["sim.run_s"] = tr.total_s("sim.run") / n;
  layers["sim.events"] = static_cast<double>(events) / n;
  layers["sim.ns_per_event"] =
      tr.total_s("sim.run") * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, events));
  layers["sim.pending_peak"] = static_cast<double>(pending_peak);
  layers["core.solve_s"] = tr.total_s("core.solve") / n;
  static const std::array<const char*, core::kPacketTypeCount> kTypeName = {
      "core.packets.Join",       "core.packets.Probe",
      "core.packets.Response",   "core.packets.Update",
      "core.packets.Bottleneck", "core.packets.SetBottleneck",
      "core.packets.Leave"};
  for (std::size_t t = 0; t < kTypeName.size(); ++t) {
    layers[kTypeName[t]] = static_cast<double>(by_type[t]) / n;
  }
  layers["core.probe_cycles"] = static_cast<double>(probe_cycles) / n;
  layers["core.active_links"] = static_cast<double>(link_sizes.size());
  layers["core.sessions_per_link.p50"] = median(link_sizes);
  layers["core.sessions_per_link.max"] =
      link_sizes.empty() ? 0
                         : *std::max_element(link_sizes.begin(), link_sizes.end());
  for (std::size_t k = 0; k < phase_s.size(); ++k) {
    layers[std::string(kPhaseSpan[k]) + ".run_s"] = phase_s[k] / n;
  }
  extras(sub_seed(opt.seed, 0, kSubSeeds), first_round_s / first_rounds,
         first_sim_s / first_rounds, outcome, layers);
}

}  // namespace bneckbench
