// verify_small: the correctness tooling as a workload.
//
// A single-thread check::run_scenario campaign over a fixed block of
// generated scenarios (the default invariant checker; about a fifth of
// the seeds are lossy and run over ArqChannel, about a quarter use WAN
// delays), then a DPOR-on mc::explore over a fixed block of
// 3-router/4-session instances.  It runs thousands of tiny instances,
// each stepping one event at a time with audits (fuzzer) or
// snapshot/restore (model checker) — the opposite end of `sim` and
// `core` from churn_lan's large tables, so a change that wins there but
// adds per-instance cost shows here.
//
// The scenarios come from fixed seed blocks: fuzz seeds
// 0 .. kSubSeeds*kFuzzSeeds-1 and model-checker seeds
// 0 .. kSubSeeds*kMcInstances-1.  The benchmark seed shuffles each
// block and deals it into kSubSeeds rounds, so every cycle covers both
// whole blocks and the seed decides which scenarios share a round.  A
// round generates its scenarios and runs them; every seed must pass
// and every exploration must complete.
#include <numeric>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "bench.hpp"
#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "mc/explorer.hpp"

namespace bneckbench {
namespace {

using namespace bneck;

constexpr std::uint64_t kFuzzSeeds = 400;
constexpr std::uint64_t kMcInstances = 100;
constexpr std::uint64_t kSubSeeds = 20;

struct Blocks {
  std::vector<check::Scenario> fuzz;
  std::vector<check::Scenario> mc;
};

/// Seeds 0 .. n-1 in an order drawn from `rng`.
std::vector<std::uint64_t> shuffled_block(std::uint64_t n, Rng& rng) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), std::uint64_t{0});
  rng.shuffle(v);
  return v;
}

double wall_s_since(std::int64_t t0) {
  return static_cast<double>(wall_ns() - t0) * 1e-9;
}

}  // namespace

void verify_small(const Options& opt, double seconds, Tracer& tr, Pass& pass,
                  Outcome& outcome, Layers& layers) {
  check::SmallModelParams small;
  small.routers = 3;
  small.sessions = 4;
  const check::CheckOptions check_opt;
  const mc::McOptions mc_opt;

  double fuzz_s = 0;
  double mc_s = 0;
  double events = 0;
  double lossy = 0;
  double transitions = 0;
  double states = 0;
  double sleep_skips = 0;
  double visited_skips = 0;
  int rounds = 0;

  Rng rng(opt.seed);
  const std::vector<std::uint64_t> fuzz_order =
      shuffled_block(kSubSeeds * kFuzzSeeds, rng);
  const std::vector<std::uint64_t> mc_order =
      shuffled_block(kSubSeeds * kMcInstances, rng);

  for_cycles(seconds, static_cast<int>(kSubSeeds), pass, [&](int k_seed) {
    const auto k = static_cast<std::uint64_t>(k_seed);
    Blocks blocks;
    const std::int64_t t_setup = wall_ns();
    {
      Tracer::Scope s(tr, "check.generate");
      for (std::uint64_t i = 0; i < kFuzzSeeds; ++i) {
        blocks.fuzz.push_back(
            check::generate_scenario(fuzz_order[k * kFuzzSeeds + i]));
      }
      for (std::uint64_t i = 0; i < kMcInstances; ++i) {
        blocks.mc.push_back(check::generate_small_scenario(
            mc_order[k * kMcInstances + i], small));
      }
    }
    pass.setup_s.push_back(wall_s_since(t_setup));

    Round round;
    for (const check::Scenario& sc : blocks.fuzz) {
      const std::int64_t t0 = wall_ns();
      check::CheckResult r;
      {
        Tracer::Scope s(tr, "check.run");
        r = check::run_scenario(sc, check_opt);
      }
      const double dt = wall_s_since(t0);
      ++outcome.attempted;
      if (!r.ok) {
        outcome.fail("verify_small fuzz seed " + std::to_string(sc.seed) +
                     ": " + r.message);
      }
      round.wall_s += dt;
      round.packets += static_cast<double>(r.packets_sent);
      round.quiescence_ms += static_cast<double>(r.quiesced_at) * 1e-6;
      round.sessions += static_cast<double>(r.schedule_events);
      pass.ops_ms.push_back(dt * 1e3);
      fuzz_s += dt;
      events += static_cast<double>(r.events_processed);
      if (sc.loss_probability > 0) lossy += 1;
    }
    for (const check::Scenario& sc : blocks.mc) {
      const std::int64_t t0 = wall_ns();
      mc::McResult r;
      {
        Tracer::Scope s(tr, "mc.explore");
        r = mc::explore(sc, mc_opt);
      }
      const double dt = wall_s_since(t0);
      ++outcome.attempted;
      if (!r.ok || !r.complete) {
        outcome.fail("verify_small mc seed " + std::to_string(sc.seed) +
                     (r.ok ? ": exploration hit a cap" : ": " + r.message));
      }
      round.wall_s += dt;
      round.packets += static_cast<double>(r.transitions);
      round.sessions += static_cast<double>(sc.events.size());
      pass.ops_ms.push_back(dt * 1e3);
      mc_s += dt;
      transitions += static_cast<double>(r.transitions);
      states += static_cast<double>(r.states);
      sleep_skips += static_cast<double>(r.sleep_skips);
      visited_skips += static_cast<double>(r.visited_skips);
    }
    pass.rounds.push_back(round);
    ++rounds;
  });
  if (!tr.on()) return;

  const double seeds = static_cast<double>(rounds) * kFuzzSeeds;
  const double n = rounds;
  layers["check.gen_us_per_seed"] =
      tr.total_s("check.generate") * 1e6 /
      (static_cast<double>(rounds) * (kFuzzSeeds + kMcInstances));
  layers["check.run_us_per_seed"] = tr.total_s("check.run") * 1e6 / seeds;
  layers["check.events_per_seed"] = events / seeds;
  layers["check.lossy_share"] = lossy / seeds;
  layers["check.seeds_per_s"] = seeds / fuzz_s;
  layers["mc.transitions"] = transitions / n;
  layers["mc.ns_per_transition"] = tr.total_s("mc.explore") * 1e9 / transitions;
  layers["mc.sleep_skips"] = sleep_skips / n;
  layers["mc.visited_skips"] = visited_skips / n;
  layers["mc.states_per_s"] = states / mc_s;
}

}  // namespace bneckbench
