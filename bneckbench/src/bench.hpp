// Shared pieces of the benchmark binary: clocks, the in-memory tracer,
// the per-pass measurement record and the raw JSON the binary prints.
//
// The benchmark measures the bneck library from outside: every number
// comes from timing calls into a module's public functions from the
// files in this directory, never from instrumentation inside src/.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bneckbench {

/// Monotonic wall clock, nanoseconds.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, nanoseconds.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set of this process since the last reset_peak_rss(),
/// MiB (0 if unknown).
double peak_rss_mb();

/// Restarts the peak-RSS high-water mark (Linux clear_refs), so each
/// round's peak can be read on its own.
void reset_peak_rss();

/// Spans recorded in memory while tracing is on, written out as JSON
/// when the run ends.  Counts are taken at the same call sites by the
/// workloads themselves.  With tracing off every call is a
/// single branch, so the untraced passes carry no recording cost.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;  // index of the enclosing span, -1 at top level
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t id_;
  };

  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  std::int32_t open(const char* name);
  void close(std::int32_t id);

  /// Total duration (seconds) of the closed spans named `name`.
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Writes {"spans": [...]} to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// One timed round of a workload's fixed batch.
struct Round {
  double wall_s = 0;         // host wall time of the round
  double packets = 0;        // protocol packets the round exchanged
  double quiescence_ms = 0;  // time to quiescence, summed over operations
  double sessions = 0;       // session API calls (join/leave/change)
  double peak_rss_mb = 0;    // peak resident set during the round
};

/// The end-to-end record of one pass (untraced or traced).
struct Pass {
  std::vector<double> setup_s;  // one sample per set-up
  std::vector<Round> rounds;
  std::vector<double> ops_ms;   // per-operation wall latency
};

/// Operations attempted and failed, with the first failure messages.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(what));
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span file written by a traced run
};

/// Per-layer values by metric name (declared in BENCHMARK.json).
using Layers = std::map<std::string, double>;

/// Runs one workload pass for `seconds`.  Layer metrics are added to
/// `layers` only when the tracer is on.
using PassFn = void (*)(const Options&, double seconds, Tracer&, Pass&,
                        Outcome&, Layers&);

void churn_lan(const Options&, double, Tracer&, Pass&, Outcome&, Layers&);
void daemon_loopback(const Options&, double, Tracer&, Pass&, Outcome&,
                     Layers&);
void verify_small(const Options&, double, Tracer&, Pass&, Outcome&,
                  Layers&);

/// Runs cycles of `round(k)`, k = 0 .. subseeds-1, while `seconds`
/// allow: at least one cycle, and another only when at least half a
/// cycle's time is left.  Each k is a different sub-workload drawn from
/// the workload seed: one seed's inputs vary in size, so a run spreads
/// over several and reports medians; whole cycles keep every
/// sub-workload equally represented however many cycles fit.  Each
/// round's peak resident set is recorded in its Round (the last one
/// `round` appended to `pass`).
template <class Fn>
void for_cycles(double seconds, int subseeds, Pass& pass, Fn&& round) {
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t cycle = 0;
  do {
    const std::int64_t t0 = wall_ns();
    for (int k = 0; k < subseeds; ++k) {
      reset_peak_rss();
      const std::size_t before = pass.rounds.size();
      round(k);
      if (pass.rounds.size() > before) {
        pass.rounds.back().peak_rss_mb = peak_rss_mb();
      }
    }
    cycle = wall_ns() - t0;
  } while (wall_ns() - start + cycle / 2 < budget);
}

/// Seed of sub-workload `k` of a workload seed (distinct for every
/// (seed, k) pair).
inline std::uint64_t sub_seed(std::uint64_t seed, int k, int subseeds) {
  return seed * static_cast<std::uint64_t>(subseeds) +
         static_cast<std::uint64_t>(k);
}

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

}  // namespace bneckbench
