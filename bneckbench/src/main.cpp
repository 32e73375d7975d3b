// bneckbench: the measuring half of the repository benchmark.
//
//   bneckbench --workload <churn_lan|daemon_loopback|verify_small>
//              --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints one JSON line of raw measurements on stdout (the set-up
// samples, every timed round and operation, the per-layer values of a
// traced run, and the operations attempted and failed); run.py turns it
// into the benchmark's metrics.  With --trace 1 the run is split in
// two: an untraced pass and a traced pass of S/2 seconds each, so the
// tracing overhead is the difference between the two.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>

#include "bench.hpp"

#ifndef BNECKBENCH_BUILD_TYPE
#define BNECKBENCH_BUILD_TYPE "unknown"
#endif
#ifndef BNECKBENCH_LTO
#define BNECKBENCH_LTO "unknown"
#endif
#ifndef BNECKBENCH_COMPILER
#define BNECKBENCH_COMPILER "unknown"
#endif

using namespace bneckbench;

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& v) {
  std::ostringstream out;
  out.precision(17);
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
  out << "]";
  return out.str();
}

std::string json_pass(const Pass& p) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"setup_s\": " << json_list(p.setup_s) << ", \"rounds\": [";
  for (std::size_t i = 0; i < p.rounds.size(); ++i) {
    const Round& r = p.rounds[i];
    out << (i ? ", " : "") << "{\"wall_s\": " << r.wall_s
        << ", \"packets\": " << r.packets
        << ", \"quiescence_ms\": " << r.quiescence_ms
        << ", \"sessions\": " << r.sessions
        << ", \"peak_rss_mb\": " << r.peak_rss_mb << "}";
  }
  out << "], \"ops_ms\": " << json_list(p.ops_ms) << "}";
  return out.str();
}

int usage(const char* msg) {
  std::cerr << "bneckbench: " << msg
            << "\nusage: bneckbench --workload churn_lan|daemon_loopback|"
               "verify_small --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage("missing flag value");
    const char* v = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      opt.trace_out = v;
    } else {
      return usage("unknown flag");
    }
  }
  PassFn fn = nullptr;
  if (opt.workload == "churn_lan") fn = churn_lan;
  if (opt.workload == "daemon_loopback") fn = daemon_loopback;
  if (opt.workload == "verify_small") fn = verify_small;
  if (fn == nullptr) return usage("unknown workload");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  Tracer tracer;
  Pass untraced;
  Pass traced;
  Outcome outcome;
  Layers layers;
  try {
    const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    fn(opt, pass_s, tracer, untraced, outcome, layers);
    if (opt.trace) {
      tracer.set_on(true);
      fn(opt, pass_s, tracer, traced, outcome, layers);
      tracer.set_on(false);
      if (!opt.trace_out.empty() && !tracer.write(opt.trace_out)) {
        std::cerr << "bneckbench: cannot write " << opt.trace_out << "\n";
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bneckbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": " << json_string(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"build\": {\"compiler\": " << json_string(BNECKBENCH_COMPILER)
      << ", \"build_type\": " << json_string(BNECKBENCH_BUILD_TYPE)
      << ", \"lto\": " << json_string(BNECKBENCH_LTO) << "}"
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(outcome.failures[i]);
  }
  out << "], \"untraced\": " << json_pass(untraced);
  if (opt.trace) {
    out << ", \"traced\": " << json_pass(traced) << ", \"layers\": {";
    bool first = true;
    for (const auto& [name, v] : layers) {
      out << (first ? "" : ", ") << json_string(name) << ": " << v;
      first = false;
    }
    out << "}";
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return 0;
}
