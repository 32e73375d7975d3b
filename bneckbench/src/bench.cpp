#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <fstream>
#include <sstream>

namespace bneckbench {

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
  // mark of the process image before exec, i.e. of the launching script.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

void reset_peak_rss() {
  // Hand freed heap back first, or the new mark would start from memory
  // an earlier round freed but the allocator kept.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::int32_t Tracer::open(const char* name) {
  if (!on_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, wall_ns(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = wall_ns();
  stack_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.end != 0 && name == s.name) ns += s.end - s.start;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start
        << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace bneckbench
