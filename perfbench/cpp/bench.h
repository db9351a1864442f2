// Shared pieces of the perfbench driver: timing helpers, the raw-output JSON
// writer and the per-layer sample store the workloads fill.
//
// The driver binary measures and reports raw observations; every statistic
// (medians, tail percentiles, failure shares) and every output tolerance is
// applied by perfbench/run.py, so there is one implementation of each rule.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Per-layer observations of one traced run: `samples` are reported as their
// median by run.py, `values` verbatim.  Names are the BENCHMARK.json metric
// names; run.py refuses a run that leaves one of them out.
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  void set(const std::string& name, double v) { values[name] = v; }
};

// Minimal streaming JSON writer for the driver's raw output.  Numbers are
// written with 17 significant digits; non-finite numbers as null.
class JsonWriter {
 public:
  void begin_object(const char* key = nullptr);
  void end_object();
  void begin_array(const char* key = nullptr);
  void end_array();
  void number(const char* key, double v);
  void number(double v);
  void integer(const char* key, std::uint64_t v);
  void boolean(const char* key, bool v);
  void string(const char* key, const std::string& v);
  void numbers(const char* key, const std::vector<double>& v);
  const std::string& str() const { return out_; }

 private:
  void separate();
  void put_key(const char* key);
  void put_number(double v);

  std::string out_;
  std::vector<bool> first_;  // one entry per open container
};

// CPUs this process may run on (its affinity mask): the lane count of every
// pool and of the fleet, and the nproc stamped into the result.
unsigned affinity_cpus();

// Process facts stamped into every result.
struct Provenance {
  std::string cpu_model;
  std::uint64_t llc_bytes = 0;
  unsigned nproc = 0;  // affinity_cpus()
  std::string build_type;
  bool audit_compiled = false;
};
Provenance provenance();

// Peak resident set of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
