// The benchmark's three workloads, driven through the library's public API
// (scenario registry + core::Simulation for the two single-run tunnels,
// fleet::FleetScheduler + scenario::Runner for the sweep fleet).
//
//   wedge-tunnel  the paper's wind tunnel (wedge-mach4, 98x64, near
//                 continuum), transient + averaging on `lanes` lanes
//   axi-biconic   biconic_axi: axisymmetric z-r Mach 6 body on the axis,
//                 weighted split/merge, many geometry slow-path particles
//   fleet-sweep   closed-loop stream of small cylinder-mach10 jobs
//                 (twall x precision=double,fixed) with a fixed share of
//                 repeated requests the content-hash cache answers
//
// A run writes one JSON object of raw observations to `out`; run.py turns
// it into the metric line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;    // measured time budget of the run
  bool trace = false;    // per-layer (traced) run instead of end-to-end
  unsigned lanes = 0;    // affinity_cpus(), set by the driver
  std::string workdir;   // scratch directory inside the checkout
};

const std::vector<std::string>& workload_names();

// Runs one workload; throws on a setup error (unknown workload, I/O).
void run_workload(const RunOptions& opt, std::ostream& out);

}  // namespace perfbench
