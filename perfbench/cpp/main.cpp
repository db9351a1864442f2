// perfbench_driver: runs one benchmark workload and prints its raw
// observations as one JSON object on stdout.  perfbench/run.py builds this
// binary, calls it, and turns the observations into the metric line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
//
// Every pool and the fleet run on as many lanes as the process has CPUs in
// its affinity mask.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) usage("missing value for " + key);
      const std::string value = argv[++i];
      if (key == "--workload")
        opt.workload = value;
      else if (key == "--seed")
        opt.seed = std::stoull(value);
      else if (key == "--seconds")
        opt.seconds = std::stod(value);
      else if (key == "--trace")
        opt.trace = std::stoi(value) != 0;
      else if (key == "--workdir")
        opt.workdir = value;
      else
        usage("unknown option " + key);
    }
  } catch (const std::exception& e) {
    usage(std::string("bad option value: ") + e.what());
  }
  if (opt.workload.empty() || opt.workdir.empty() || !(opt.seconds > 0))
    usage("--workload, --workdir and --seconds > 0 are required");
  opt.lanes = perfbench::affinity_cpus();
  try {
    perfbench::run_workload(opt, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 3;
  }
  return 0;
}
