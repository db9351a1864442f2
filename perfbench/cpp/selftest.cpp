// Self-test of the replay key builder: the cell-index keys computed from a
// live simulation's particles must give a counting-sort plan whose applied
// order is a permutation of [0, n) (cmdp::is_permutation_of_iota), sorted
// and stable, for planar/axisymmetric and double/fixed stores on one and
// several lanes.  Exit status 0 when every case passes.
#include <cstdio>
#include <string>
#include <vector>

#include "cmdp/sort.h"
#include "cmdp/thread_pool.h"
#include "core/simulation.h"
#include "replay.h"
#include "scenario/scenario.h"

namespace {

namespace cd = cmdsmc;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

template <class Real>
void replay_plan_case(const std::string& scenario, unsigned lanes) {
  cd::scenario::ScenarioSpec spec = cd::scenario::get_scenario(scenario);
  spec.config.particles_per_cell = 4.0;
  cd::cmdp::ThreadPool pool(lanes);
  cd::core::Simulation<Real> sim(spec.build_config(), &pool);
  sim.run(5);
  const cd::core::ParticleStore<Real>& p = sim.particles();
  const std::vector<std::uint32_t> keys =
      perfbench::replay_keys(p, sim.grid());
  const std::uint32_t bound = perfbench::replay_key_bound(sim.grid());
  const std::string tag =
      scenario + " lanes=" + std::to_string(lanes) +
      (sizeof(Real) == sizeof(double) ? " double" : " fixed");

  bool in_range = !keys.empty();
  std::size_t reservoir = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    in_range = in_range && keys[i] < bound;
    if (keys[i] == bound - 1) ++reservoir;
  }
  check(in_range, tag + ": keys inside [0, bound)");
  check(reservoir == sim.reservoir_count(),
        tag + ": reservoir band holds exactly the reservoir");

  const cd::cmdp::SortPlan plan =
      cd::cmdp::counting_sort_plan(pool, keys, bound);
  std::vector<std::uint32_t> order(keys.size(), 0);
  cd::cmdp::apply_sort_plan(pool, keys, plan,
                            [&](std::size_t src, std::size_t dst) {
                              order[dst] = static_cast<std::uint32_t>(src);
                            });
  check(cd::cmdp::is_permutation_of_iota(order),
        tag + ": applied plan is a permutation of iota");
  bool sorted_stable = true;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::uint32_t a = keys[order[i - 1]], b = keys[order[i]];
    sorted_stable =
        sorted_stable && (a < b || (a == b && order[i - 1] < order[i]));
  }
  check(sorted_stable, tag + ": applied plan is sorted and stable");

  // The timed replay moves records with ParticleStore::scatter_sorted; it
  // must land each record where the plan's order says.
  cd::core::ParticleStore<Real> moved = p, scratch;
  const cd::cmdp::SortPlan plan2 =
      cd::cmdp::counting_sort_plan(pool, keys, bound);
  moved.scatter_sorted(pool, keys, plan2, scratch);
  bool same = moved.size() == p.size();
  for (std::size_t i = 0; same && i < order.size(); ++i)
    same = moved.id[i] == p.id[order[i]] && moved.x[i] == p.x[order[i]];
  check(same, tag + ": scatter_sorted follows the applied order");
}

}  // namespace

int main() {
  for (const unsigned lanes : {1u, 4u}) {
    replay_plan_case<double>("wedge-mach4", lanes);
    replay_plan_case<double>("biconic_axi", lanes);
    replay_plan_case<cd::fixedpoint::Fixed32>("cylinder-mach10", lanes);
  }
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
