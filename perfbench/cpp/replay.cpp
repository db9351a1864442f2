#include "replay.h"

#include <algorithm>
#include <cmath>

#include "cmdp/parallel.h"
#include "cmdp/shard.h"
#include "cmdp/sort.h"
#include "fixedpoint/fixed32.h"
#include "physics/collision.h"
#include "physics/numeric.h"
#include "rng/rng.h"

namespace perfbench {

namespace cd = cmdsmc;

namespace {

// Timed repetitions of every replayed call; run.py reports the median.
constexpr int kReps = 7;

// Keeps a replayed query's results observable so the calls are not elided.
volatile std::size_t g_sink = 0;

}  // namespace

std::uint32_t replay_key_bound(const cd::geom::Grid& g) {
  return static_cast<std::uint32_t>(g.ncells()) + 1u;
}

template <class Real>
std::vector<std::uint32_t> replay_keys(const cd::core::ParticleStore<Real>& p,
                                       const cd::geom::Grid& g) {
  using N = cd::physics::Num<Real>;
  const auto band = static_cast<std::uint32_t>(g.ncells());
  std::vector<std::uint32_t> keys(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.flags[i] & cd::core::ParticleStore<Real>::kReservoirFlag) {
      keys[i] = band;
      continue;
    }
    const int ix = static_cast<int>(std::floor(N::to_double(p.x[i])));
    const int iy = static_cast<int>(std::floor(N::to_double(p.y[i])));
    const int iz =
        p.has_z ? static_cast<int>(std::floor(N::to_double(p.z[i]))) : 0;
    keys[i] = g.index(ix, iy, iz);
  }
  return keys;
}

template <class Real>
double scatter_bytes(const cd::core::ParticleStore<Real>& p) {
  const double reals = 8.0 + (p.has_z ? 1.0 : 0.0) + (p.has_vib ? 2.0 : 0.0);
  const double record =
      reals * sizeof(Real) + (p.has_weight ? sizeof(double) : 0.0) +
      sizeof(cd::rng::PackedPerm) + sizeof(std::uint32_t) /* cell */ +
      sizeof(std::uint8_t) /* flags */ + sizeof(std::uint32_t) /* id */;
  return static_cast<double>(p.size()) *
         (2.0 * record + sizeof(std::uint32_t) /* key */);
}

template <class Real>
void replay_layers(cd::cmdp::ThreadPool& pool,
                   const cd::core::Simulation<Real>& sim,
                   const cd::core::ParticleStore<Real>& snap,
                   const std::vector<std::uint32_t>& counts, Layers& out) {
  using N = cd::physics::Num<Real>;
  const cd::geom::Grid& grid = sim.grid();
  const std::vector<std::uint32_t> keys = replay_keys(snap, grid);
  const std::uint32_t bound = replay_key_bound(grid);
  const double bytes = scatter_bytes(snap);
  out.set("cmdp.scatter_bytes", bytes);

  // --- cmdp: counting-sort plan + full-record scatter ---
  cd::core::ParticleStore<Real> work = snap;
  cd::core::ParticleStore<Real> scratch;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    const cd::cmdp::SortPlan plan =
        cd::cmdp::counting_sort_plan(pool, keys, bound);
    const auto t1 = Clock::now();
    work.scatter_sorted(pool, keys, plan, scratch);
    const auto t2 = Clock::now();
    out.add("cmdp.sort_plan_ms", 1e3 * seconds_between(t0, t1));
    out.add("cmdp.scatter_ms", 1e3 * seconds_between(t1, t2));
    out.add("cmdp.scatter_gbps", bytes / seconds_between(t1, t2) * 1e-9);
  }

  // --- cmdp: shard pricing over the engine's own per-cell counts ---
  const std::vector<double> cost(counts.begin(), counts.end());
  const unsigned nshards =
      pool.size() * static_cast<unsigned>(sim.config().shard_per_lane);
  double imbalance = 1.0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    const cd::cmdp::ShardPlan plan =
        cd::cmdp::build_shard_plan(cost, nshards, pool.size());
    out.add("cmdp.shard_plan_ms", 1e3 * seconds_between(t0, Clock::now()));
    imbalance = plan.imbalance;
  }
  out.set("cmdp.shard_imbalance", imbalance);

  // --- geom: interior fast path share and slow-path point queries ---
  const std::vector<std::uint8_t>& mask = sim.interior_mask();
  std::size_t flow = 0, interior = 0;
  std::vector<double> px, py;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (keys[i] >= mask.size()) continue;  // reservoir band
    ++flow;
    if (mask[keys[i]] != 0) {
      ++interior;
    } else {
      px.push_back(N::to_double(snap.x[i]));
      py.push_back(N::to_double(snap.y[i]));
    }
  }
  out.set("geom.fast_path_share",
          flow > 0 ? static_cast<double>(interior) / static_cast<double>(flow)
                   : 0.0);
  const cd::geom::Scene& scene = sim.scene();
  const cd::geom::Wedge* wedge = sim.wedge();
  const bool has_geometry = !scene.empty() || wedge != nullptr;
  if (!px.empty() && has_geometry) {
    const double calls = static_cast<double>(px.size());
    for (int r = 0; r < kReps; ++r) {
      std::size_t hits = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < px.size(); ++i)
        hits += !scene.empty() ? scene.inside(px[i], py[i])
                               : wedge->inside(px[i], py[i]);
      const auto t1 = Clock::now();
      for (std::size_t i = 0; i < px.size(); ++i)
        hits += !scene.empty() ? scene.nearest_face(px[i], py[i]).has_value()
                               : wedge->nearest_face(px[i], py[i]).has_value();
      const auto t2 = Clock::now();
      g_sink = g_sink + hits;
      out.add("geom.inside_ns", 1e9 * seconds_between(t0, t1) / calls);
      out.add("geom.nearest_face_ns", 1e9 * seconds_between(t1, t2) / calls);
    }
  } else {
    out.set("geom.inside_ns", 0.0);
    out.set("geom.nearest_face_ns", 0.0);
  }

  // --- physics: the collision kernel over adjacent record pairs ---
  std::vector<Real>* const comp[cd::physics::kDof] = {
      &work.ux, &work.uy, &work.uz, &work.r0, &work.r1};
  const std::size_t pairs = work.size() / 2;
  if (pairs > 0) {
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < pairs; ++k) {
        const std::size_t a = 2 * k, b = a + 1;
        cd::physics::Pair5<Real> p;
        for (int c = 0; c < cd::physics::kDof; ++c) {
          p.a[c] = (*comp[c])[a];
          p.b[c] = (*comp[c])[b];
        }
        cd::physics::collide_pair(p, work.perm[a],
                                  cd::rng::hash4(0x5eed, k, r, 0));
        for (int c = 0; c < cd::physics::kDof; ++c) {
          (*comp[c])[a] = p.a[c];
          (*comp[c])[b] = p.b[c];
        }
      }
      out.add("physics.collide_pair_ns",
              1e9 * seconds_between(t0, Clock::now()) /
                  static_cast<double>(pairs));
    }
  } else {
    out.set("physics.collide_pair_ns", 0.0);
  }
}

std::uint64_t stream_yardstick(cd::cmdp::ThreadPool& pool,
                               std::uint64_t llc_bytes, Layers& out) {
  // in (8 B) + order (4 B) + out (8 B) per element; at least 4x the LLC so
  // the yardstick measures memory, not cache.
  constexpr std::uint64_t kPerElement = 20;
  const std::uint64_t floor_bytes = std::uint64_t{256} << 20;
  const std::uint64_t ws = std::max(4 * llc_bytes, floor_bytes);
  const std::size_t n = static_cast<std::size_t>(ws / kPerElement) + 1;
  std::vector<double> in(n), dst(n);
  std::vector<std::uint32_t> order(n);
  cd::cmdp::parallel_for(pool, n, [&](std::size_t i) {
    in[i] = static_cast<double>(i);
    dst[i] = 0.0;
    order[i] = static_cast<std::uint32_t>(i);
  });
  const double bytes = static_cast<double>(n * kPerElement);
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    cd::cmdp::gather<double>(pool, in, order, dst);
    out.add("cmdp.stream_gbps", bytes / seconds_between(t0, Clock::now()) *
                                    1e-9);
  }
  g_sink = g_sink + static_cast<std::size_t>(dst[n - 1]);
  return n * kPerElement;
}

#define PERFBENCH_INSTANTIATE(Real)                                          \
  template std::vector<std::uint32_t> replay_keys<Real>(                     \
      const cd::core::ParticleStore<Real>&, const cd::geom::Grid&);          \
  template double scatter_bytes<Real>(const cd::core::ParticleStore<Real>&); \
  template void replay_layers<Real>(                                         \
      cd::cmdp::ThreadPool&, const cd::core::Simulation<Real>&,              \
      const cd::core::ParticleStore<Real>&,                                  \
      const std::vector<std::uint32_t>&, Layers&);
PERFBENCH_INSTANTIATE(double)
PERFBENCH_INSTANTIATE(cd::fixedpoint::Fixed32)
#undef PERFBENCH_INSTANTIATE

}  // namespace perfbench
