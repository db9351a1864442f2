// Layer replays: the cmdp, geom and physics public entry points re-run on a
// snapshot of a workload's own state (taken at the end of the transient),
// timed one call at a time from the benchmark's side of the API.
//
// The replay sort keys are plain cell indices computed from the particle
// positions, not the engine's randomized keys, so the cmdp numbers are
// replay costs of the same primitives on the same data volume, not the
// engine's own sort phase (core.sort_ms is that).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bench.h"
#include "cmdp/thread_pool.h"
#include "core/particles.h"
#include "core/simulation.h"
#include "geom/grid.h"

namespace perfbench {

// Cell index of every particle from its position (clamped into the grid);
// reservoir particles share the one band key past the real cells.
template <class Real>
std::vector<std::uint32_t> replay_keys(
    const cmdsmc::core::ParticleStore<Real>& p, const cmdsmc::geom::Grid& g);

// Exclusive upper bound of replay_keys over grid `g`.
std::uint32_t replay_key_bound(const cmdsmc::geom::Grid& g);

// Bytes one ParticleStore::scatter_sorted of `p` reads and writes: every
// active array read and written once per record, plus the key read.
template <class Real>
double scatter_bytes(const cmdsmc::core::ParticleStore<Real>& p);

// Replays sort plan, scatter, shard plan, geometry queries and the
// collision kernel on `snap` / `counts` (the state at the end of the
// transient) and records cmdp.*, geom.* and physics.collide_pair_ns.
// `sim` supplies only geometry (grid, scene, interior mask).
template <class Real>
void replay_layers(cmdsmc::cmdp::ThreadPool& pool,
                   const cmdsmc::core::Simulation<Real>& sim,
                   const cmdsmc::core::ParticleStore<Real>& snap,
                   const std::vector<std::uint32_t>& counts, Layers& out);

// Streaming bandwidth yardstick: cmdp::gather with an identity order over a
// working set of at least 4x the last-level cache.  Records
// cmdp.stream_gbps samples; returns the working-set size in bytes.
std::uint64_t stream_yardstick(cmdsmc::cmdp::ThreadPool& pool,
                               std::uint64_t llc_bytes, Layers& out);

}  // namespace perfbench
