#!/usr/bin/env python3
"""The cmdsmc repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
                             --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds the cmdsmc library from the
checkout's src/ together with the native driver (perfbench/CMakeLists.txt,
build tree under $CARGO_TARGET_DIR or .bench_build), runs one workload on
nproc lanes, checks its outputs, prints every metric with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json with no
observer attached.  --trace 1 is the separate traced run: the benchmark
attaches its own obs::StepObserver, times public cmdp/geom/physics calls
replayed on a snapshot of the workload's state at the end of the transient,
wraps the Runner's output sinks, and reports the per-layer metrics.  The
cmdp.* replay numbers sort plain cell-index keys, not the engine's
randomized keys: they are replay costs.

Definitions that differ by workload:
- A tunnel workload's unit of work is one full solve (transient + averaging
  of a fresh Simulation); solve_s is its median.  Its unit request is one
  step, so jobs_per_s is steps per second and job_s_* are step latencies.
- fleet-sweep's unit of work is one closed-loop schedule of requests from
  nproc clients; solve_s is its wall time from the first request to the
  aggregate, and usec_per_particle_step divides it by the fresh jobs'
  final flow census times their steps.  job_s_* run from request to record.
  Its setup_s is sweep expansion + FleetScheduler construction + the
  scenario build and initial fill of one job on one lane (a worker's set-up
  before its first step).
  Its step_ms_* time Simulation::step() of the sweep's repeated contents run
  again outside the scheduler in the fleet's shape: nproc threads, one lane
  each.  Those fresh runs are also the cache's check: every record answered
  for such a content must be bit-equal to its fresh run.

Workload choice: see each workload's "why" in BENCHMARK.json.  Which
end-to-end metric each per-layer metric should move, and where:

  core.{move,sort,collide,sample}_ms   usec_per_particle_step and step_ms_p50
                                       on wedge-tunnel (sort); solve_s on
                                       axi-biconic (sort, then move)
  core.*_imbalance                     solve_s on wedge-tunnel; none on
                                       fleet-sweep (1 lane)
  core.*_speedup                       usec_per_particle_step on wedge-tunnel
  core.{synthesized,reservoir_low_water,cloned,merged}
                                       step_ms_p99, solve_s on wedge-tunnel
                                       and axi-biconic (clone/merge only on
                                       axi-biconic)
  core.setup_ms                        setup_s on all three; jobs_per_s on
                                       fleet-sweep
  cmdp.{sort_plan,scatter,shard_plan}_ms, cmdp.shard_imbalance
                                       core.sort_ms, hence
                                       usec_per_particle_step on wedge-tunnel
  cmdp.{scatter_bytes,scatter_gbps,stream_gbps,scatter_bw_frac}
                                       whether a sort gain on wedge-tunnel is
                                       still possible or the scatter is at
                                       bandwidth
  geom.{fast_path_share,inside_ns,nearest_face_ns}
                                       core.move_ms, hence solve_s on
                                       axi-biconic and job_s_p50 on
                                       fleet-sweep; little on wedge-tunnel
  physics.{accept_ratio,collide_pair_ns}
                                       core.collide_ms, hence
                                       usec_per_particle_step on wedge-tunnel
  io.sink_ms                           job_s_p50, jobs_per_s on fleet-sweep
  fleet.{job_run_s,queue_wait_s,cache_hit_ratio,manifest_bytes}
                                       jobs_per_s, job_s_p90 on fleet-sweep
  obs.trace_overhead_pct               none; keeps the traced numbers honest

A layer a workload does not drive reports 0 (io.* and fleet.* on the
tunnels).  cmdp.stream_gbps gathers over at least 4x the last-level cache;
both sizes are printed in the provenance line.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Output tolerances, fixed from the paper before any run: the wedge's
# oblique shock at 45 degrees with a 3.7x density rise, widened by DSMC
# noise of one averaging window.
SHOCK_ANGLE_DEG, SHOCK_ANGLE_TOL = 45.0, 1.5
DENSITY_RATIO, DENSITY_RATIO_TOL = 3.7, 0.3

# axi-biconic's body, as the biconic_axi scenario defines it: cones of
# 25 and 10 degrees half-angle over axial lengths 20 and 15, a flat base,
# a diffuse wall at the freestream temperature, Mach 6 in a diatomic gas.
BICONIC_CONES = ((25.0, 20.0), (10.0, 15.0))  # (half-angle deg, length)
BICONIC_MACH, BICONIC_GAMMA, BICONIC_TWALL = 6.0, 1.4, 1.0


def biconic_cd_band():
    """Bounds on the biconic's Cd (frontal-area reference) from theory.

    Transitional-flow drag lies between the continuum and free-molecular
    limits.  Lower: modified-Newtonian pressure on the fore cone alone
    (Cp_max from the Rayleigh pitot relation), the aft cone unloaded and a
    vacuum base, no friction.  Upper: free-molecular drag of the whole body
    with full diffuse accommodation (Schaaf & Chambre flat-element
    coefficients at the freestream speed ratio).
    """
    g, m = BICONIC_GAMMA, BICONIC_MACH
    radii, r = [], 0.0
    for angle, length in BICONIC_CONES:
        r += length * math.tan(math.radians(angle))
        radii.append(r)
    share = [(radii[0] / r) ** 2, 1.0 - (radii[0] / r) ** 2]

    pitot = ((g + 1) ** 2 * m * m / (4 * g * m * m - 2 * (g - 1))) ** (
        g / (g - 1)) * (1 - g + 2 * g * m * m) / (g + 1)
    cp_max = 2.0 / (g * m * m) * (pitot - 1.0)
    fore = math.radians(BICONIC_CONES[0][0])
    lower = share[0] * cp_max * math.sin(fore) ** 2 - 2.0 / (g * m * m)

    s = m * math.sqrt(g / 2.0)  # speed ratio U / sqrt(2 R T)

    def coefficients(theta):  # (Cp, Ctau) of an element at incidence theta
        sn = s * math.sin(theta)
        e, f = math.exp(-sn * sn), 1.0 + math.erf(sn)
        cp = ((sn / math.sqrt(math.pi) * e + (0.5 + sn * sn) * f)
              + 0.5 * math.sqrt(BICONIC_TWALL)
              * (e + math.sqrt(math.pi) * sn * f)) / (s * s)
        ctau = math.cos(theta) / (s * math.sqrt(math.pi)) * (
            e + math.sqrt(math.pi) * sn * f)
        return cp, ctau

    upper = -coefficients(-math.pi / 2)[0]  # base, facing downstream
    for (angle, _), a in zip(BICONIC_CONES, share):
        cp, ctau = coefficients(math.radians(angle))
        upper += a * (cp + ctau / math.tan(math.radians(angle)))
    return lower, upper


BICONIC_CD_MIN, BICONIC_CD_MAX = biconic_cd_band()

DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures (once) and builds the native driver; returns its dir."""
    if not (ROOT / "src" / "core" / "simulation.h").is_file():
        raise SystemExit(f"perfbench: no cmdsmc sources under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(nproc())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return out


def run_driver(out, workload, seed, seconds, trace):
    work = out / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(out / "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: driver exited {proc.returncode}")
    raw = json.loads(proc.stdout)
    if raw["provenance"]["audit_compiled"]:
        raise SystemExit("perfbench: refusing to report from a CMDSMC_AUDIT "
                         "build")
    return raw


def judge(workload, raw):
    """(attempted, failed) of the run's output checks."""
    if workload == "fleet-sweep":
        # A run that compared no record with a fresh run counts one failure.
        c = raw["fleet_check"]
        unchecked = 1 if c["fresh_checked"] == 0 else 0
        return c["requests"], c["not_run_once"] + c["repeat_mismatch"] + \
            c["missing"] + c["fresh_mismatch"] + unchecked
    if workload == "wedge-tunnel":
        return stats.failure_share(
            o["shock_valid"]
            and abs(o["shock_angle_deg"] - SHOCK_ANGLE_DEG) <= SHOCK_ANGLE_TOL
            and abs(o["density_ratio"] - DENSITY_RATIO) <= DENSITY_RATIO_TOL
            for o in raw["outputs"])
    return stats.failure_share(
        o["cl"] == 0.0 and o["cd"] is not None
        and BICONIC_CD_MIN <= o["cd"] <= BICONIC_CD_MAX
        for o in raw["outputs"])


def end_to_end(raw):
    units = raw["units"]
    steps = [v for g in raw["step_groups"] for v in g]
    jobs = [v for g in raw["job_groups"] for v in g]
    return {
        "solve_s": stats.median([u["solve_s"] for u in units]),
        "usec_per_particle_step": stats.median(
            [1e6 * u["solve_s"] / u["census"] for u in units]),
        "step_ms_p50": 1e3 * stats.median(steps),
        "step_ms_p99": 1e3 * stats.grouped_percentile(raw["step_groups"],
                                                      0.99),
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "jobs_per_s": stats.median([u["jobs"] / u["solve_s"] for u in units]),
        "job_s_p50": stats.median(jobs),
        "job_s_p90": stats.grouped_percentile(raw["job_groups"], 0.90),
    }


def per_layer(raw, names):
    samples, values = raw["layer_samples"], raw["layer_values"]
    med = {k: stats.median(v) for k, v in samples.items()}
    derived = {
        "cmdp.scatter_bw_frac":
            lambda: med["cmdp.scatter_gbps"] / med["cmdp.stream_gbps"],
        "obs.trace_overhead_pct":
            lambda: 100.0 * (med["solve_s.traced"] / med["solve_s.untraced"]
                             - 1.0),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]()
        elif name in med:
            out[name] = med[name]
        elif name in values:
            out[name] = values[name]
        else:
            raise SystemExit(f"perfbench: driver reported no {name}")
    return out


def sample_counts(raw, trace):
    if trace:
        return {k: len(v) for k, v in raw["layer_samples"].items()}
    return {"solve_s": len(raw["units"]), "setup_s": len(raw["setup_s"]),
            "step_ms": sum(map(len, raw["step_groups"])),
            "job_s": sum(map(len, raw["job_groups"]))}


def self_test():
    out = build()
    proc = subprocess.run([str(out / "perfbench_selftest")])
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if proc.returncode == 0 and result.wasSuccessful() else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()

    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not seconds > 0:
        ap.error("--seconds must be > 0")

    out = build()
    raw = run_driver(out, args.workload, args.seed, seconds, args.trace)
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in metric_specs]
    values = per_layer(raw, names) if args.trace else end_to_end(raw)
    attempted, failed = judge(args.workload, raw)

    prov = dict(raw["provenance"])
    if "stream_ws_bytes" in raw:
        prov["stream_ws_bytes"] = raw["stream_ws_bytes"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("samples " + json.dumps(sample_counts(raw, args.trace),
                                  sort_keys=True))
    metrics = {}
    for m in metric_specs:
        v = float(values[m["name"]])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:28s} {v:16.6g} {m['unit']}")
    print(f"checks: {failed} failed of {attempted} attempted")
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": failed == 0 and attempted > 0 and finite,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
