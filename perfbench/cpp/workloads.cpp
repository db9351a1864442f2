#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "cmdp/thread_pool.h"
#include "core/simulation.h"
#include "fixedpoint/fixed32.h"
#include "fleet/results.h"
#include "fleet/scheduler.h"
#include "fleet/sweep.h"
#include "io/shock_analysis.h"
#include "obs/step_stats.h"
#include "replay.h"
#include "rng/rng.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace perfbench {

namespace cd = cmdsmc;
namespace fs = std::filesystem;
using cd::obs::StepStats;

namespace {

// --- workload parameters ----------------------------------------------------

// Speedup legs: back-to-back pairs of single-lane and `lanes`-lane runs over
// the first kSpeedupWindow steps (a single lane's speed depends on which
// vCPU it lands on, so the pair is repeated and the median reported).
constexpr int kSpeedupWindow = 200;
constexpr int kSpeedupPairs = 3;
// Dedicated set-up repetitions per run; setup_s is their median.  The fleet
// interleaves kFleetSetupsPerSchedule of them after each schedule.
constexpr std::size_t kSetups = 31;
constexpr std::size_t kFleetSetupsPerSchedule = 3;
// fleet-sweep: twall points per schedule (crossed with double/fixed) and
// the repeat rule: one repeated request after every kFleetFreshPerRepeat
// fresh ones.
constexpr int kFleetTwallPoints = 24;
constexpr int kFleetFreshPerRepeat = 3;
// Least samples a run collects for its tail percentiles: steps for a p99
// and requests for a p90, each with ten samples beyond it.
constexpr std::size_t kMinSteps = 1000;
constexpr std::size_t kMinRequests = 100;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return cd::rng::hash4(seed, salt, 0, 0x70E7);
}

// --- step observer ----------------------------------------------------------

// The benchmark's StepObserver: keeps the per-step phase seconds, lane
// imbalance and census it needs, in memory, until the leg ends.
class StepTrace final : public cd::obs::StepObserver {
 public:
  struct Step {
    double move = 0, sort = 0, collide = 0, sample = 0;
    double imb_move = 0, imb_sort = 0, imb_collide = 0;
    std::uint64_t reservoir = 0;
  };
  void on_step(const StepStats& s) override {
    Step st;
    st.move = s.phase_seconds[StepStats::kMove];
    st.sort = s.phase_seconds[StepStats::kSort];
    st.collide = s.phase_seconds[StepStats::kSelect] +
                 s.phase_seconds[StepStats::kCollide];
    st.sample = s.phase_seconds[StepStats::kSample];
    st.imb_move = s.imbalance[StepStats::kMove];
    st.imb_sort = s.imbalance[StepStats::kSort];
    st.imb_collide = s.imbalance[StepStats::kCollide];
    st.reservoir = s.reservoir;
    steps.push_back(st);
  }
  std::vector<Step> steps;
};

// --- one simulation, timed around Simulation::step() ------------------------

struct Solve {
  double setup_s = 0;  // build_config + Simulation constructor (initial fill)
  double ctor_s = 0;   // Simulation constructor alone
  double solve_s = 0;  // the step schedule
  double census = 0;   // sum over steps of the flow census
  bool complete = false;  // ran the whole schedule (outputs are checkable)
  std::vector<double> step_s;
  cd::core::SimCounters counters;
  std::uint64_t flow = 0;  // flow census after the last step
  // Outputs the run.py checks judge.
  bool has_shock = false;
  cd::io::ShockFit shock;
  bool has_surface = false;
  double drag = 0, lift = 0, heat = 0;  // Cd, Cl, heat_total
};

// Traced-leg attachments: the observer, and (when `replay_into` is set) a
// snapshot at the end of the transient replayed after the solve.
struct Trace {
  StepTrace steps;
  Layers* replay_into = nullptr;
};

template <class Real>
Solve solve_as(const cd::scenario::ScenarioSpec& spec,
               cd::cmdp::ThreadPool& pool, Trace* trace, int step_limit) {
  Solve out;
  const auto t0 = Clock::now();
  const cd::core::SimConfig cfg = spec.build_config();
  const auto t1 = Clock::now();
  cd::core::Simulation<Real> sim(cfg, &pool);
  const auto t2 = Clock::now();
  out.setup_s = seconds_between(t0, t2);
  out.ctor_s = seconds_between(t1, t2);
  if (trace != nullptr) sim.set_step_observer(&trace->steps);

  const int transient = spec.schedule.steady_steps;
  const int schedule = transient + spec.schedule.avg_steps;
  const int total = step_limit > 0 ? std::min(step_limit, schedule) : schedule;
  const bool replay = trace != nullptr && trace->replay_into != nullptr;
  cd::core::ParticleStore<Real> snap;
  std::vector<std::uint32_t> snap_counts;
  double snapshot_s = 0;  // excluded from solve_s
  out.step_s.reserve(static_cast<std::size_t>(total));

  const auto s0 = Clock::now();
  for (int k = 0; k < total; ++k) {
    if (k == transient) {
      sim.set_sampling(true);
      if (cfg.has_body_scene()) sim.set_surface_sampling(true);
    }
    const auto a = Clock::now();
    sim.step();
    out.step_s.push_back(seconds_between(a, Clock::now()));
    out.census += static_cast<double>(sim.flow_count());
    if (replay && k + 1 == transient) {
      const auto c0 = Clock::now();
      snap = sim.particles();
      snap_counts = sim.sort_counts();
      snapshot_s += seconds_between(c0, Clock::now());
    }
  }
  out.solve_s = seconds_between(s0, Clock::now()) - snapshot_s;
  if (trace != nullptr) sim.set_step_observer(nullptr);

  out.counters = sim.counters();
  out.flow = sim.flow_count();
  out.complete = total == schedule;
  if (out.complete && sim.wedge() != nullptr) {
    out.has_shock = true;
    out.shock = cd::io::measure_oblique_shock(sim.field(), *sim.wedge());
  }
  if (out.complete && cfg.has_body_scene()) {
    const cd::core::SurfaceStats s = sim.surface();
    out.has_surface = true;
    out.drag = s.cd;
    out.lift = s.cl;
    out.heat = s.heat_total;
  }
  if (replay && snap.size() > 0)
    replay_layers(pool, sim, snap, snap_counts, *trace->replay_into);
  return out;
}

Solve solve(const cd::scenario::ScenarioSpec& spec, cd::cmdp::ThreadPool& pool,
            Trace* trace = nullptr, int step_limit = 0) {
  if (spec.schedule.precision == cd::scenario::Precision::kFixed)
    return solve_as<cd::fixedpoint::Fixed32>(spec, pool, trace, step_limit);
  return solve_as<double>(spec, pool, trace, step_limit);
}

// Folds one traced leg of the workload's own lane count into the core.* and
// physics.accept_ratio samples.
void absorb(const Trace& tr, const Solve& s, Layers& L) {
  std::uint64_t low_water = std::numeric_limits<std::uint64_t>::max();
  for (const StepTrace::Step& st : tr.steps.steps) {
    L.add("core.move_ms", 1e3 * st.move);
    L.add("core.sort_ms", 1e3 * st.sort);
    L.add("core.collide_ms", 1e3 * st.collide);
    L.add("core.sample_ms", 1e3 * st.sample);
    L.add("core.move_imbalance", st.imb_move);
    L.add("core.sort_imbalance", st.imb_sort);
    L.add("core.collide_imbalance", st.imb_collide);
    low_water = std::min(low_water, st.reservoir);
  }
  if (tr.steps.steps.empty()) low_water = 0;
  L.add("core.setup_ms", 1e3 * s.ctor_s);
  L.add("core.synthesized", static_cast<double>(s.counters.synthesized));
  L.add("core.reservoir_low_water", static_cast<double>(low_water));
  L.add("core.cloned", static_cast<double>(s.counters.cloned));
  L.add("core.merged", static_cast<double>(s.counters.merged));
  if (s.counters.candidates > 0)
    L.add("physics.accept_ratio",
          static_cast<double>(s.counters.collisions) /
              static_cast<double>(s.counters.candidates));
}

// core.*_speedup: single-lane phase seconds over `lanes`-lane phase seconds,
// summed over the first kSpeedupWindow steps of a fresh run on each pool.
void speedups(const cd::scenario::ScenarioSpec& spec,
              cd::cmdp::ThreadPool& many, Layers& L) {
  cd::cmdp::ThreadPool one(1);
  for (int r = 0; r < kSpeedupPairs; ++r) {
    Trace a, b;
    solve(spec, one, &a, kSpeedupWindow);
    solve(spec, many, &b, kSpeedupWindow);
    double t1[3] = {}, tn[3] = {};
    for (const StepTrace::Step& st : a.steps.steps)
      t1[0] += st.move, t1[1] += st.sort, t1[2] += st.collide;
    for (const StepTrace::Step& st : b.steps.steps)
      tn[0] += st.move, tn[1] += st.sort, tn[2] += st.collide;
    const char* names[3] = {"core.move_speedup", "core.sort_speedup",
                            "core.collide_speedup"};
    for (int p = 0; p < 3; ++p) L.add(names[p], tn[p] > 0 ? t1[p] / tn[p] : 0);
  }
}

// --- raw output -------------------------------------------------------------

struct Unit {  // one measured unit of work: a tunnel solve or a fleet schedule
  double solve_s = 0;
  double census = 0;
  double jobs = 0;  // steps (tunnels) or answered requests (fleet)
};

void write_units(JsonWriter& j, const std::vector<Unit>& units) {
  j.begin_array("units");
  for (const Unit& u : units) {
    j.begin_object();
    j.number("solve_s", u.solve_s);
    j.number("census", u.census);
    j.number("jobs", u.jobs);
    j.end_object();
  }
  j.end_array();
}

// Per-unit sample lists; run.py pools consecutive units up to the size a
// tail percentile needs and reports the median over the pools.
void write_groups(JsonWriter& j, const char* key,
                  const std::vector<std::vector<double>>& groups) {
  j.begin_array(key);
  for (const std::vector<double>& g : groups) j.numbers(nullptr, g);
  j.end_array();
}

void write_layers(JsonWriter& j, const Layers& L) {
  j.begin_object("layer_samples");
  for (const auto& [name, v] : L.samples) j.numbers(name.c_str(), v);
  j.end_object();
  j.begin_object("layer_values");
  for (const auto& [name, v] : L.values) j.number(name.c_str(), v);
  j.end_object();
}

void write_tunnel_output(JsonWriter& j, const Solve& s) {
  j.begin_object();
  if (s.has_shock) {
    j.boolean("shock_valid", s.shock.valid);
    j.number("shock_angle_deg", s.shock.angle_deg);
    j.number("density_ratio", s.shock.density_ratio);
  }
  if (s.has_surface) {
    j.number("cd", s.drag);
    j.number("cl", s.lift);
  }
  j.end_object();
}

// Layer metrics of modules a workload does not drive: the measured amount of
// work is zero.
void zero_layers(Layers& L, std::initializer_list<const char*> names) {
  for (const char* n : names) L.set(n, 0.0);
}

// --- wedge-tunnel / axi-biconic ---------------------------------------------

cd::scenario::ScenarioSpec tunnel_spec(const RunOptions& opt) {
  const bool wedge = opt.workload == "wedge-tunnel";
  cd::scenario::ScenarioSpec spec =
      cd::scenario::get_scenario(wedge ? "wedge-mach4" : "biconic_axi");
  spec.config.seed = derive_seed(opt.seed, wedge ? 1 : 2);
  spec.sinks.clear();
  return spec;
}

void run_tunnel(const RunOptions& opt, JsonWriter& j) {
  const cd::scenario::ScenarioSpec spec = tunnel_spec(opt);
  cd::cmdp::ThreadPool pool(opt.lanes);
  solve(spec, pool, nullptr, 20);  // warm the pool's workspace arenas

  std::vector<Solve> solves;
  Layers L;
  bool replayed = false;
  std::size_t stepped = 0;
  const auto t0 = Clock::now();
  while (stepped < kMinSteps ||
         seconds_between(t0, Clock::now()) < opt.seconds) {
    if (!opt.trace) {
      solves.push_back(solve(spec, pool));
      stepped += solves.back().step_s.size();
      continue;
    }
    // Traced and untraced legs alternate which runs first, so drift in
    // machine speed does not bias obs.trace_overhead_pct.
    const bool traced_first = solves.size() % 4 == 2;
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == traced_first) {
        Trace tr;
        if (!replayed) tr.replay_into = &L;
        replayed = true;
        solves.push_back(solve(spec, pool, &tr));
        L.add("solve_s.traced", solves.back().solve_s);
        absorb(tr, solves.back(), L);
      } else {
        solves.push_back(solve(spec, pool));
        L.add("solve_s.untraced", solves.back().solve_s);
      }
      stepped += solves.back().step_s.size();
    }
  }

  j.begin_array("outputs");
  for (const Solve& s : solves) write_tunnel_output(j, s);
  j.end_array();

  if (!opt.trace) {
    std::vector<double> setups;
    while (setups.size() < kSetups)
      setups.push_back(solve(spec, pool, nullptr, 1).setup_s);
    std::vector<Unit> units;
    std::vector<std::vector<double>> steps;
    for (const Solve& s : solves) {
      units.push_back(
          {s.solve_s, s.census, static_cast<double>(s.step_s.size())});
      steps.push_back(s.step_s);
    }
    j.numbers("setup_s", setups);
    write_units(j, units);
    write_groups(j, "step_groups", steps);
    write_groups(j, "job_groups", steps);  // a tunnel's unit request: a step
    j.number("peak_rss_mb", peak_rss_mb());
    return;
  }

  speedups(spec, pool, L);
  j.integer("stream_ws_bytes",
            stream_yardstick(pool, provenance().llc_bytes, L));
  zero_layers(L, {"io.sink_ms", "fleet.job_run_s", "fleet.queue_wait_s",
                  "fleet.cache_hit_ratio", "fleet.manifest_bytes"});
  write_layers(j, L);
}

// --- fleet-sweep ------------------------------------------------------------

// Receives the scheduler's streamed record lines (one JobRecord per line,
// written under the scheduler's lock) and wakes the client waiting on each.
class RecordBoard final : public std::streambuf {
 public:
  // The record of request `index`, or nullopt after `timeout_s`.
  std::optional<cd::fleet::JobRecord> wait(std::size_t index,
                                           double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ok = cv_.wait_for(
        lock, std::chrono::duration<double>(timeout_s),
        [&] { return records_.count(index) != 0; });
    if (!ok) return std::nullopt;
    return records_.at(index);
  }

  std::size_t malformed() {
    std::lock_guard<std::mutex> lock(mu_);
    return malformed_;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof()))
      return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    if (c == '\n') {
      publish();
    } else {
      line_.push_back(c);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i)
      overflow(traits_type::to_int_type(s[i]));
    return n;
  }

 private:
  void publish() {
    std::optional<cd::fleet::JobRecord> rec =
        cd::fleet::JobRecord::from_json_line(line_);
    line_.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (rec)
        records_[rec->index] = std::move(*rec);
      else
        ++malformed_;
    }
    cv_.notify_all();
  }

  // Touched only by the scheduler's record path, which writes under its lock.
  std::string line_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::size_t, cd::fleet::JobRecord> records_;
  std::size_t malformed_ = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Bit equality of everything a record reports about the physics.
bool same_metrics(const cd::fleet::JobRecord& a,
                  const cd::fleet::JobRecord& b) {
  return a.has_surface == b.has_surface && same_bits(a.cd, b.cd) &&
         same_bits(a.cl, b.cl) && same_bits(a.cp_max, b.cp_max) &&
         same_bits(a.heat_total, b.heat_total) &&
         a.collisions == b.collisions && a.candidates == b.candidates &&
         a.flow == b.flow && a.steps == b.steps &&
         same_bits(a.usec_per_particle_step, b.usec_per_particle_step);
}

// The request stream a seed generates: the twall x precision sweep in job
// order, with a repeat of an already-requested job after every
// kFleetFreshPerRepeat fresh requests.
struct FleetPlan {
  std::vector<cd::fleet::FleetJob> requests;
  std::vector<long> twin;  // index of the fresh original, -1 for fresh
};

cd::fleet::SweepRequest fleet_request(std::uint64_t seed) {
  cd::fleet::SweepRequest req;
  req.scenario = "cylinder-mach10";
  req.fixed = {{"nx", "64"},
               {"ny", "48"},
               {"ppc", "4"},
               {"steps", "40"},
               {"seed", std::to_string(derive_seed(seed, 3))}};
  cd::fleet::SweepAxis twall{"twall", {}};
  for (int i = 0; i < kFleetTwallPoints; ++i) {
    const double u = cd::rng::u64_to_unit_double(
        derive_seed(seed, 100 + static_cast<std::uint64_t>(i)));
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", 0.5 + u);
    twall.values.emplace_back(buf);
  }
  req.axes = {twall, {"precision", {"double", "fixed"}}};
  return req;
}

FleetPlan fleet_plan(const std::vector<cd::fleet::FleetJob>& jobs,
                     std::uint64_t seed) {
  FleetPlan plan;
  std::vector<std::size_t> fresh;  // request indices of fresh requests
  for (const cd::fleet::FleetJob& job : jobs) {
    cd::fleet::FleetJob r = job;
    r.index = plan.requests.size();
    fresh.push_back(r.index);
    plan.requests.push_back(std::move(r));
    plan.twin.push_back(-1);
    if (fresh.size() % kFleetFreshPerRepeat == 0) {
      const std::uint64_t pick =
          derive_seed(seed, 1000 + plan.requests.size()) % fresh.size();
      const std::size_t orig = fresh[pick];
      cd::fleet::FleetJob rep = plan.requests[orig];
      rep.index = plan.requests.size();
      rep.name += "_repeat";
      plan.requests.push_back(std::move(rep));
      plan.twin.push_back(static_cast<long>(orig));
    }
  }
  return plan;
}

cd::fleet::FleetOptions fleet_options(const RunOptions& opt,
                                      const std::string& dir,
                                      std::ostream* stream) {
  cd::fleet::FleetOptions o;
  o.fleet_threads = opt.lanes;
  o.job_threads = 1;
  o.dir = dir;
  o.cache = true;
  o.job_sinks = {"json", "surface_csv"};
  o.stream = stream;
  return o;
}

// Scenario spec of one fleet job, exactly as the scheduler builds it.
cd::scenario::ScenarioSpec job_spec(const cd::fleet::FleetJob& job) {
  cd::scenario::ScenarioSpec spec = cd::scenario::get_scenario(job.scenario);
  cd::scenario::apply_overrides(spec, job.overrides);
  spec.config.seed = job.seed;
  spec.sinks.clear();
  return spec;
}

struct Schedule {
  Unit unit;
  std::vector<double> latency;
  std::size_t requests = 0, cached = 0;
  std::size_t not_run_once = 0, repeat_mismatch = 0, missing = 0;
  std::vector<double> run_s, wait_s;
  double manifest_bytes = 0;
  // Every record the scheduler answered, by content hash: a content's run
  // and its cached replays.
  std::unordered_map<std::string, std::vector<cd::fleet::JobRecord>> records;
};

// One closed-loop schedule: `lanes` clients, each sending its next request
// only after the record of its previous one was written.
Schedule run_schedule(const RunOptions& opt, const std::string& dir) {
  Schedule sch;
  fs::remove_all(dir);
  RecordBoard board;
  std::ostream stream(&board);

  const FleetPlan plan =
      fleet_plan(cd::fleet::expand_sweep(fleet_request(opt.seed)), opt.seed);
  cd::fleet::FleetScheduler scheduler(fleet_options(opt, dir, &stream));
  const auto t0 = Clock::now();  // solve_s excludes the set-up above

  const std::size_t n = plan.requests.size();
  sch.requests = n;
  sch.latency.assign(n, 0.0);
  std::vector<std::optional<cd::fleet::JobRecord>> got(n);
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  auto client = [&] {
    try {
      for (;;) {
        const std::size_t r = next.fetch_add(1);
        if (r >= n) return;
        const auto a = Clock::now();
        scheduler.submit({plan.requests[r]});
        got[r] = board.wait(r, 120.0);
        sch.latency[r] = seconds_between(a, Clock::now());
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!err) err = std::current_exception();
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < opt.lanes; ++c) clients.emplace_back(client);
  for (std::thread& c : clients) c.join();
  if (err) std::rethrow_exception(err);
  scheduler.finish();
  sch.unit.solve_s = seconds_between(t0, Clock::now());
  sch.unit.jobs = static_cast<double>(n);

  // Two clients can race a repeat's submit ahead of its original's, so the
  // check is per content group (an original and its repeats): exactly one
  // request ran to done, every other one was answered by the cache with
  // metrics bit-equal to that run.
  std::vector<std::vector<std::size_t>> groups(n);
  for (std::size_t r = 0; r < n; ++r)
    groups[plan.twin[r] < 0 ? r : static_cast<std::size_t>(plan.twin[r])]
        .push_back(r);
  for (const std::vector<std::size_t>& group : groups) {
    const cd::fleet::JobRecord* ran = nullptr;
    std::size_t runs = 0;
    for (const std::size_t r : group) {
      if (!got[r]) {
        ++sch.missing;
        continue;
      }
      const cd::fleet::JobRecord& rec = *got[r];
      if (rec.status == cd::fleet::JobStatus::kCached) ++sch.cached;
      if (rec.status != cd::fleet::JobStatus::kDone) continue;
      ++runs;
      ran = &rec;
      sch.unit.census +=
          static_cast<double>(rec.flow) * static_cast<double>(rec.steps);
      sch.run_s.push_back(rec.seconds);
      sch.wait_s.push_back(std::max(0.0, sch.latency[r] - rec.seconds));
    }
    if (group.empty()) continue;
    if (runs != 1) {
      ++sch.not_run_once;
      continue;
    }
    for (const std::size_t r : group) {
      if (!got[r] || &*got[r] == ran) continue;
      if (got[r]->status != cd::fleet::JobStatus::kCached ||
          !same_metrics(*got[r], *ran))
        ++sch.repeat_mismatch;
    }
    for (const std::size_t r : group)
      if (got[r]) sch.records[plan.requests[r].hash].push_back(*got[r]);
  }
  sch.missing += board.malformed();
  sch.manifest_bytes =
      static_cast<double>(fs::file_size(fs::path(dir) / "manifest.jsonl"));
  fs::remove_all(dir);
  return sch;
}

// Set-up only: sweep expansion, scheduler construction, and the scenario
// build and initial fill of the sweep's first job on a single-lane pool,
// as a fleet worker does before its first step; then teardown.  The job's
// share keeps setup_s from being all directory creation and thread start,
// whose cost swings tenfold between runs on a shared disk.  Repetitions run
// between schedules.
double fleet_setup(const RunOptions& opt, const std::string& dir,
                   cd::cmdp::ThreadPool& one) {
  fs::remove_all(dir);
  double s = 0;
  {
    const auto t0 = Clock::now();
    const FleetPlan plan =
        fleet_plan(cd::fleet::expand_sweep(fleet_request(opt.seed)), opt.seed);
    cd::fleet::FleetScheduler scheduler(fleet_options(opt, dir, nullptr));
    const cd::scenario::ScenarioSpec spec = job_spec(plan.requests[0]);
    s = seconds_between(t0, Clock::now());
    s += solve(spec, one, nullptr, 1).setup_s;
    scheduler.finish();
  }
  fs::remove_all(dir);
  return s;
}

// Times each of the Runner's output sinks through a wrapper.
class TimedSink final : public cd::scenario::OutputSink {
 public:
  TimedSink(std::unique_ptr<cd::scenario::OutputSink> inner, double* seconds)
      : inner_(std::move(inner)), seconds_(seconds) {}
  void write(const cd::scenario::RunResult& r) override {
    const auto t0 = Clock::now();
    inner_->write(r);
    *seconds_ += seconds_between(t0, Clock::now());
  }

 private:
  std::unique_ptr<cd::scenario::OutputSink> inner_;
  double* seconds_;
};

// Bit equality of a record's physics with a fresh run of its content.
bool same_as_fresh(const cd::fleet::JobRecord& rec, const Solve& s) {
  return rec.has_surface == s.has_surface && same_bits(rec.cd, s.drag) &&
         same_bits(rec.cl, s.lift) && same_bits(rec.heat_total, s.heat) &&
         rec.collisions == s.counters.collisions &&
         rec.candidates == s.counters.candidates && rec.flow == s.flow &&
         rec.steps == static_cast<std::int64_t>(s.step_s.size());
}

// Records compared with a fresh run outside the scheduler, and those that
// differed from it.
struct FreshCheck {
  std::size_t checked = 0, mismatch = 0;
};

// One round of the step probe, which is also the cache's fresh-twin check:
// the sweep's own jobs run again outside the scheduler in the fleet's shape
// (`lanes` threads, one single-lane pool each), timed around
// Simulation::step().  Every record schedule `sch` answered for a probed
// content (its run and its cached replays) must be bit-equal to this fresh
// run.  Rounds run between schedules so the probe samples the same stretch
// of time.  Appends one step-time group per job; returns the steps appended.
std::size_t probe_round(const RunOptions& opt,
                        const std::vector<cd::fleet::FleetJob>& jobs,
                        std::size_t round, const Schedule& sch,
                        std::vector<std::vector<double>>& groups,
                        FreshCheck& check) {
  std::vector<const cd::fleet::FleetJob*> pick(opt.lanes);
  for (unsigned t = 0; t < opt.lanes; ++t)
    pick[t] = &jobs[(round * opt.lanes + t) % jobs.size()];
  std::vector<Solve> got(opt.lanes);
  std::mutex err_mu;
  std::exception_ptr err;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < opt.lanes; ++t) {
    threads.emplace_back([&, t] {
      try {
        cd::cmdp::ThreadPool one(1);
        got[t] = solve(job_spec(*pick[t]), one);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (err) std::rethrow_exception(err);
  std::size_t steps = 0;
  for (unsigned t = 0; t < opt.lanes; ++t) {
    const auto answered = sch.records.find(pick[t]->hash);
    if (answered == sch.records.end()) continue;
    for (const cd::fleet::JobRecord& rec : answered->second) {
      ++check.checked;
      if (!same_as_fresh(rec, got[t])) ++check.mismatch;
    }
    steps += got[t].step_s.size();
    groups.push_back(std::move(got[t].step_s));
  }
  return steps;
}

void run_fleet(const RunOptions& opt, JsonWriter& j) {
  const std::string dir = (fs::path(opt.workdir) / "fleet").string();
  const std::vector<cd::fleet::FleetJob> jobs =
      cd::fleet::expand_sweep(fleet_request(opt.seed));
  std::vector<Schedule> schedules;
  std::vector<std::vector<double>> steps;  // probe rounds
  std::size_t probed = 0;
  FreshCheck fresh;
  std::vector<double> setups;  // untraced runs
  cd::cmdp::ThreadPool pool(opt.lanes), one(1);
  const auto t0 = Clock::now();
  std::size_t requests = 0;
  while (requests < kMinRequests ||
         seconds_between(t0, Clock::now()) < opt.seconds) {
    schedules.push_back(run_schedule(opt, dir));
    requests += schedules.back().requests;
    probed += probe_round(opt, jobs, schedules.size() - 1, schedules.back(),
                          steps, fresh);
    if (opt.trace) continue;
    for (std::size_t k = 0;
         k < kFleetSetupsPerSchedule && setups.size() < kSetups; ++k)
      setups.push_back(fleet_setup(opt, dir, one));
  }

  std::size_t not_run_once = 0, mismatch = 0, missing = 0;
  for (const Schedule& s : schedules) {
    not_run_once += s.not_run_once;
    mismatch += s.repeat_mismatch;
    missing += s.missing;
  }
  j.begin_object("fleet_check");
  j.integer("requests", requests);
  j.integer("not_run_once", not_run_once);
  j.integer("repeat_mismatch", mismatch);
  j.integer("missing", missing);
  j.integer("fresh_checked", fresh.checked);
  j.integer("fresh_mismatch", fresh.mismatch);
  j.end_object();

  if (!opt.trace) {
    std::vector<Unit> units;
    std::vector<std::vector<double>> latency;
    for (const Schedule& s : schedules) {
      units.push_back(s.unit);
      latency.push_back(s.latency);
    }
    while (setups.size() < kSetups)
      setups.push_back(fleet_setup(opt, dir, one));
    for (std::size_t round = schedules.size(); probed < kMinSteps; ++round)
      probed +=
          probe_round(opt, jobs, round, schedules.back(), steps, fresh);
    j.numbers("setup_s", setups);
    write_units(j, units);
    write_groups(j, "step_groups", steps);
    write_groups(j, "job_groups", latency);
    j.number("peak_rss_mb", peak_rss_mb());
    return;
  }

  Layers L;
  std::size_t cached = 0;
  for (const Schedule& s : schedules) {
    for (double v : s.run_s) L.add("fleet.job_run_s", v);
    for (double v : s.wait_s) L.add("fleet.queue_wait_s", v);
    L.add("fleet.manifest_bytes", s.manifest_bytes);
    cached += s.cached;
  }
  L.set("fleet.cache_hit_ratio", requests > 0 ? static_cast<double>(cached) /
                                                   static_cast<double>(requests)
                                              : 0.0);

  // Core/cmdp/geom/physics layers of the fleet's jobs: untraced and traced
  // probe legs alternate on one lane; the first traced leg is replayed.
  constexpr std::size_t kProbeJobs = 16;
  for (std::size_t k = 0; k < kProbeJobs; ++k) {
    const cd::scenario::ScenarioSpec spec = job_spec(jobs[k % jobs.size()]);
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == (k % 2 == 1)) {
        Trace tr;
        if (k == 0) tr.replay_into = &L;
        const Solve t = solve(spec, one, &tr);
        L.add("solve_s.traced", t.solve_s);
        absorb(tr, t, L);
      } else {
        L.add("solve_s.untraced", solve(spec, one).solve_s);
      }
    }
  }
  speedups(job_spec(jobs[0]), pool, L);

  // io: the fleet jobs' sinks, timed around each write through the Runner.
  for (std::size_t k = 0; k < 5; ++k) {
    cd::scenario::ScenarioSpec spec = job_spec(jobs[k % jobs.size()]);
    spec.output_prefix = (fs::path(opt.workdir) / jobs[k].name).string();
    double sink_s = 0;
    cd::scenario::Runner runner(std::move(spec));
    for (const char* name : {"json", "surface_csv"})
      runner.add_sink(std::make_unique<TimedSink>(
          cd::scenario::make_sink(name, runner.spec().output_prefix),
          &sink_s));
    runner.run(&one);
    L.add("io.sink_ms", 1e3 * sink_s);
  }
  j.integer("stream_ws_bytes",
            stream_yardstick(pool, provenance().llc_bytes, L));
  write_layers(j, L);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"wedge-tunnel", "axi-biconic",
                                                 "fleet-sweep"};
  return names;
}

void run_workload(const RunOptions& opt, std::ostream& out) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end())
    throw std::invalid_argument("unknown workload: " + opt.workload);
  const Provenance p = provenance();
  if (p.audit_compiled)
    throw std::runtime_error(
        "refusing to report from a CMDSMC_AUDIT build: audit hooks are "
        "compiled into the step loop");

  JsonWriter j;
  j.begin_object();
  j.begin_object("provenance");
  j.string("workload", opt.workload);
  j.integer("seed", opt.seed);
  j.integer("nproc", p.nproc);
  j.string("cpu_model", p.cpu_model);
  j.integer("llc_bytes", p.llc_bytes);
  j.string("build_type", p.build_type);
  j.boolean("audit_compiled", p.audit_compiled);
  j.boolean("trace", opt.trace);
  j.end_object();
  fs::create_directories(opt.workdir);
  if (opt.workload == "fleet-sweep")
    run_fleet(opt, j);
  else
    run_tunnel(opt, j);
  j.end_object();
  out << j.str() << '\n';
}

}  // namespace perfbench
