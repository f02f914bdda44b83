// citybench — the repeatable city benchmark of df3sim.
//
//   citybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--digest-ref <file>] [--spans <file>]
//             [--break digest|conservation]
//
// One process runs one workload (README.md beside this file says why each
// exists). A run builds the city through the public Df3Platform API, warms
// it up, times a window of fixed simulated work one run(tick_s) step at a
// time, stops the sources, drains to quiescence and checks the outputs. The
// last stdout line is one JSON object {correct, attempted, failed, metrics}:
// with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
//
// Everything simulated is a pure function of --seed (and of --seconds, which
// sizes the window): it seeds PlatformConfig::seed and the benchmark's own
// arrival generators, and no other randomness exists. The benchmark sets
// model inputs only; every speed knob (physics_threads, control_threads,
// shard_rooms, activity_gating) keeps its default and the DF3_* environment
// overrides are cleared, so the library's own defaults are what is timed.
//
// --trace 1 runs the same workload several times in one process: an
// untraced pass, a traced pass that records spans around every call the
// benchmark makes into the library (kept in memory, written to --spans at
// exit), and a pass at the other observability level. All passes must
// produce the same output digest.
//
// --tiny shrinks every city and window (self-test). --break plants a fault
// the checks must catch: a wrong digest, or a request submitted to the
// auditor that never reaches a terminal.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "df3/core/platform.hpp"
#include "df3/policy/registry.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/thermal/weather.hpp"
#include "df3/util/rng.hpp"
#include "df3/workload/arrivals.hpp"
#include "df3/workload/generators.hpp"

#ifndef CITYBENCH_BUILD_TYPE
#define CITYBENCH_BUILD_TYPE ""
#endif
#ifndef CITYBENCH_CXX_FLAGS
#define CITYBENCH_CXX_FLAGS ""
#endif
#ifndef CITYBENCH_SANITIZE
#define CITYBENCH_SANITIZE ""
#endif

namespace {

using namespace df3;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in ns.
std::int64_t cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t proc_status_kb(const char* key);

// ---------------------------------------------------------------------------
// Host speed probe
// ---------------------------------------------------------------------------

/// A fixed kernel that shares no code with df3sim, timed between steps and
/// after every set-up to track how fast the host is running right now.
/// A shared host's speed drifts by a third or more over minutes as
/// neighbours load its caches and memory. The probe drifts with it, though
/// less than df3sim does, so a timing divided by the probe time taken
/// beside it (and multiplied by kNominalNs) drifts less. The kernel mixes
/// what df3sim spends its time on: an integer chain (0.3 ms on the
/// reference host), a pointer chase within L2 (256 KiB, 0.9 ms), one over
/// 8 MiB (3 ms) and one over 32 MiB (0.9 ms), each chase a single random
/// cycle; ~5 ms in all.
class HostProbe {
 public:
  /// Probe time on the reference host: a 4-vCPU x86 VM, gcc 12 -O3, at a
  /// quiet time (4.9 ms measured).
  static constexpr double kNominalNs = 5.0e6;

  HostProbe() {
    const std::size_t before = proc_status_kb("VmRSS:");
    l2_ = cycle(std::size_t{1} << 16);
    llc_ = cycle(std::size_t{1} << 21);
    dram_ = cycle(std::size_t{1} << 23);
    const std::size_t after = proc_status_kb("VmRSS:");
    resident_kb_ = after - std::min(before, after);
  }

  /// Run the kernel once; its host ns.
  double run() const {
    const auto a = now_ns();
    std::uint64_t x = 1;
    for (int i = 0; i < 200'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x += chase(l2_, 100'000) + chase(llc_, 20'000) + chase(dram_, 3'000);
    sink_ = x;
    return static_cast<double>(now_ns() - a);
  }

  /// Resident memory the probe's buffers added (KiB), taken off peak RSS.
  [[nodiscard]] std::size_t resident_kb() const { return resident_kb_; }

 private:
  /// next[] forming one random cycle over n slots (Sattolo's shuffle with a
  /// fixed seed), built in place so the probe never holds more than it keeps.
  static std::vector<std::uint32_t> cycle(std::size_t n) {
    std::vector<std::uint32_t> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = n - 1; i > 0; --i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(next[i], next[(x >> 33) % i]);
    }
    return next;
  }
  static std::uint32_t chase(const std::vector<std::uint32_t>& next, int steps) {
    std::uint32_t p = 0;
    for (int i = 0; i < steps; ++i) p = next[p];
    return p;
  }

  std::vector<std::uint32_t> l2_, llc_, dram_;
  std::size_t resident_kb_ = 0;
  mutable volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Shape {
  kCity,      ///< one city: warm-up, timed window of steps, drain
  kScenario,  ///< back-to-back repetitions of a df3run scenario, each drained
};

struct Workload {
  const char* name;
  Shape shape = Shape::kCity;
  int month = 0;  ///< start month (0 = January)
  std::size_t buildings = 0;
  int rooms = 0;
  bool mixed_fidelity = false;  ///< every third building 2R2C, as in bench_city_scale
  std::size_t federation_degree = 2;
  obs::TraceLevel obs = obs::TraceLevel::kOff;
  bool keep_warm = false;  ///< GatingPolicy::kKeepWarm instead of the library default
  /// Paris normals without the AR(1) weather noise. The noise has a ~33 h
  /// correlation time and a 2.2 K spread, so a window of a few simulated
  /// hours would judge comfort on one random weather spell per seed (July
  /// comfort deviation ranged 1.4-3.9 K over ten seeds with it on).
  bool calm_weather = true;
  const char* routing = "df-first";
  const char* ladder = "preempt,delay";  ///< comma-separated peak-ladder rungs
  // Traffic. kCity: the benchmark injects edge arrivals through inject_edge
  // and replays Wi-Fi and cloud arrival instants into sources. kScenario:
  // building-0 sources exactly as df3run attaches them.
  double telemetry_period_s = 0.0;  ///< building-0 telemetry (0 = none)
  double b0_alarm_rate = 0.0;       ///< building-0 alarms (1/s)
  /// Poisson edge arrivals at the busiest building (1/s). Building i gets
  /// edge_rate_top / (i + 1): a Zipf (s = 1) popularity over the city, so a
  /// few buildings are as busy as a scenario's single building and the long
  /// tail sees a request now and then.
  double edge_rate_top = 0.0;
  double direct_share = 0.0;  ///< of those, direct fall-detection requests
  double wifi_share = 0.0;    ///< Wi-Fi map requests per building, as a share of its edge rate
  double cloud_rate = 0.0;    ///< city-wide cloud risk batches (1/s)
  // Window sizing: the window is `seconds * units_per_second` steps (kCity)
  // or scenario repetitions (kScenario), calibrated so it lasts about
  // --seconds on a 4-core x86 host. It is fixed simulated work for a given
  // --seconds, so every sim_* output is a function of the seed and --seconds.
  std::size_t warmup_steps = 0;
  double units_per_second = 1.0;
  double scenario_days = 0.0;
};

// Every workload carries some request traffic so that every end-to-end
// metric is defined on every workload. On the winter and summer cities it
// is a building-0 telemetry feed, one tiny request per tick, which costs 2-4%
// of the window's host time at 1e5 rooms; the tick is the rest. They get the datacenter and
// a vertical rung so the feed is served while summer servers are gated off.
const Workload kWorkloads[] = {
    // winter_1e5 at a tenth of the fleet (~22 MB, cache-sized): the same
    // per-room tick, with a timing that follows the host's phase about half
    // as much as the 1e5 fleet's (README.md, "Why the 1e5 fleets are not
    // declared").
    {.name = "winter_1e4", .month = 0, .buildings = 1'000, .rooms = 10, .mixed_fidelity = true,
     .ladder = "preempt,vertical,delay", .telemetry_period_s = 60.0, .warmup_steps = 30,
     .units_per_second = 900.0},
    {.name = "winter_1e5", .month = 0, .buildings = 10'000, .rooms = 10, .mixed_fidelity = true,
     .ladder = "preempt,vertical,delay", .telemetry_period_s = 60.0, .warmup_steps = 30,
     .units_per_second = 45.0},
    {.name = "summer_1e5", .month = 6, .buildings = 10'000, .rooms = 10, .mixed_fidelity = true,
     .ladder = "preempt,vertical,delay", .telemetry_period_s = 60.0, .warmup_steps = 30,
     .units_per_second = 80.0},
    // The busiest building and the cloud source run at
    // scenarios/federated_city.cfg's rates (0.05 alarms/s, a risk batch per
    // 600 s); the whole city sends 0.05 * H(2000) = 0.41 edge requests/s.
    {.name = "requests_2k", .month = 0, .buildings = 2'000, .rooms = 2, .keep_warm = true,
     .routing = "heat-aware", .ladder = "preempt,horizontal,delay", .edge_rate_top = 0.05,
     .direct_share = 0.1, .wifi_share = 0.1, .cloud_rate = 1.0 / 600.0, .warmup_steps = 60,
     .units_per_second = 20.0},
    // scenarios/winter_city.cfg (seed aside) as `df3run --metrics` runs it.
    {.name = "scenario_winter", .shape = Shape::kScenario, .month = 0, .buildings = 4, .rooms = 4,
     .federation_degree = 0, .obs = obs::TraceLevel::kCounters, .keep_warm = true,
     .calm_weather = false, .telemetry_period_s = 30.0, .b0_alarm_rate = 0.02, .cloud_rate = 1.0 / 900.0,
     .units_per_second = 8.0, .scenario_days = 7.0},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Shrink a workload for the self-test: a handful of buildings, a few
/// steps, one simulated day per scenario repetition.
Workload shrink(Workload w) {
  w.buildings = std::min<std::size_t>(w.buildings, 12);
  w.warmup_steps = std::min<std::size_t>(w.warmup_steps, 5);
  if (w.scenario_days > 0.0) w.scenario_days = 1.0;
  return w;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span recorder for the traced pass: name, start, end and the
/// enclosing span. Spans are only recorded from this file, around calls
/// into the library; a null Tracer* records nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };

  std::int32_t open(const char* name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Durations (ns) of every span with this name.
  [[nodiscard]] std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) out.push_back(static_cast<double>(s.end_ns - s.begin_ns));
    }
    return out;
  }

  /// Self time (ns) of every span with this name: its duration minus the
  /// time its direct children cover (children nest and never overlap).
  [[nodiscard]] std::vector<double> self_times(const char* name) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].begin_ns - child[i]));
      }
    }
    return out;
  }

  /// CSV: id,parent,name,begin_ns,end_ns (times relative to the first span).
  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
    out << "id,parent,name,begin_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.parent << ',' << s.name << ',' << (s.begin_ns - t0) << ','
          << (s.end_ns - t0) << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t != nullptr ? t->open(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

/// Arrival instants drawn from the benchmark's own stream (not the source's
/// RNG), so the instants depend on --seed and the benchmark alone.
class ReplayedPoisson final : public workload::ArrivalProcess {
 public:
  ReplayedPoisson(double rate, std::uint64_t seed, const std::string& name)
      : rate_(rate), rng_(seed, name) {}
  sim::Time next_after(sim::Time t, util::RngStream&) override {
    return t + rng_.exponential(rate_);
  }
  [[nodiscard]] double mean_rate() const override { return rate_; }

 private:
  double rate_;
  util::RngStream rng_;
};

/// Per-building edge rates: building i sends edge_rate_top / (i + 1).
class Popularity {
 public:
  explicit Popularity(const Workload& w) : cdf_(w.edge_rate_top > 0.0 ? w.buildings : 0) {
    double sum = 0.0;
    for (std::size_t b = 0; b < cdf_.size(); ++b) {
      sum += rate(w, b);
      cdf_[b] = sum;
    }
  }
  static double rate(const Workload& w, std::size_t b) {
    return w.edge_rate_top / static_cast<double>(b + 1);
  }
  [[nodiscard]] double city_rate() const { return cdf_.empty() ? 0.0 : cdf_.back(); }
  /// A building drawn in proportion to its rate.
  std::size_t pick(util::RngStream& rng) const {
    const double u = rng.uniform01() * city_rate();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Request id namespace of benchmark injections; sources tag ids with the
/// FNV hash of their name in the high 32 bits, so these never collide.
constexpr std::uint64_t kInjectTag = 0xC17BE4C0ULL << 32;

/// Open-loop edge arrivals the benchmark injects through inject_edge: a
/// city-wide Poisson stream (building by popularity, alarm through the
/// gateway or direct fall detection) merged with building-0 fixed-period
/// telemetry. It counts the arrivals whose building and entry (gateway or
/// direct) already had one earlier in the run: those repeat the endpoint
/// pairs of an earlier request, which is what a route cache can reuse.
class EdgeTraffic {
 public:
  struct Arrival {
    double t;
    std::size_t building;
    bool direct;
    workload::Request request;
  };

  EdgeTraffic(const Workload& w, std::uint64_t seed, double t0)
      : w_(w),
        arrival_rng_(seed, "citybench/edge-arrivals"),
        request_rng_(seed, "citybench/edge-requests"),
        popularity_(w),
        city_rate_(popularity_.city_rate()),
        next_poisson_(city_rate_ > 0.0 ? t0 + arrival_rng_.exponential(city_rate_) : kNever),
        next_telemetry_(w.telemetry_period_s > 0.0 ? t0 + w.telemetry_period_s : kNever) {}

  [[nodiscard]] double next_time() const { return std::min(next_poisson_, next_telemetry_); }

  /// Pop the next arrival (call only when next_time() is finite).
  Arrival pop() {
    Arrival a{};
    if (next_telemetry_ <= next_poisson_) {
      a.t = next_telemetry_;
      a.building = 0;
      a.direct = false;
      a.request = telemetry_(request_rng_);
      next_telemetry_ += w_.telemetry_period_s;
    } else {
      a.t = next_poisson_;
      a.building = popularity_.pick(arrival_rng_);
      a.direct = arrival_rng_.bernoulli(w_.direct_share);
      a.request = a.direct ? fall_(request_rng_) : alarm_(request_rng_);
      next_poisson_ += arrival_rng_.exponential(city_rate_);
    }
    a.request.id = kInjectTag | counter_++;
    const std::uint8_t entry = a.direct ? 2 : 1;
    if ((seen_[a.building] & entry) != 0) ++repeats_;
    seen_[a.building] |= entry;
    return a;
  }

  /// Arrivals popped so far, and how many of them repeated an earlier
  /// building and entry.
  [[nodiscard]] std::uint64_t popped() const { return counter_; }
  [[nodiscard]] std::uint64_t repeats() const { return repeats_; }

  static constexpr double kNever = 1e300;

 private:
  const Workload& w_;
  util::RngStream arrival_rng_;
  util::RngStream request_rng_;
  Popularity popularity_;
  double city_rate_;
  double next_poisson_;
  double next_telemetry_;
  std::uint64_t counter_ = 0;
  std::uint64_t repeats_ = 0;
  std::vector<std::uint8_t> seen_ = std::vector<std::uint8_t>(w_.buildings, 0);
  workload::RequestFactory alarm_ = workload::alarm_detection_factory();
  workload::RequestFactory fall_ = workload::fall_detection_factory();
  workload::RequestFactory telemetry_ = workload::telemetry_factory();
};

// ---------------------------------------------------------------------------
// One pass: set up, warm up, timed window, drain, checks
// ---------------------------------------------------------------------------

/// Everything a pass measures or outputs. Counts are exact and identical
/// across passes of one workload and seed; times are host time.
struct PassResult {
  // Host time.
  std::vector<double> setup_s;        ///< one per set-up
  std::vector<double> setup_probe_ns;  ///< probe time right after each set-up
  std::vector<double> step_ns;        ///< per timed step (wall)
  std::vector<double> step_cpu_ns;    ///< per timed step, CPU time of all threads
  /// Probe runs during the window: probe ns, and the timed step it followed.
  std::vector<double> probe_ns;
  std::vector<std::size_t> probe_step;
  std::vector<double> step_requests;  ///< requests submitted per timed step
  double window_ns = 0.0, window_cpu_ns = 0.0;
  // Set-up phases (s), median over the set-ups of this pass.
  double setup_add_buildings_s = 0.0, setup_wire_s = 0.0, setup_shards_s = 0.0;
  // Simulated outputs.
  std::uint64_t submitted = 0, completed = 0, deadline_missed = 0, rejected = 0, dropped = 0;
  std::uint64_t lost = 0;  ///< submitted but never resolved, or resolved twice
  std::vector<double> edge_p99_s;     ///< p99 of edge responses, one per city
  std::vector<double> comfort_dev_k;  ///< one per city (per repetition)
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  // Layer counters over the timed window (exact).
  std::uint64_t events = 0, messages_sent = 0, messages_dropped = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t window_arrivals = 0, window_repeats = 0;  ///< injected edge arrivals
  // Layer counters over the run.
  std::uint64_t preemptions = 0, offload_h = 0, offload_v = 0;
  std::uint64_t routing_decisions = 0, cluster_fills = 0;
  std::uint64_t district_ticks = 0, gated_district_ticks = 0;
  std::uint64_t substeps_run = 0, substeps_skipped = 0;
  std::uint64_t lane_parallel = 0, lane_fallback = 0;
  std::uint64_t net_nodes = 0, net_links = 0;
  std::uint64_t obs_snapshots = 0, obs_instruments = 0;
  std::vector<double> route_ns;       ///< route probe samples (traced pass)
  std::vector<std::string> failures;  ///< failed output checks
};

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}
void mix(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix(h, bits);
}

struct PassOptions {
  obs::TraceLevel obs;
  Tracer* tracer = nullptr;  ///< traced pass (spans and route probe) when set
  std::size_t setups = 1;    ///< minimum timed set-ups (kCity)
};

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, int seconds, bool tiny, std::string breakage,
         const HostProbe& probe)
      : w_(w), seed_(seed), breakage_(std::move(breakage)), probe_(probe) {
    const double units = std::max(1.0, std::round(w.units_per_second * seconds));
    units_ = tiny ? (w.shape == Shape::kScenario ? 2 : 20) : static_cast<std::size_t>(units);
  }

  PassResult run_pass(const PassOptions& opt) {
    PassResult r;
    if (w_.shape == Shape::kCity) {
      run_city(opt, r);
    } else {
      run_scenario(opt, r);
    }
    return r;
  }

  [[nodiscard]] std::size_t rooms_per_city() const {
    return w_.buildings * static_cast<std::size_t>(w_.rooms);
  }

 private:
  core::PlatformConfig config(obs::TraceLevel level, std::uint64_t seed) const {
    core::PlatformConfig pc;
    pc.seed = seed;
    pc.start_time = thermal::start_of_month(w_.month);
    pc.climate = thermal::paris_climate();
    if (w_.calm_weather) pc.climate.noise_stddev_k = 0.0;
    pc.federation_degree = w_.federation_degree;
    pc.cluster.edge_peak_ladder = policy::Registry::split_list(w_.ladder);
    pc.obs.level = level;
    if (w_.keep_warm) pc.regulator.gating = core::GatingPolicy::kKeepWarm;
    if (w_.shape == Shape::kScenario) {
      // scenarios/winter_city.cfg as `df3run --metrics` runs it.
      pc.obs.trace_capacity = 1'500'000;
      pc.obs.slo_window_s = 3600.0;
    }
    return pc;
  }

  /// Seconds spent in each set-up phase of one city.
  struct SetupPhases {
    double total = 0.0, add_buildings = 0.0, wire = 0.0, shards = 0.0;
  };

  /// Build one city from an empty platform to ready-for-first-tick, timing
  /// (and, traced, spanning) each phase. The lazy peer wiring and shard map
  /// are forced here through cluster(0) and shard_count().
  std::unique_ptr<core::Df3Platform> build(obs::TraceLevel level, std::uint64_t seed,
                                           Tracer* tr, SetupPhases& ph) {
    Scope all(tr, "setup");
    const auto start = now_ns();
    auto t = start;
    auto lap = [&t] {
      const auto n = now_ns();
      const double s = static_cast<double>(n - t) * 1e-9;
      t = n;
      return s;
    };
    std::unique_ptr<core::Df3Platform> city;
    {
      Scope s(tr, "setup.construct");
      city = std::make_unique<core::Df3Platform>(config(level, seed));
    }
    lap();  // the constructor counts in the total only
    {
      Scope s(tr, "setup.add_buildings");
      for (std::size_t i = 0; i < w_.buildings; ++i) {
        core::BuildingConfig b;
        b.name = "b" + std::to_string(i);
        b.rooms = w_.rooms;
        b.high_fidelity_rooms = w_.mixed_fidelity && i % 3 == 2;
        city->add_building(b);
      }
    }
    ph.add_buildings = lap();
    {
      Scope s(tr, "setup.sources");
      city->set_cloud_routing(w_.routing);
      if (w_.shape == Shape::kScenario) {
        city->add_edge_source(0, workload::alarm_detection_factory(), w_.b0_alarm_rate);
        city->add_edge_source(
            0, workload::telemetry_factory(),
            std::make_unique<workload::FixedIntervalArrivals>(w_.telemetry_period_s));
        city->add_cloud_source(workload::risk_simulation_factory(), w_.cloud_rate);
      } else {
        if (w_.wifi_share > 0.0) {
          for (std::size_t b = 0; b < w_.buildings; ++b) {
            city->add_edge_source(
                b, workload::map_serving_factory(),
                std::make_unique<ReplayedPoisson>(w_.wifi_share * Popularity::rate(w_, b), seed,
                                                  "citybench/wifi/" + std::to_string(b)),
                false, /*via_wifi=*/true);
          }
        }
        if (w_.cloud_rate > 0.0) {
          city->add_cloud_source(workload::risk_simulation_factory(),
                                 std::make_unique<ReplayedPoisson>(w_.cloud_rate, seed,
                                                                   "citybench/cloud"));
        }
      }
    }
    lap();  // so do the sources
    {
      Scope s(tr, "setup.wire");
      (void)city->cluster(0);
    }
    ph.wire = lap();
    {
      Scope s(tr, "setup.shards");
      (void)city->shard_count();
    }
    ph.shards = lap();
    ph.total = static_cast<double>(t - start) * 1e-9;
    return city;
  }

  /// Advance one step of `tick_s` simulated seconds, injecting every edge
  /// arrival that falls inside it at its instant.
  static void step(core::Df3Platform& city, EdgeTraffic* traffic, double step_end, Tracer* tr) {
    Scope s(tr, "step");
    if (traffic != nullptr) {
      while (traffic->next_time() <= step_end) {
        EdgeTraffic::Arrival a = traffic->pop();
        city.run(util::Seconds{std::max(0.0, a.t - city.now())});
        Scope si(tr, "inject_edge");
        city.inject_edge(a.building, std::move(a.request), a.direct);
      }
    }
    city.run(util::Seconds{std::max(0.0, step_end - city.now())});
  }

  /// One timed step: its host ns (wall and CPU), the requests submitted
  /// during it, and the calendar size after it. The host probe runs after
  /// it, outside the timing, once at least 40 ms of steps have passed since
  /// the last probe (about 10 probes per window slice at --seconds 15).
  void timed_step(core::Df3Platform& city, EdgeTraffic* traffic, double step_end, Tracer* tr,
                  PassResult& r) {
    const std::uint64_t submitted = city.auditor().submitted();
    const auto ca = cpu_ns();
    const auto a = now_ns();
    step(city, traffic, step_end, tr);
    const auto b = now_ns();
    const auto cb = cpu_ns();
    r.step_ns.push_back(static_cast<double>(b - a));
    r.step_cpu_ns.push_back(static_cast<double>(cb - ca));
    since_probe_ns_ += static_cast<double>(b - a);
    if (since_probe_ns_ >= 4e7) {
      r.probe_ns.push_back(probe_.run());
      r.probe_step.push_back(r.step_ns.size() - 1);
      since_probe_ns_ = 0.0;
    }
    r.step_requests.push_back(static_cast<double>(city.auditor().submitted() - submitted));
    r.peak_pending = std::max<std::uint64_t>(r.peak_pending, city.simulation().pending_events());
  }

  /// Sum the window and probe once more, so the last slice (and a window
  /// too short to have probed at all) has a probe of its own.
  void close_window(PassResult& r) {
    for (double ns : r.step_ns) r.window_ns += ns;
    for (double ns : r.step_cpu_ns) r.window_cpu_ns += ns;
    r.probe_ns.push_back(probe_.run());
    r.probe_step.push_back(r.step_ns.empty() ? 0 : r.step_ns.size() - 1);
    since_probe_ns_ = 0.0;
  }

  void run_city(const PassOptions& opt, PassResult& r) {
    // At least `setups` timed set-ups and at least a second of them, so
    // small cities report a median over many. Half come before the window
    // (the last of those is the city that runs) and half after it, so the
    // median samples the host at both ends of the run. Teardowns are not
    // timed.
    std::vector<double> add_buildings, wire, shards;
    double setup_total = 0.0;
    auto timed_setup = [&](Tracer* tr) {
      SetupPhases ph;
      auto c = build(opt.obs, seed_, tr, ph);
      r.setup_s.push_back(ph.total);
      r.setup_probe_ns.push_back(probe_.run());
      setup_total += ph.total;
      add_buildings.push_back(ph.add_buildings);
      wire.push_back(ph.wire);
      shards.push_back(ph.shards);
      return c;
    };
    std::unique_ptr<core::Df3Platform> city;
    const std::size_t before = (opt.setups + 1) / 2;
    for (std::size_t i = 0; i < before || (setup_total < 0.5 && i < 100); ++i) {
      city.reset();
      city = timed_setup(opt.tracer);
    }

    const double tick = config(opt.obs, seed_).tick_s;
    const double t0 = city->now();
    std::unique_ptr<EdgeTraffic> traffic;
    if (w_.telemetry_period_s > 0.0 || w_.edge_rate_top > 0.0) {
      traffic = std::make_unique<EdgeTraffic>(w_, seed_, t0);
    }

    r.step_ns.reserve(units_);
    r.step_cpu_ns.reserve(units_);
    r.step_requests.reserve(units_);
    std::size_t k = 0;
    {
      Scope s(opt.tracer, "warmup");
      for (; k < w_.warmup_steps; ++k) {
        step(*city, traffic.get(), t0 + static_cast<double>(k + 1) * tick, nullptr);
      }
    }

    sim::Simulation& sim = city->simulation();
    const std::uint64_t ev0 = sim.events_executed();
    const std::uint64_t sent0 = city->network().messages_sent();
    const std::uint64_t drop0 = city->network().messages_dropped();
    const std::uint64_t popped0 = traffic ? traffic->popped() : 0;
    const std::uint64_t repeats0 = traffic ? traffic->repeats() : 0;
    // Comfort is judged over the window only, past the start-up transient.
    const double first_sample = t0 + tick;
    const double window_t0 = city->now();
    const std::vector<double> comfort_a = comfort_integrals(*city, first_sample);
    {
      Scope s(opt.tracer, "window");
      for (std::size_t i = 0; i < units_; ++i, ++k) {
        timed_step(*city, traffic.get(), t0 + static_cast<double>(k + 1) * tick, opt.tracer, r);
      }
    }
    close_window(r);
    r.events = sim.events_executed() - ev0;
    r.messages_sent = city->network().messages_sent() - sent0;
    r.messages_dropped = city->network().messages_dropped() - drop0;
    if (traffic) {
      r.window_arrivals = traffic->popped() - popped0;
      r.window_repeats = traffic->repeats() - repeats0;
    }
    r.comfort_dev_k.push_back(
        comfort_between(comfort_a, comfort_integrals(*city, first_sample), window_t0, city->now()));

    if (opt.tracer != nullptr) probe_routes(*city, opt.tracer, r);
    finish(*city, r.comfort_dev_k.back(), opt.tracer, r);
    {
      Scope s(opt.tracer, "teardown");
      city.reset();
    }
    while (r.setup_s.size() < opt.setups || (setup_total < 1.0 && r.setup_s.size() < 200)) {
      timed_setup(nullptr);
    }
    r.setup_add_buildings_s = median(add_buildings);
    r.setup_wire_s = median(wire);
    r.setup_shards_s = median(shards);
  }

  void run_scenario(const PassOptions& opt, PassResult& r) {
    const double tick = config(opt.obs, seed_).tick_s;
    const auto steps =
        static_cast<std::size_t>(std::llround(w_.scenario_days * 86400.0 / tick));
    // Repetition 0 is the warm-up; its set-up and steps are not timed.
    std::vector<double> add_buildings, wire, shards;
    r.step_ns.reserve(units_ * steps);
    r.step_cpu_ns.reserve(units_ * steps);
    r.step_requests.reserve(units_ * steps);
    for (std::size_t rep = 0; rep <= units_; ++rep) {
      const bool timed = rep > 0;
      Tracer* tr = timed ? opt.tracer : nullptr;
      Scope rs(tr, "repetition");
      // Each repetition is the scenario at its own seed, derived from --seed.
      std::uint64_t sm = seed_ + rep;
      const std::uint64_t rep_seed = util::splitmix64(sm);
      SetupPhases ph;
      auto city = build(opt.obs, rep_seed, tr, ph);
      if (timed) {
        r.setup_s.push_back(ph.total);
        r.setup_probe_ns.push_back(probe_.run());
        add_buildings.push_back(ph.add_buildings);
        wire.push_back(ph.wire);
        shards.push_back(ph.shards);
      }
      sim::Simulation& sim = city->simulation();
      const double t0 = city->now();
      const std::uint64_t ev0 = sim.events_executed();
      const std::uint64_t sent0 = city->network().messages_sent();
      const std::uint64_t drop0 = city->network().messages_dropped();
      for (std::size_t k = 0; k < steps; ++k) {
        const double step_end = t0 + static_cast<double>(k + 1) * tick;
        if (timed) {
          timed_step(*city, nullptr, step_end, tr, r);
        } else {
          step(*city, nullptr, step_end, nullptr);
        }
      }
      // A scenario repetition is judged over its whole run, as df3run does.
      const double comfort_k =
          comfort_between(std::vector<double>(w_.buildings, 0.0),
                          comfort_integrals(*city, t0 + tick), t0 + tick, city->now());
      if (timed) {
        r.events += sim.events_executed() - ev0;
        r.messages_sent += city->network().messages_sent() - sent0;
        r.messages_dropped += city->network().messages_dropped() - drop0;
        r.comfort_dev_k.push_back(comfort_k);
        if (tr != nullptr && rep == 1) probe_routes(*city, tr, r);
        finish(*city, comfort_k, tr, r);
      } else {
        // The warm-up repetition is checked like the others but its outputs
        // are not part of the pass result.
        PassResult warm;
        finish(*city, comfort_k, nullptr, warm);
        for (const auto& f : warm.failures) r.failures.push_back("warm-up: " + f);
      }
    }
    r.setup_add_buildings_s = median(add_buildings);
    r.setup_wire_s = median(wire);
    r.setup_shards_s = median(shards);
    close_window(r);
  }

  /// Per-building time integral (K s) of |room - target| since the first
  /// comfort sample at `first_sample_t`, up to now.
  static std::vector<double> comfort_integrals(const core::Df3Platform& city,
                                               double first_sample_t) {
    std::vector<double> out(city.building_count());
    const double t = city.now();
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] = city.comfort(b).mean_abs_deviation_k(t) * (t - first_sample_t);
    }
    return out;
  }

  /// Mean absolute comfort deviation (K) over [t_a, t_b], averaged over
  /// buildings, from the integrals taken at both ends.
  static double comfort_between(const std::vector<double>& at_a, const std::vector<double>& at_b,
                                double t_a, double t_b) {
    double sum = 0.0;
    for (std::size_t b = 0; b < at_a.size(); ++b) sum += (at_b[b] - at_a[b]) / (t_b - t_a);
    return sum / static_cast<double>(std::max<std::size_t>(1, at_a.size()));
  }

  /// Time Network::route on the live topology over the messages the
  /// workload's requests send: 256 requests drawn from the workload's own
  /// mix (kind in proportion to its rate, building by popularity), each contributing its intake, staging and result hops with the
  /// factory payload sizes.
  void probe_routes(core::Df3Platform& city, Tracer* tr, PassResult& r) {
    Scope ps(tr, "probe");
    net::Network& net = city.network();
    util::RngStream rng(seed_, "citybench/probe");
    enum Kind { kAlarm, kDirect, kTelemetry, kWifiMap, kCloud };
    const Popularity popularity(w_);
    const double edge = popularity.city_rate();
    const double rates[] = {
        w_.b0_alarm_rate + edge * (1.0 - w_.direct_share),
        edge * w_.direct_share,
        w_.telemetry_period_s > 0.0 ? 1.0 / w_.telemetry_period_s : 0.0,
        edge * w_.wifi_share,
        w_.cloud_rate,
    };
    double total = 0.0;
    for (double x : rates) total += x;
    const net::NodeId internet = net.node("internet");
    for (int i = 0; i < 256; ++i) {
      double u = rng.uniform01() * total;
      int kind = 0;
      while (kind < 4 && u >= rates[kind]) u -= rates[kind++];
      // Building-0 flows stay at building 0; city-wide ones pick any.
      const bool city_wide = edge > 0.0 && kind != kTelemetry && kind != kCloud;
      const std::size_t b = city_wide ? popularity.pick(rng) : 0;
      const std::string p = "b" + std::to_string(b);
      const net::NodeId dev = net.node(p + "/dev"), gw = net.node(p + "/gw"),
                        srv = net.node(p + "/srv0"), wifi = net.node(p + "/wifi");
      struct Hop {
        net::NodeId src, dst;
        util::Bytes size;
      };
      std::vector<Hop> hops;
      switch (kind) {
        case kAlarm:
          hops = {{dev, gw, util::kibibytes(16.0)}, {gw, srv, util::kibibytes(16.0)},
                  {gw, dev, util::bytes(256.0)}};
          break;
        case kDirect:
          hops = {{dev, srv, util::kibibytes(4.0)}, {srv, dev, util::bytes(64.0)}};
          break;
        case kTelemetry:
          hops = {{dev, gw, util::bytes(160.0)}, {gw, srv, util::bytes(160.0)},
                  {gw, dev, util::bytes(64.0)}};
          break;
        case kWifiMap:
          hops = {{wifi, gw, util::bytes(512.0)}, {gw, srv, util::bytes(512.0)},
                  {gw, wifi, util::kibibytes(100.0)}};
          break;
        default:
          hops = {{internet, gw, util::mebibytes(1.0)}, {gw, srv, util::mebibytes(1.0)},
                  {gw, internet, util::kibibytes(64.0)}};
          break;
      }
      for (const Hop& h : hops) {
        Scope s(tr, "probe.route");
        const auto t0 = now_ns();
        const auto path = net.route(h.src, h.dst, h.size);
        r.route_ns.push_back(static_cast<double>(now_ns() - t0));
        if (path.empty()) r.failures.push_back("probe: no route between probe endpoints");
      }
    }
  }

  /// Stop the sources, drain to quiescence, run the output checks, and fold
  /// the city's simulated outputs into the pass result and digest.
  void finish(core::Df3Platform& city, double comfort_k, Tracer* tr, PassResult& r) {
    {
      Scope s(tr, "drain");
      city.stop_sources();
      // Drain in simulated hours; the longest jobs (risk batches on a busy
      // cluster) finish within hours, so 30 days means a lost request.
      for (int h = 0; h < 24 * 30 && city.auditor().open_requests() > 0; ++h) {
        city.run(util::Seconds{3600.0});
      }
    }
    Scope s(tr, "checks");
    if (breakage_ == "conservation") {
      workload::Request ghost;
      ghost.id = kInjectTag | 0xffffffffULL;
      city.auditor().on_submitted(ghost);
    }
    const metrics::LifecycleAuditor& audit = city.auditor();
    if (audit.open_requests() > 0) {
      r.failures.push_back("drain: " + std::to_string(audit.open_requests()) +
                           " request(s) still open after 30 simulated days");
    }
    for (const std::string& v : audit.check_quiescent()) {
      r.failures.push_back("check_quiescent: " + v);
    }
    for (const std::string& v : city.audit_now()) r.failures.push_back("audit_now: " + v);
    if (audit.submitted() != audit.terminals()) {
      r.failures.push_back("conservation: submitted " + std::to_string(audit.submitted()) +
                           " != terminals " + std::to_string(audit.terminals()));
    }
    r.submitted += audit.submitted();
    r.lost += (audit.submitted() > audit.terminals() ? audit.submitted() - audit.terminals() : 0) +
              audit.duplicate_terminals() + audit.unknown_terminals();

    const metrics::FlowMetrics& fm = city.flow_metrics();
    r.completed += fm.overall().completed;
    r.deadline_missed += fm.overall().deadline_missed;
    r.rejected += fm.overall().rejected;
    r.dropped += fm.overall().dropped;
    util::PercentileSampler edge = fm.by_flow(workload::Flow::kEdgeIndirect).response_s;
    edge.merge(fm.by_flow(workload::Flow::kEdgeDirect).response_s);
    r.edge_p99_s.push_back(edge.p99());
    r.preemptions += city.total_preemptions();
    r.offload_h += fm.served_by_prefix("horizontal:");
    r.offload_v += fm.served_by_prefix("vertical:");
    r.routing_decisions += city.routing_decisions();
    r.cluster_fills += city.routing_fill_stats().cluster;
    r.district_ticks += city.district_ticks();
    r.gated_district_ticks += city.gated_district_ticks();
    r.substeps_run += city.substeps_run();
    r.substeps_skipped += city.substeps_skipped();
    r.lane_parallel += city.lane_parallel_ticks();
    r.lane_fallback += city.lane_fallback_ticks();
    r.net_nodes = city.network().node_count();
    r.net_links = city.network().link_count();
    if (const obs::Observability* o = city.observability()) {
      r.obs_snapshots += o->registry().snapshots();
      r.obs_instruments = o->registry().size();
    }

    // Digest of the simulated outputs only: per-flow outcome counts and
    // p99, IT energy, the room-temperature series and comfort. Host-side
    // counts (events, messages) stay out, so a pure speed change keeps it.
    std::uint64_t& h = r.digest;
    for (const workload::Flow f :
         {workload::Flow::kCloud, workload::Flow::kEdgeDirect, workload::Flow::kEdgeIndirect}) {
      const auto& sl = fm.by_flow(f);
      mix(h, sl.completed);
      mix(h, sl.deadline_missed);
      mix(h, sl.rejected);
      mix(h, sl.dropped);
      mix(h, sl.response_s.p99());
    }
    mix(h, audit.submitted());
    mix(h, city.df_energy().it().value());
    for (const double v : city.room_temperature_series().values) mix(h, v);
    mix(h, comfort_k);
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::string breakage_;
  const HostProbe& probe_;
  double since_probe_ns_ = 0.0;
  std::size_t units_ = 1;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Host cost per unit of work over the window at the reference host speed:
/// the window is cut into 25 contiguous slices of steps, and each slice's
/// CPU ns per unit of work is scaled by kNominalNs over the mean probe time
/// taken during that slice (the run's median probe if none ran in it); the
/// result is the median over slices. CPU time of all threads, not wall
/// time, so a vCPU the host lends elsewhere for a while does not count;
/// core.tick_cpu_per_wall reports how much of the wall time was parallel.
/// The slicing is fixed by the step count, so it is the same on every run.
double window_cost(const PassResult& r, const std::vector<double>& work_per_step) {
  const std::size_t n = r.step_cpu_ns.size();
  const std::size_t slices = std::min<std::size_t>(25, std::max<std::size_t>(1, n));
  const double run_probe = median(r.probe_ns);
  std::vector<double> rates;
  std::size_t p = 0;
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t end = (s + 1) * n / slices;
    double t = 0.0, units = 0.0;
    for (std::size_t i = s * n / slices; i < end; ++i) {
      t += r.step_cpu_ns[i];
      units += work_per_step[i];
    }
    double probe = 0.0;
    std::size_t probes = 0;
    for (; p < r.probe_step.size() && r.probe_step[p] < end; ++p, ++probes) probe += r.probe_ns[p];
    probe = probes > 0 ? probe / static_cast<double>(probes) : run_probe;
    if (units > 0.0 && probe > 0.0) rates.push_back(t / units * HostProbe::kNominalNs / probe);
  }
  return median(rates);
}

/// Set-up seconds at the reference host speed: each set-up scaled by the
/// probe run right after it; the median over set-ups.
double setup_cost(const PassResult& r) {
  std::vector<double> scaled;
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    scaled.push_back(r.setup_s[i] * HostProbe::kNominalNs / r.setup_probe_ns[i]);
  }
  return median(scaled);
}

/// A "Key: <n> kB" field of /proc/self/status (0 if absent).
std::size_t proc_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return static_cast<std::size_t>(std::strtoull(line.c_str() + len, nullptr, 10));
    }
  }
  return 0;
}

class Json {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void end_to_end(const PassResult& r, double rooms_per_step, const HostProbe& probe, Json& j) {
  j.metric("setup_s", setup_cost(r), "s");
  j.metric("ns_per_room_tick",
           window_cost(r, std::vector<double>(r.step_cpu_ns.size(), rooms_per_step)), "ns");
  j.metric("ns_per_request", window_cost(r, r.step_requests), "ns");
  // The probe's buffers are the benchmark's, not the workload's.
  const std::size_t hwm = proc_status_kb("VmHWM:");
  j.metric("peak_rss_mb", static_cast<double>(hwm - std::min(hwm, probe.resident_kb())) / 1024.0,
           "MB");
  const std::uint64_t terminal = r.completed + r.deadline_missed + r.rejected + r.dropped;
  j.metric("sim_success_ratio",
           terminal == 0 ? 0.0 : static_cast<double>(r.completed) / static_cast<double>(terminal),
           "ratio");
  j.metric("sim_p99_response_ms", median(r.edge_p99_s) * 1e3, "ms");
  double comfort = 0.0;
  for (double c : r.comfort_dev_k) comfort += c;
  comfort /= static_cast<double>(std::max<std::size_t>(1, r.comfort_dev_k.size()));
  j.metric("sim_comfort_dev_k", comfort, "K");
}

void per_layer(const PassResult& base, const PassResult& traced, const PassResult& other,
               bool base_is_counters, std::size_t buildings, const Tracer& tr, Json& j) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  j.metric("simcore.events_executed", d(base.events), "count");
  j.metric("simcore.ns_per_event", base.events > 0 ? base.window_ns / d(base.events) : 0.0, "ns");
  j.metric("simcore.peak_pending", d(base.peak_pending), "count");
  j.metric("net.messages_sent", d(base.messages_sent), "count");
  j.metric("net.messages_dropped", d(base.messages_dropped), "count");
  j.metric("net.route_ns_p50", quantile(traced.route_ns, 0.5), "ns");
  j.metric("net.route_ns_p99", quantile(traced.route_ns, 0.99), "ns");
  // Route costs are skewed (a result hop over a slow last-mile link makes
  // Dijkstra explore the whole city; most hops exit early), so the share
  // of the window that routing can account for uses the mean, not the p50.
  // It is taken within the traced pass, whose probe and window share a
  // host phase.
  double route_mean = 0.0;
  for (double ns : traced.route_ns) route_mean += ns;
  route_mean /= static_cast<double>(std::max<std::size_t>(1, traced.route_ns.size()));
  j.metric("net.route_ns_mean", route_mean, "ns");
  j.metric("net.route_share",
           traced.window_ns > 0.0 ? route_mean * d(traced.messages_sent) / traced.window_ns : 0.0,
           "ratio");
  j.metric("net.nodes", d(base.net_nodes), "count");
  j.metric("net.links", d(base.net_links), "count");
  const std::vector<double> steps = tr.durations("step");
  const std::vector<double> injects = tr.durations("inject_edge");
  j.metric("core.tick_ns_p50", quantile(steps, 0.5), "ns");
  j.metric("core.tick_ns_p99", quantile(steps, 0.99), "ns");
  j.metric("core.inject_ns_p50", quantile(injects, 0.5), "ns");
  j.metric("core.inject_ns_p99", quantile(injects, 0.99), "ns");
  j.metric("core.step_self_ns_p50", quantile(tr.self_times("step"), 0.5), "ns");
  j.metric("core.gated_district_fraction",
           base.district_ticks > 0 ? d(base.gated_district_ticks) / d(base.district_ticks) : 0.0,
           "ratio");
  const double substeps = d(base.substeps_run + base.substeps_skipped);
  j.metric("core.substeps_skipped_ratio",
           substeps > 0.0 ? d(base.substeps_skipped) / substeps : 0.0, "ratio");
  j.metric("core.tick_cpu_per_wall", base.window_cpu_ns / base.window_ns, "ratio");
  j.metric("core.lane_parallel_ticks", d(base.lane_parallel), "count");
  j.metric("core.lane_fallback_ticks", d(base.lane_fallback), "count");
  j.metric("core.preemptions", d(base.preemptions), "count");
  j.metric("core.offload_horizontal", d(base.offload_h), "count");
  j.metric("core.offload_vertical", d(base.offload_v), "count");
  j.metric("core.setup.add_buildings_s", traced.setup_add_buildings_s, "s");
  j.metric("core.setup.wire_s", traced.setup_wire_s, "s");
  j.metric("core.setup.shards_s", traced.setup_shards_s, "s");
  j.metric("policy.routing_decisions", d(base.routing_decisions), "count");
  j.metric("policy.cluster_fills", d(base.cluster_fills), "count");
  j.metric("metrics.submitted", d(base.submitted), "count");
  j.metric("metrics.completed", d(base.completed), "count");
  j.metric("metrics.deadline_missed", d(base.deadline_missed), "count");
  j.metric("metrics.rejected", d(base.rejected), "count");
  j.metric("metrics.dropped", d(base.dropped), "count");
  const PassResult& counters = base_is_counters ? base : other;
  const PassResult& off = base_is_counters ? other : base;
  j.metric("obs.counters_overhead", counters.window_ns / off.window_ns - 1.0, "ratio");
  j.metric("obs.snapshots", d(counters.obs_snapshots), "count");
  j.metric("obs.instruments", d(counters.obs_instruments), "count");
  j.metric("bench.window_requests_per_building",
           d(base.window_arrivals) / d(std::max<std::size_t>(1, buildings)), "count");
  j.metric("bench.repeat_pair_share",
           base.window_arrivals > 0 ? d(base.window_repeats) / d(base.window_arrivals) : 0.0,
           "ratio");
  j.metric("bench.trace_overhead", traced.window_ns / base.window_ns - 1.0, "ratio");
  // How fast the host ran during the untraced window relative to the
  // reference host the timings are scaled to (1 = as fast, 0.8 = 20% slower).
  j.metric("bench.host_speed", HostProbe::kNominalNs / median(base.probe_ns), "ratio");
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Compare against the digest of earlier runs of the same workload, seed
/// and window in this build, or record it when `may_record` (a run that
/// passed every other check and plants no fault).
void check_reference(const std::string& path, std::uint64_t digest, bool may_record,
                     std::vector<std::string>& failures) {
  if (path.empty()) return;
  std::ifstream in(path);
  std::string stored;
  if (in >> stored) {
    if (stored != hex(digest)) {
      failures.push_back("digest: " + hex(digest) + " differs from earlier run's " + stored +
                         " (" + path + ")");
    }
    return;
  }
  if (!may_record) return;
  std::ofstream out(path);
  out << hex(digest) << '\n';
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strlen(CITYBENCH_SANITIZE) > 0;
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  const std::string bt = CITYBENCH_BUILD_TYPE;
  return bt == "Release" || bt == "RelWithDebInfo";
#else
  return false;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: citybench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--tiny] [--digest-ref <file>] [--spans <file>]\n"
               "                 [--break digest|conservation]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The thread and trace-size overrides are speed/size knobs: the timed
  // configuration is the library default, whatever the caller's shell holds.
  ::unsetenv("DF3_PHYSICS_THREADS");
  ::unsetenv("DF3_CONTROL_THREADS");
  ::unsetenv("DF3_TRACE_CAPACITY");

  std::string workload_name, digest_ref, spans_path, breakage;
  long long seed = -1, seconds = -1, trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      tiny = true;
    } else if (a == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atoll(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::atoll(argv[++i]);
    } else if (a == "--digest-ref" && has_value) {
      digest_ref = argv[++i];
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (a == "--break" && has_value) {
      breakage = argv[++i];
    } else {
      std::fprintf(stderr, "citybench: unknown or incomplete argument '%s'\n", a.c_str());
      return usage();
    }
  }
  const Workload* found = find_workload(workload_name);
  if (found == nullptr || seed < 0 || seconds < 1 || seconds > 600 || (trace != 0 && trace != 1) ||
      (!breakage.empty() && breakage != "digest" && breakage != "conservation")) {
    return usage();
  }
  if (!optimized() || sanitized()) {
    std::fprintf(stderr,
                 "citybench: refusing to time this build (build type '%s', sanitizers '%s'); "
                 "configure with -DCMAKE_BUILD_TYPE=Release and no DF3_SANITIZE\n",
                 CITYBENCH_BUILD_TYPE, CITYBENCH_SANITIZE);
    return 2;
  }
  const Workload w = tiny ? shrink(*found) : *found;
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  std::printf("citybench fingerprint: {\"workload\": \"%s\", \"seed\": %lld, \"seconds\": %lld, "
              "\"trace\": %lld, \"tiny\": %s, \"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"audit\": \"%s\"}\n",
              w.name, seed, seconds, trace, tiny ? "true" : "false", nproc, compiler(),
              CITYBENCH_BUILD_TYPE, CITYBENCH_CXX_FLAGS,
              metrics::kDefaultAuditLevel == metrics::AuditLevel::kFull ? "full" : "counters");
  std::fflush(stdout);

  const HostProbe probe;
  Runner runner(w, static_cast<std::uint64_t>(seed), static_cast<int>(seconds), tiny, breakage,
                probe);
  const double rooms_per_step = static_cast<double>(runner.rooms_per_city());
  std::vector<std::string> failures;
  Json json;
  PassResult base;
  try {
    PassOptions main_opt;
    main_opt.obs = w.obs;
    main_opt.setups = w.shape == Shape::kCity ? (tiny ? 2 : 7) : 1;
    base = runner.run_pass(main_opt);
    failures = base.failures;
    std::uint64_t reported = base.digest;
    if (trace == 1) {
      Tracer tracer;
      PassOptions traced_opt;
      traced_opt.obs = w.obs;
      traced_opt.tracer = &tracer;
      PassResult traced = runner.run_pass(traced_opt);
      if (breakage == "digest") traced.digest ^= 1;
      PassOptions other_opt;
      const bool base_is_counters = w.obs != obs::TraceLevel::kOff;
      other_opt.obs = base_is_counters ? obs::TraceLevel::kOff : obs::TraceLevel::kCounters;
      const PassResult other = runner.run_pass(other_opt);
      for (const auto& f : traced.failures) failures.push_back("traced pass: " + f);
      for (const auto& f : other.failures) failures.push_back("obs pass: " + f);
      if (traced.digest != base.digest) {
        failures.push_back("digest: traced pass " + hex(traced.digest) + " != untraced " +
                           hex(base.digest));
      }
      if (other.digest != base.digest) {
        failures.push_back("digest: obs-level pass " + hex(other.digest) + " != " +
                           hex(base.digest));
      }
      per_layer(base, traced, other, base_is_counters, w.buildings, tracer, json);
      if (!spans_path.empty() && !tracer.write_csv(spans_path)) {
        failures.push_back("spans: cannot write " + spans_path);
      }
    } else {
      if (breakage == "digest") reported ^= 1;
      end_to_end(base, rooms_per_step, probe, json);
    }
    check_reference(digest_ref, reported, breakage.empty() && failures.empty(), failures);
    std::printf("citybench outputs: digest %s, submitted %llu, completed %llu, missed %llu, "
                "rejected %llu, dropped %llu, window %zu steps, %.3f s\n",
                hex(base.digest).c_str(), static_cast<unsigned long long>(base.submitted),
                static_cast<unsigned long long>(base.completed),
                static_cast<unsigned long long>(base.deadline_missed),
                static_cast<unsigned long long>(base.rejected),
                static_cast<unsigned long long>(base.dropped), base.step_ns.size(),
                base.window_ns * 1e-9);
    // The unscaled window, for reading the timings against the host.
    std::printf("citybench host: speed %.3f of reference (probe median %.3f ms), window wall "
                "%.3f s, CPU %.3f s, unscaled wall ns/room-tick %.4g\n",
                HostProbe::kNominalNs / median(base.probe_ns), median(base.probe_ns) * 1e-6,
                base.window_ns * 1e-9, base.window_cpu_ns * 1e-9,
                base.window_ns / (rooms_per_step * static_cast<double>(base.step_ns.size())));
  } catch (const std::exception& e) {
    failures.push_back(std::string("exception: ") + e.what());
  }
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const std::uint64_t attempted = std::max<std::uint64_t>(1, base.submitted);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              failures.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(base.lost), json.body().c_str());
  return failures.empty() ? 0 : 3;
}
