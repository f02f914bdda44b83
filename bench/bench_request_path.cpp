// Request-path cost as the city grows (DESIGN.md section 16): host time
// per edge request at 1e2, 1e3 and 1e4 buildings, with the network's route
// memo and zone-restricted miss counters beside it.
//
// Each row runs one city twice over the same simulated window: once with a
// fixed count of Zipf-spread (s = 1) edge requests injected through
// Df3Platform::inject_edge — building i is picked with weight 1/(i+1), a
// tenth of the requests are direct fall detections — and once with no
// requests. ns/request is the host time the requests add, divided by their
// count. Rounds interleave the two runs and report medians, so host drift
// hits both sides alike. The route counters are exact: hits, misses and
// nodes settled per miss (the search size of a first-contact route).
// After the warm-up, both runs route once from the Internet hub to the
// last building's gateway, a pair the window never routes. That first
// miss builds the network's zone index (an O(nodes + links) pass) before
// the clock starts, so neither run charges it to the window.
//
// Scope: at this load every request is served inside its own building, so
// each route miss is an intra-building first-contact route (gateway,
// servers, device). No request is handed to a federation peer and no miss
// crosses the Internet hub: the `handed_off` column counts the requests a
// cluster passed to a peer or the datacenter, and reads 0. The
// hub-crossing case and its O(buildings) adjacency scan (DESIGN.md
// section 16) are therefore not measured here. Each cluster peers with its
// two ring neighbours: a full mesh at 1e4 buildings would be 1e8 peer
// pointers of wiring, and with no peer traffic the federation degree does
// not change a single route.
//
// Usage: bench_request_path [buildings ...]   (default: 100 1000 10000)
// Output: a console table plus BENCH_request.json (path overridable with
// DF3_BENCH_JSON). The CI smoke runs 100 and 10000 and gates on the
// nodes-settled-per-miss ratio between them, which is deterministic; the
// timing ratio is printed, not gated.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "df3/core/platform.hpp"
#include "df3/net/network.hpp"
#include "df3/thermal/calendar.hpp"
#include "df3/util/units.hpp"
#include "df3/workload/generators.hpp"

namespace {

using namespace df3;

constexpr int kRoomsPerBuilding = 2;
constexpr std::size_t kRequests = 20000;
constexpr double kWarmupS = 600.0;
constexpr double kWindowS = 3600.0;
/// A 10-minute physics tick keeps the window's tick cost (the idle run)
/// small beside the request path at 1e4 buildings.
constexpr double kTickS = 600.0;
constexpr int kRounds = 5;
constexpr std::size_t kFederationDegree = 2;
/// Request ids live in their own high-bit namespace.
constexpr std::uint64_t kIdTag = 0xB0A7ULL << 48;

struct Arrival {
  double t;  ///< seconds into the window
  std::size_t building;
  bool direct;
};

/// The window's arrivals: uniform instants, Zipf (s = 1) buildings.
std::vector<Arrival> zipf_arrivals(std::size_t buildings, std::uint64_t seed) {
  std::vector<double> cdf(buildings);
  double sum = 0.0;
  for (std::size_t i = 0; i < buildings; ++i) cdf[i] = sum += 1.0 / static_cast<double>(i + 1);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Arrival> out(kRequests);
  for (Arrival& a : out) {
    a.t = unit(rng) * kWindowS;
    const double x = unit(rng) * sum;
    a.building = std::min<std::size_t>(
        static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin()),
        buildings - 1);
    a.direct = unit(rng) < 0.1;
  }
  std::sort(out.begin(), out.end(), [](const Arrival& l, const Arrival& r) { return l.t < r.t; });
  return out;
}

struct RunResult {
  double window_s = 0.0;  ///< host time of the window
  std::uint64_t hits = 0, misses = 0, settled = 0;
  std::uint64_t completed = 0;
  std::uint64_t handed_off = 0;  ///< horizontal + vertical offloads
};

RunResult run_city(std::size_t buildings, const std::vector<Arrival>* arrivals) {
  core::PlatformConfig pc;
  pc.seed = 2018;
  pc.start_time = thermal::start_of_month(0);
  pc.climate = thermal::paris_climate();
  pc.tick_s = kTickS;
  pc.threads = 1;
  pc.federation_degree = kFederationDegree;
  pc.regulator.gating = core::GatingPolicy::kKeepWarm;
  core::Df3Platform city(pc);
  for (std::size_t i = 0; i < buildings; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = kRoomsPerBuilding;
    city.add_building(b);
  }
  (void)city.cluster(0);  // wire the federation outside the window
  city.run(util::Seconds{kWarmupS});

  const net::Network& netw = city.network();
  (void)netw.route(netw.node("internet"), netw.node("b" + std::to_string(buildings - 1) + "/gw"),
                   util::Bytes{1.0});
  const std::uint64_t hits0 = netw.route_cache_hits();
  const std::uint64_t misses0 = netw.route_cache_misses();
  const std::uint64_t settled0 = netw.route_nodes_settled();
  const double t0 = city.now();
  workload::RequestFactory alarm = workload::alarm_detection_factory();
  workload::RequestFactory fall = workload::fall_detection_factory();
  util::RngStream rng(pc.seed, "bench_request_path/requests");
  std::uint64_t next_id = 0;

  const auto start = std::chrono::steady_clock::now();
  if (arrivals != nullptr) {
    for (const Arrival& a : *arrivals) {
      city.run(util::Seconds{std::max(0.0, t0 + a.t - city.now())});
      workload::Request r = a.direct ? fall(rng) : alarm(rng);
      r.id = kIdTag | next_id++;
      city.inject_edge(a.building, std::move(r), a.direct);
    }
  }
  city.run(util::Seconds{std::max(0.0, t0 + kWindowS - city.now())});
  const auto stop = std::chrono::steady_clock::now();

  RunResult res;
  res.window_s = std::chrono::duration<double>(stop - start).count();
  res.hits = netw.route_cache_hits() - hits0;
  res.misses = netw.route_cache_misses() - misses0;
  res.settled = netw.route_nodes_settled() - settled0;
  res.completed = city.auditor().completed();
  for (std::size_t b = 0; b < city.building_count(); ++b) {
    const core::ClusterStats& s = city.cluster(b).stats();
    res.handed_off += s.offloaded_horizontal_out + s.offloaded_vertical;
  }
  return res;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Row {
  std::size_t buildings = 0;
  double ns_per_request = 0.0;
  double window_ms = 0.0, idle_window_ms = 0.0;
  RunResult counts;
  [[nodiscard]] double settled_per_miss() const {
    return counts.misses == 0 ? 0.0
                              : static_cast<double>(counts.settled) /
                                    static_cast<double>(counts.misses);
  }
};

Row measure(std::size_t buildings) {
  const std::vector<Arrival> arrivals = zipf_arrivals(buildings, 20181017);
  std::vector<double> loaded, idle;
  Row row;
  row.buildings = buildings;
  for (int round = 0; round < kRounds; ++round) {
    const RunResult with = run_city(buildings, &arrivals);
    const RunResult without = run_city(buildings, nullptr);
    loaded.push_back(with.window_s);
    idle.push_back(without.window_s);
    row.counts = with;  // exact, identical every round
  }
  row.window_ms = median(loaded) * 1e3;
  row.idle_window_ms = median(idle) * 1e3;
  row.ns_per_request = (median(loaded) - median(idle)) * 1e9 / static_cast<double>(kRequests);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes;
  for (int i = 1; i < argc; ++i) {
    const long long v = std::strtoll(argv[i], nullptr, 10);
    if (v <= 0) {
      std::fprintf(stderr, "usage: %s [buildings ...]  (positive counts)\n", argv[0]);
      return 2;
    }
    sizes.push_back(static_cast<std::size_t>(v));
  }
  if (sizes.empty()) sizes = {100, 1000, 10000};

  std::printf("Request path: %zu Zipf-spread edge requests over %.0f simulated s, %d rooms per "
              "building, median of %d interleaved rounds\n\n",
              kRequests, kWindowS, kRoomsPerBuilding, kRounds);
  std::printf("%10s %12s %11s %11s %8s %8s %10s %10s %11s\n", "buildings", "ns/request",
              "window_ms", "idle_ms", "hits", "misses", "settled", "per_miss", "handed_off");
  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    const Row r = measure(n);
    std::printf("%10zu %12.0f %11.1f %11.1f %8llu %8llu %10llu %10.2f %11llu\n", r.buildings,
                r.ns_per_request, r.window_ms, r.idle_window_ms,
                static_cast<unsigned long long>(r.counts.hits),
                static_cast<unsigned long long>(r.counts.misses),
                static_cast<unsigned long long>(r.counts.settled), r.settled_per_miss(),
                static_cast<unsigned long long>(r.counts.handed_off));
    std::fflush(stdout);
    rows.push_back(r);
  }

  const char* env = std::getenv("DF3_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_request.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"bench_request_path\",\n  \"requests\": " << kRequests
      << ",\n  \"rooms_per_building\": " << kRoomsPerBuilding
      << ",\n  \"federation_degree\": " << kFederationDegree << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"buildings\": " << r.buildings << ", \"ns_per_request\": " << r.ns_per_request
        << ", \"window_ms\": " << r.window_ms
        << ", \"idle_window_ms\": " << r.idle_window_ms << ", \"route_hits\": " << r.counts.hits
        << ", \"route_misses\": " << r.counts.misses
        << ", \"nodes_settled\": " << r.counts.settled
        << ", \"nodes_settled_per_miss\": " << r.settled_per_miss()
        << ", \"completed\": " << r.counts.completed
        << ", \"handed_off\": " << r.counts.handed_off << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
