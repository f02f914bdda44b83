// E16 — grid-aware economics: €/job and gCO2/job per decision policy
// (paper §III-B; PAPERS.md arXiv 2303.10572, arXiv 1805.01765).
//
// The urban-integration argument is that a building fleet should react to
// the grid it sits on. This harness extends the e13 economics with the
// grid-signal plane: a two-region city (hydro-backed "green" vs
// fossil-heavy "dirty", the bundled demo trace) runs the same workload
// under every routing policy, with and without the grid-shed rung armed
// behind a demand-response injector on the dirty region. Each (routing x
// ladder) point reports fleet kWh, €/job and gCO2/job attributed at spend
// time by region signal.
//
// Expected shape: carbon-aware routing beats least-loaded on gCO2/job
// (it steers cloud work to the green region), price-aware beats it on
// €/job, and the shed ladder trims kWh during curtailment windows.
//
// Output: a console table plus BENCH_grid.json (path overridable with
// DF3_BENCH_JSON) with one row per policy point.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

struct Row {
  std::string routing;
  std::string ladder;
  std::uint64_t jobs = 0;
  std::uint64_t windows = 0;
  double it_kwh = 0.0;
  double cost_eur = 0.0;
  double co2_g = 0.0;
  double eur_per_job() const { return jobs > 0 ? cost_eur / static_cast<double>(jobs) : 0.0; }
  double gco2_per_job() const { return jobs > 0 ? co2_g / static_cast<double>(jobs) : 0.0; }
};

Row run_point(const std::string& routing, const std::string& ladder, bool shed_events) {
  using namespace df3;
  core::PlatformConfig base;
  base.seed = 47;
  base.start_time = thermal::start_of_month(0);  // winter: fleet powered, heat wanted
  base.regulator.gating = core::GatingPolicy::kKeepWarm;
  base.cluster.edge_peak_ladder = policy::Registry::split_list(ladder);
  base.cluster.peer_select = "greenest";
  core::Df3Platform city(std::move(base));
  for (int i = 0; i < 6; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = 4;
    b.grid_region = (i % 2 == 0) ? "green" : "dirty";
    city.add_building(b);
  }
  city.set_cloud_routing(routing);
  city.install_grid(grid::two_region_demo_plane());
  // Cloud-dominated workload: routing decides which region's chassis burn
  // the compute joules, which is exactly what the per-region attribution
  // should expose.
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 600.0);

  // Demand-response on the dirty region: while curtailed, grid-shed (when
  // armed on the ladder) sheds the gated half of each dirty-region fleet.
  std::unique_ptr<core::GridEventSource> source;
  if (shed_events) {
    const std::size_t r = city.grid_plane()->region_index("dirty");
    std::vector<core::Cluster*> clusters;
    for (std::size_t b = 0; b < city.building_count(); ++b) {
      if (city.building_region(b) == r) clusters.push_back(&city.cluster(b));
    }
    core::GridEventConfig ec;
    ec.region = r;
    ec.mean_up_s = 4.0 * 3600.0;
    ec.mean_down_s = 3600.0;
    ec.shed_fraction = 0.5;
    source = std::make_unique<core::GridEventSource>(city.simulation(), "grid-event/dirty",
                                                     *city.grid_plane(), std::move(clusters), ec,
                                                     util::RngStream(47, "grid-event/dirty"));
    source->start();
  }

  city.run(util::days(3.0));
  if (source) source->stop();

  Row row;
  row.routing = routing;
  row.ladder = ladder;
  row.jobs = city.flow_metrics().overall().completed;
  row.windows = source ? source->windows() : 0;
  row.it_kwh = city.df_energy().it().kwh();
  row.cost_eur = city.df_energy().grid_cost_eur();
  row.co2_g = city.df_energy().grid_co2_g();
  return row;
}

}  // namespace

int main() {
  using namespace df3;
  bench::banner("E16: grid-aware economics — EUR/job and gCO2/job per policy",
                "carbon intensity, dynamic price and renewables as first-class "
                "resource-management inputs, not after-the-fact reports");

  const std::vector<std::string> routings = {"df-first", "least-loaded", "heat-aware",
                                             "carbon-aware", "price-aware"};
  const struct {
    const char* name;
    const char* rungs;
    bool events;
  } ladders[] = {
      {"base", "preempt,delay", false},
      {"shed", "grid-shed,preempt,delay", true},
  };

  std::vector<Row> rows;
  util::Table table({"routing", "ladder", "jobs", "it_kwh", "eur_per_job", "gco2_per_job",
                     "windows"},
                    "two-region winter city, 3 days, demo grid trace");
  table.set_precision(4);
  for (const auto& ladder : ladders) {
    for (const auto& routing : routings) {
      rows.push_back(run_point(routing, ladder.rungs, ladder.events));
      const Row& r = rows.back();
      table.add_row({r.routing + "/" + ladder.name, std::string(ladder.rungs),
                     static_cast<double>(r.jobs), r.it_kwh, r.eur_per_job(), r.gco2_per_job(),
                     static_cast<double>(r.windows)});
    }
  }
  table.print(std::cout);

  // The acceptance check the CI perf tracker watches: routing by carbon
  // intensity must emit less CO2 per completed job than load balancing.
  const auto find = [&rows](const std::string& routing, const std::string& ladder) {
    for (const Row& r : rows) {
      if (r.routing == routing && r.ladder == ladder) return r;
    }
    return Row{};
  };
  const Row carbon = find("carbon-aware", "preempt,delay");
  const Row balanced = find("least-loaded", "preempt,delay");
  std::printf("\ncarbon-aware %.4f gCO2/job vs least-loaded %.4f gCO2/job -> %s\n",
              carbon.gco2_per_job(), balanced.gco2_per_job(),
              carbon.gco2_per_job() < balanced.gco2_per_job() ? "cleaner" : "NOT cleaner");

  const char* env = std::getenv("DF3_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_grid.json";
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"grid_economics/routing:%s/ladder:%s\", \"jobs\": %llu, "
                  "\"it_kwh\": %.6f, \"cost_eur\": %.6f, \"co2_g\": %.6f, "
                  "\"eur_per_job\": %.9g, \"gco2_per_job\": %.9g, \"windows\": %llu}%s\n",
                  r.routing.c_str(), r.ladder.c_str(), static_cast<unsigned long long>(r.jobs),
                  r.it_kwh, r.cost_eur, r.co2_g, r.eur_per_job(), r.gco2_per_job(),
                  static_cast<unsigned long long>(r.windows), i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}
