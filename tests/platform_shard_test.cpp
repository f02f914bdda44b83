/// \file platform_shard_test.cpp
/// \brief Shard-boundary determinism and substep accounting.
///
/// The sharded fleet kernel (DESIGN.md section 8) promises, on top of the
/// golden pins in platform_determinism_test, that the shard map is a pure
/// performance knob: any shard_rooms value and any thread count produce
/// identical telemetry and end state, even with buildings of mixed room
/// counts and mixed 1R1C/2R2C fidelity straddling every shard boundary.
/// It also pins the exact 2R2C substep count the platform reports.

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "df3/df3.hpp"

namespace df3 {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Digest {
  std::uint64_t csv_hash = 0;
  std::uint64_t raw_hash = 0;
  bool operator==(const Digest& o) const {
    return csv_hash == o.csv_hash && raw_hash == o.raw_hash;
  }
};

Digest digest_of(core::Df3Platform& city) {
  std::ostringstream csv;
  city.export_series_csv(csv);
  std::string raw;
  const auto put = [&raw](double v) {
    raw.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (std::size_t b = 0; b < city.building_count(); ++b) {
    for (std::size_t r = 0; r < 64; ++r) {
      try {
        put(city.room_temperature(b, r).value());
      } catch (const std::out_of_range&) {
        break;
      }
    }
  }
  put(city.df_energy().it().value());
  put(city.regulator_relative_error());
  return Digest{fnv1a(csv.str()), fnv1a(raw)};
}

/// Eight buildings, 36 rooms total, irregular sizes so every shard_rooms
/// value below splits mid-building-run; every third building uses the 2R2C
/// model so vector-kernel dispatch changes across shard boundaries too.
constexpr int kRooms[] = {3, 5, 8, 2, 7, 4, 6, 1};

core::PlatformConfig mixed_city_config(int month, core::GatingPolicy policy,
                                       std::size_t shard_rooms) {
  core::PlatformConfig pc;
  pc.seed = 2016;
  pc.start_time = thermal::start_of_month(month);
  pc.climate = thermal::paris_climate();
  pc.regulator.gating = policy;
  pc.shard_rooms = shard_rooms;
  // Full audit: every tick also sweeps each cluster's structural invariants.
  pc.audit = metrics::AuditLevel::kFull;
  return pc;
}

void populate_mixed_city(core::Df3Platform& city) {
  for (std::size_t i = 0; i < std::size(kRooms); ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = kRooms[i];
    b.high_fidelity_rooms = (i % 3 == 2);
    city.add_building(b);
  }
  city.set_cloud_routing("df-first");
  city.add_edge_source(0, workload::alarm_detection_factory(), 0.02);
  city.add_cloud_source(workload::risk_simulation_factory(), 1.0 / 900.0);
}

struct RunResult {
  Digest digest;
  std::uint64_t violations = 0;
  std::uint64_t parallel_ticks = 0;
};

/// Build, run and tear down one mixed city in place (Df3Platform is not
/// movable — its event sources capture `this`), returning the digests and
/// audit and execution-shape counts.
RunResult run_mixed_city(int month, core::GatingPolicy policy, std::size_t shard_rooms,
                         std::size_t threads) {
  core::PlatformConfig pc = mixed_city_config(month, policy, shard_rooms);
  pc.threads = threads;
  core::Df3Platform city(pc);
  populate_mixed_city(city);
  city.run(util::days(7.0));
  RunResult r;
  r.digest = digest_of(city);
  r.violations = city.auditor().violation_count();
  r.parallel_ticks = city.lane_parallel_ticks();
  return r;
}

TEST(ShardMap, GreedyPackingYieldsExpectedShardCounts) {
  // 36 rooms across {3,5,8,2,7,4,6,1}: one fat shard, a 3-way split, and
  // the fully exploded one-building-per-shard map.
  const struct {
    std::size_t shard_rooms;
    std::size_t expected;
  } cases[] = {{4096, 1}, {12, 3}, {1, 8}};
  for (const auto& c : cases) {
    core::Df3Platform city(
        mixed_city_config(0, core::GatingPolicy::kKeepWarm, c.shard_rooms));
    populate_mixed_city(city);
    EXPECT_EQ(city.shard_count(), c.expected) << "shard_rooms=" << c.shard_rooms;
  }
}

TEST(ShardDeterminism, DigestInvariantAcrossShardSizesAndThreads) {
  // July, so heaters idle off-season. Reference: one shard, serial — the
  // configuration closest to the pre-shard kernel.
  const RunResult ref = run_mixed_city(6, core::GatingPolicy::kKeepWarm, 4096, 1);
  for (const std::size_t shard_rooms : {std::size_t{4096}, std::size_t{12}, std::size_t{1}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("shard_rooms=" + std::to_string(shard_rooms) +
                   " threads=" + std::to_string(threads));
      const RunResult r = run_mixed_city(6, core::GatingPolicy::kKeepWarm, shard_rooms, threads);
      EXPECT_TRUE(r.digest == ref.digest);
      EXPECT_EQ(r.violations, 0u);
      // threads = 1 is the fused serial sweep on any host; more threads
      // on a multi-shard city run staged.
      if (threads == 1 || shard_rooms == 4096) {
        EXPECT_EQ(r.parallel_ticks, 0u);
      } else {
        EXPECT_GT(r.parallel_ticks, 0u);
      }
    }
  }
}

TEST(ShardDeterminism, WinterDigestInvariantAcrossShardSizes) {
  // Heating season: the full thermostat -> regulate chain drives every
  // room in every configuration.
  const RunResult ref = run_mixed_city(0, core::GatingPolicy::kKeepWarm, 4096, 1);
  for (const std::size_t shard_rooms : {std::size_t{12}, std::size_t{1}}) {
    SCOPED_TRACE("shard_rooms=" + std::to_string(shard_rooms));
    const RunResult r = run_mixed_city(0, core::GatingPolicy::kKeepWarm, shard_rooms, 8);
    EXPECT_TRUE(r.digest == ref.digest);
  }
}

TEST(SubstepAccounting, CountsEveryFullSubstepOfEvery2R2CBuilding) {
  // Stiff 2R2C rooms with power-of-two resistances, so each substep
  // schedule over the 60 s tick is exact: tau_air = R_ae * C_air and the
  // stable step is tau_air / 10. 2 s steps give 29 full substeps plus a
  // 2 s tail; 5 s steps give 11 plus a 5 s tail. The 1R1C buildings add
  // none, so every tick runs 29 + 11 = 40 full substeps.
  constexpr std::uint64_t kFullPerTick = 29 + 11;
  constexpr std::uint64_t kTicks = 30;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::PlatformConfig pc = mixed_city_config(6, core::GatingPolicy::kKeepWarm, 2);
    pc.threads = threads;
    core::Df3Platform city(pc);
    const struct {
      int rooms;
      double c_air_j_per_k;  // 0 = 1R1C
    } buildings[] = {{3, 0.0}, {2, 1280.0}, {4, 0.0}, {3, 3200.0}};
    for (const auto& spec : buildings) {
      core::BuildingConfig b;
      b.name = "b" + std::to_string(city.building_count());
      b.rooms = spec.rooms;
      if (spec.c_air_j_per_k > 0.0) {
        b.high_fidelity_rooms = true;
        b.room_2r2c.r_air_env_k_per_w = 1.0 / 64.0;
        b.room_2r2c.c_air_j_per_k = spec.c_air_j_per_k;
      }
      city.add_building(b);
    }
    // Half a tick past the last one, so the run ends between ticks.
    city.run(util::Seconds{(static_cast<double>(kTicks) + 0.5) * pc.tick_s});
    EXPECT_EQ(city.district_ticks(), kTicks * city.shard_count());
    EXPECT_EQ(city.substeps_run(), kTicks * kFullPerTick);
    EXPECT_EQ(city.substeps_skipped(), 0u);
    EXPECT_EQ(city.gated_district_ticks(), 0u);
  }
}

}  // namespace
}  // namespace df3
