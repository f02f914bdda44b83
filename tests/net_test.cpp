// Tests for the network substrate: protocol profiles, routing, queuing,
// partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "df3/net/network.hpp"
#include "df3/net/protocol.hpp"

namespace net = df3::net;
namespace u = df3::util;
using df3::sim::Simulation;

// ------------------------------------------------------------- profiles ---

TEST(LinkProfile, SerializationIncludesOverheadAndFragmentation) {
  const auto eth = net::ethernet_lan();
  // 1 frame: (1000 + 66) bytes at 1 Gb/s.
  EXPECT_NEAR(eth.serialization_time(u::bytes(1000.0)).value(), 1066.0 * 8.0 / 1e9, 1e-12);
  // 100 KiB fragments into ceil(102400/65536) = 2 frames.
  EXPECT_NEAR(eth.serialization_time(u::kibibytes(100.0)).value(),
              (102400.0 + 2 * 66.0) * 8.0 / 1e9, 1e-12);
}

TEST(LinkProfile, DutyCycleThrottlesLora) {
  const auto l = net::lora();
  const auto raw_like = net::LinkProfile{"lora-raw", l.bandwidth, l.base_latency, l.max_payload,
                                         l.frame_overhead, 1.0};
  EXPECT_NEAR(l.serialization_time(u::bytes(100.0)).value(),
              raw_like.serialization_time(u::bytes(100.0)).value() * 100.0, 1e-9);
}

TEST(LinkProfile, LatencyOrderingAcrossTechnologies) {
  // For a small edge payload the protocol ordering the paper relies on
  // must hold: LAN < ZigBee < LoRa < Sigfox.
  const auto payload = u::bytes(64.0);
  const double lan = net::ethernet_lan().one_hop_delay(payload).value();
  const double zb = net::zigbee().one_hop_delay(payload).value();
  const double lr = net::lora().one_hop_delay(payload).value();
  const double sf = net::sigfox().one_hop_delay(payload).value();
  EXPECT_LT(lan, zb);
  EXPECT_LT(zb, lr);
  EXPECT_LT(lr, sf);
}

TEST(LinkProfile, ZeroByteMessageStillPaysOneFrame) {
  const auto zb = net::zigbee();
  EXPECT_GT(zb.serialization_time(u::bytes(0.0)).value(), 0.0);
}

TEST(LinkProfile, RejectsInvalid) {
  net::LinkProfile p = net::ethernet_lan();
  EXPECT_THROW((void)p.serialization_time(u::bytes(-1.0)), std::invalid_argument);
  p.duty_cycle = 0.0;
  EXPECT_THROW((void)p.serialization_time(u::bytes(1.0)), std::invalid_argument);
}

// -------------------------------------------------------------- network ---

namespace {
/// Small fixture: device --zigbee-- gateway --lan-- worker --fiber-- cloud.
struct Chain {
  Simulation sim;
  net::Network netw{sim, "chain"};
  net::NodeId device, gateway, worker, cloud;
  std::size_t l_dev, l_lan, l_wan;

  Chain() {
    device = netw.add_node("device");
    gateway = netw.add_node("gateway");
    worker = netw.add_node("worker");
    cloud = netw.add_node("cloud");
    l_dev = netw.add_link(device, gateway, net::zigbee());
    l_lan = netw.add_link(gateway, worker, net::ethernet_lan());
    l_wan = netw.add_link(worker, cloud, net::fiber_wan());
  }
};
}  // namespace

TEST(Network, NodeLookup) {
  Chain c;
  EXPECT_EQ(c.netw.node("device"), c.device);
  EXPECT_EQ(c.netw.node_name(c.cloud), "cloud");
  EXPECT_EQ(c.netw.node_count(), 4u);
  EXPECT_THROW((void)c.netw.node("nope"), std::out_of_range);
  EXPECT_THROW((void)c.netw.add_node("device"), std::invalid_argument);
}

TEST(Network, RouteFollowsChain) {
  Chain c;
  const auto path = c.netw.route(c.device, c.cloud, u::bytes(64.0));
  EXPECT_EQ(path, (std::vector<std::size_t>{c.l_dev, c.l_lan, c.l_wan}));
  EXPECT_TRUE(c.netw.route(c.device, c.device, u::bytes(1.0)).empty());
}

TEST(Network, UnloadedDelayIsSumOfHops) {
  Chain c;
  const auto size = u::bytes(64.0);
  const auto d = c.netw.unloaded_delay(c.device, c.worker, size);
  ASSERT_TRUE(d.has_value());
  const double expect = net::zigbee().one_hop_delay(size).value() +
                        net::ethernet_lan().one_hop_delay(size).value();
  EXPECT_NEAR(d->value(), expect, 1e-12);
}

TEST(Network, DeliveryEventMatchesUnloadedDelayWhenIdle) {
  Chain c;
  const net::Message m{c.device, c.worker, u::bytes(64.0), 1};
  double delivered_at = -1.0;
  c.netw.send(m, [&](double t) { delivered_at = t; });
  c.sim.run();
  const auto d = c.netw.unloaded_delay(c.device, c.worker, m.size);
  EXPECT_NEAR(delivered_at, d->value(), 1e-12);
  EXPECT_EQ(c.netw.messages_sent(), 1u);
}

TEST(Network, QueuingDelaysBackToBackMessages) {
  Chain c;
  // Two large messages on the slow zigbee hop: the second queues behind
  // the first's serialization.
  const net::Message m{c.device, c.gateway, u::kibibytes(10.0), 0};
  std::vector<double> deliveries;
  c.netw.send(m, [&](double t) { deliveries.push_back(t); });
  c.netw.send(m, [&](double t) { deliveries.push_back(t); });
  c.sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const double ser = net::zigbee().serialization_time(m.size).value();
  EXPECT_NEAR(deliveries[1] - deliveries[0], ser, 1e-9);
}

TEST(Network, DirectionsDoNotContend) {
  Chain c;
  const net::Message fwd{c.device, c.gateway, u::kibibytes(10.0), 0};
  const net::Message rev{c.gateway, c.device, u::kibibytes(10.0), 0};
  std::vector<double> deliveries;
  c.netw.send(fwd, [&](double t) { deliveries.push_back(t); });
  c.netw.send(rev, [&](double t) { deliveries.push_back(t); });
  c.sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[0], deliveries[1], 1e-9);  // full duplex
}

TEST(Network, LoopbackDeliversImmediately) {
  Chain c;
  double delivered_at = -1.0;
  c.netw.send({c.device, c.device, u::mebibytes(10.0), 0}, [&](double t) { delivered_at = t; });
  c.sim.run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.0);
}

TEST(Network, PartitionDropsAndRestores) {
  Chain c;
  c.netw.set_link_up(c.l_lan, false);
  bool dropped = false;
  double delivered_at = -1.0;
  c.netw.send({c.device, c.cloud, u::bytes(64.0), 0}, [&](double t) { delivered_at = t; },
              [&] { dropped = true; });
  c.sim.run();
  EXPECT_TRUE(dropped);
  EXPECT_DOUBLE_EQ(delivered_at, -1.0);
  EXPECT_EQ(c.netw.messages_dropped(), 1u);

  c.netw.set_link_up(c.l_lan, true);
  c.netw.send({c.device, c.cloud, u::bytes(64.0), 0}, [&](double t) { delivered_at = t; });
  c.sim.run();
  EXPECT_GT(delivered_at, 0.0);
}

TEST(Network, RoutePrefersFasterPath) {
  Simulation sim;
  net::Network n(sim, "tri");
  const auto a = n.add_node("a");
  const auto b = n.add_node("b");
  const auto cnode = n.add_node("c");
  n.add_link(a, b, net::lora());  // slow direct
  const auto fast1 = n.add_link(a, cnode, net::ethernet_lan());
  const auto fast2 = n.add_link(cnode, b, net::ethernet_lan());
  const auto path = n.route(a, b, u::bytes(64.0));
  EXPECT_EQ(path, (std::vector<std::size_t>{fast1, fast2}));
}

TEST(Network, StatsAccumulate) {
  Chain c;
  const net::Message m{c.device, c.gateway, u::bytes(100.0), 0};
  c.netw.send(m, [](double) {});
  c.netw.send(m, [](double) {});
  c.sim.run();
  const auto& st = c.netw.stats(c.l_dev);
  EXPECT_EQ(st.messages, 2u);
  EXPECT_DOUBLE_EQ(st.bytes, 200.0);
  EXPECT_GT(st.busy_seconds, 0.0);
}

TEST(Network, Validation) {
  Simulation sim;
  net::Network n(sim, "v");
  const auto a = n.add_node("a");
  EXPECT_THROW((void)n.add_link(a, a, net::ethernet_lan()), std::invalid_argument);
  EXPECT_THROW((void)n.add_link(a, 42, net::ethernet_lan()), std::out_of_range);
  EXPECT_THROW(n.send({a, a, u::bytes(1.0), 0}, nullptr), std::invalid_argument);
  EXPECT_THROW((void)n.route(a, 42, u::bytes(1.0)), std::out_of_range);
}

TEST(Network, SegmentedVsSharedLanContention) {
  // E10 micro-version: an edge message behind a bulk DCC transfer on a
  // shared LAN waits; on a segmented (dedicated) LAN it does not.
  Simulation sim;
  net::Network shared(sim, "shared");
  const auto s_src = shared.add_node("src");
  const auto s_dst = shared.add_node("dst");
  shared.add_link(s_src, s_dst, net::ethernet_lan());
  double bulk_done = -1.0, edge_done = -1.0;
  shared.send({s_src, s_dst, u::mebibytes(500.0), 0}, [&](double t) { bulk_done = t; });
  shared.send({s_src, s_dst, u::bytes(200.0), 0}, [&](double t) { edge_done = t; });
  sim.run();
  EXPECT_GT(edge_done, 1.0);  // ~4 s stuck behind the bulk transfer

  Simulation sim2;
  net::Network seg(sim2, "segmented");
  const auto e_src = seg.add_node("src");
  const auto e_dst = seg.add_node("dst");
  seg.add_link(e_src, e_dst, net::ethernet_lan());
  double edge_done2 = -1.0;
  seg.send({e_src, e_dst, u::bytes(200.0), 0}, [&](double t) { edge_done2 = t; });
  sim2.run();
  EXPECT_LT(edge_done2, 0.001);
}

// ----------------------------------------------------------- route memo ---

namespace {
/// The test's own copy of the topology, routed by a from-scratch Dijkstra
/// with the network's tie-break rules (adjacency in link-insertion order,
/// strict improvement, (delay, node) heap order) — so every memoized
/// route, equal-cost ties included, must match it exactly.
struct MirrorLink {
  net::NodeId a, b;
  net::LinkProfile profile;
  bool up = true;
};

std::vector<std::size_t> reference_route(std::size_t nodes, const std::vector<MirrorLink>& links,
                                         net::NodeId src, net::NodeId dst, u::Bytes size) {
  if (src == dst) return {};
  std::vector<std::vector<std::size_t>> adj(nodes);
  for (std::size_t i = 0; i < links.size(); ++i) {
    adj[links[i].a].push_back(i);
    adj[links[i].b].push_back(i);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes, kInf);
  std::vector<std::size_t> via_link(nodes, SIZE_MAX);
  std::vector<net::NodeId> via_node(nodes, 0);
  using Item = std::pair<double, net::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, x] = heap.top();
    heap.pop();
    if (d > dist[x]) continue;
    if (x == dst) break;
    for (const std::size_t li : adj[x]) {
      const MirrorLink& l = links[li];
      if (!l.up) continue;
      const net::NodeId y = (l.a == x) ? l.b : l.a;
      const double w = l.profile.one_hop_delay(size).value();
      if (d + w < dist[y]) {
        dist[y] = d + w;
        via_link[y] = li;
        via_node[y] = x;
        heap.emplace(dist[y], y);
      }
    }
  }
  std::vector<std::size_t> path;
  if (dist[dst] == kInf) return path;
  for (net::NodeId cur = dst; cur != src; cur = via_node[cur]) path.push_back(via_link[cur]);
  std::reverse(path.begin(), path.end());
  return path;
}

/// A seeded random topology mirrored link-for-link: a mix of link
/// technologies (so the best route depends on the payload size), with
/// equal-cost parallel links and equal-cost two-hop diamonds.
struct RandomTopology {
  Simulation sim;
  net::Network netw{sim, "random"};
  std::vector<MirrorLink> links;
  std::mt19937_64 rng;
  std::size_t nodes;

  RandomTopology(std::uint64_t seed, std::size_t n) : rng(seed), nodes(n) {
    for (std::size_t i = 0; i < n; ++i) netw.add_node("n" + std::to_string(i));
    // A spanning chain keeps most pairs reachable; random chords add choice.
    for (std::size_t i = 1; i < n; ++i) add(static_cast<net::NodeId>(i - 1), static_cast<net::NodeId>(i));
    for (std::size_t i = 0; i < n; ++i) add_random();
  }

  net::LinkProfile random_profile() {
    switch (pick(6)) {
      case 0: return net::ethernet_lan();
      case 1: return net::zigbee();
      case 2: return net::wifi();
      case 3: return net::fiber_wan();
      case 4: return net::lora();
      default: return net::adsl_wan();
    }
  }
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng() % n); }
  net::NodeId node() { return static_cast<net::NodeId>(pick(nodes)); }

  void add(net::NodeId a, net::NodeId b) { add(a, b, random_profile()); }
  void add(net::NodeId a, net::NodeId b, const net::LinkProfile& p) {
    EXPECT_EQ(netw.add_link(a, b, p), links.size());
    links.push_back({a, b, p, true});
  }
  void add_random() {
    net::NodeId a = node(), b = node();
    while (b == a) b = node();
    const auto p = random_profile();
    switch (pick(3)) {
      case 0:  // equal-cost parallel pair
        add(a, b, p);
        add(a, b, p);
        break;
      case 1: {  // equal-cost diamond a-m-b twice
        net::NodeId m1 = node(), m2 = node();
        if (m1 == a || m1 == b || m2 == a || m2 == b || m1 == m2) {
          add(a, b, p);
          break;
        }
        add(a, m1, p);
        add(m1, b, p);
        add(a, m2, p);
        add(m2, b, p);
        break;
      }
      default:
        add(a, b, p);
    }
  }
  void flap() {
    const std::size_t li = pick(links.size());
    const bool up = pick(2) == 0;  // often a no-op on an already-up link
    netw.set_link_up(li, up);
    links[li].up = up;
  }
  [[nodiscard]] std::vector<std::size_t> expected(net::NodeId s, net::NodeId d,
                                                  u::Bytes size) const {
    return reference_route(nodes, links, s, d, size);
  }
};

const std::array<double, 6> kSizes = {0.0, 64.0, 100.0, 4096.0, 16384.0, 1048576.0};
}  // namespace

TEST(RouteMemo, MatchesReferenceDijkstraUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomTopology t(seed, 40);
    // A small hot set of endpoints, so queries repeat and hit the memo.
    std::vector<net::NodeId> hot;
    for (int i = 0; i < 6; ++i) hot.push_back(t.node());
    for (int op = 0; op < 3000; ++op) {
      const std::size_t r = t.pick(100);
      if (r < 3) {
        t.add_random();
      } else if (r < 12) {
        t.flap();
      } else {
        const net::NodeId s = t.pick(4) == 0 ? t.node() : hot[t.pick(hot.size())];
        const net::NodeId d = t.pick(4) == 0 ? t.node() : hot[t.pick(hot.size())];
        const u::Bytes size = t.pick(10) == 0
                                  ? u::bytes(static_cast<double>(t.pick(200000)))
                                  : u::bytes(kSizes[t.pick(kSizes.size())]);
        ASSERT_EQ(t.netw.route(s, d, size), t.expected(s, d, size))
            << "seed " << seed << " op " << op;
      }
    }
    EXPECT_GT(t.netw.route_cache_hits(), 0u);
    EXPECT_GT(t.netw.route_cache_misses(), 0u);
  }
}

TEST(RouteMemo, UnloadedDelayMatchesSummedHopDelays) {
  RandomTopology t(7, 30);
  for (int i = 0; i < 400; ++i) {
    if (i % 50 == 49) t.flap();
    const net::NodeId s = t.node(), d = t.node();
    const u::Bytes size = u::bytes(kSizes[t.pick(kSizes.size())]);
    const auto got = t.netw.unloaded_delay(s, d, size);
    const auto path = t.expected(s, d, size);
    if (s != d && path.empty()) {
      EXPECT_FALSE(got.has_value());
      continue;
    }
    ASSERT_TRUE(got.has_value());
    double sum = 0.0;
    for (const std::size_t li : path) sum += t.links[li].profile.one_hop_delay(size).value();
    EXPECT_DOUBLE_EQ(got->value(), sum);
  }
}

TEST(RouteMemo, OneTopologyEpochForRoutesAndLookahead) {
  Chain c;
  const auto size = u::bytes(64.0);
  const auto full = c.netw.route(c.device, c.cloud, size);
  EXPECT_EQ(c.netw.route_cache_misses(), 1u);
  EXPECT_EQ(c.netw.route(c.device, c.cloud, size), full);
  EXPECT_EQ(c.netw.route_cache_hits(), 1u);
  const double lookahead = c.netw.min_peer_latency().value();

  // A no-op set_link_up is not a topology change: the memo survives.
  c.netw.set_link_up(c.l_lan, true);
  EXPECT_EQ(c.netw.route(c.device, c.cloud, size), full);
  EXPECT_EQ(c.netw.route_cache_hits(), 2u);
  EXPECT_EQ(c.netw.route_cache_misses(), 1u);

  // A real transition drops it; the unreachable answer is memoized too.
  c.netw.set_link_up(c.l_lan, false);
  EXPECT_TRUE(c.netw.route(c.device, c.cloud, size).empty());
  EXPECT_EQ(c.netw.route_cache_misses(), 2u);
  EXPECT_TRUE(c.netw.route(c.device, c.cloud, size).empty());
  EXPECT_EQ(c.netw.route_cache_hits(), 3u);
  c.netw.set_link_up(c.l_lan, true);
  EXPECT_EQ(c.netw.route(c.device, c.cloud, size), full);
  EXPECT_EQ(c.netw.route_cache_misses(), 3u);

  // A new link is a new epoch for both memos: a faster bypass wins the
  // route and lowers the lookahead bound.
  const auto bypass = c.netw.add_link(c.device, c.cloud, net::ethernet_10g());
  EXPECT_EQ(c.netw.route(c.device, c.cloud, size), (std::vector<std::size_t>{bypass}));
  EXPECT_EQ(c.netw.route_cache_misses(), 4u);
  EXPECT_LT(c.netw.min_peer_latency().value(), lookahead);
  c.netw.set_link_up(bypass, false);
  EXPECT_DOUBLE_EQ(c.netw.min_peer_latency().value(), lookahead);
  EXPECT_EQ(c.netw.route(c.device, c.cloud, size), full);
}

TEST(RouteMemo, EntryCapClearsWithoutChangingResults) {
  Chain c;
  const std::vector<MirrorLink> mirror = {{c.device, c.gateway, net::zigbee()},
                                          {c.gateway, c.worker, net::ethernet_lan()},
                                          {c.worker, c.cloud, net::fiber_wan()}};
  const std::size_t cap = net::Network::kRouteMemoMaxEntries;
  for (std::size_t i = 0; i < cap; ++i) {
    (void)c.netw.route(c.device, c.cloud, u::bytes(static_cast<double>(i)));
  }
  EXPECT_EQ(c.netw.route_cache_misses(), cap);
  EXPECT_EQ(c.netw.route_cache_hits(), 0u);
  // The memo is full: the next query clears it, so even a seen key misses.
  const auto again = c.netw.route(c.device, c.cloud, u::bytes(0.0));
  EXPECT_EQ(again, reference_route(4, mirror, c.device, c.cloud, u::bytes(0.0)));
  EXPECT_EQ(c.netw.route_cache_misses(), cap + 1);
  EXPECT_EQ(c.netw.route(c.device, c.cloud, u::bytes(0.0)), again);
  EXPECT_EQ(c.netw.route_cache_hits(), 1u);
  for (const double s : kSizes) {
    EXPECT_EQ(c.netw.route(c.device, c.cloud, u::bytes(s)),
              reference_route(4, mirror, c.device, c.cloud, u::bytes(s)));
  }
}

TEST(RouteMemo, ArenaCapClearsWithoutChangingResults) {
  // Long paths fill the link-id arena long before the entry cap.
  Simulation sim;
  net::Network n(sim, "line");
  constexpr std::size_t kNodes = 257;
  std::vector<MirrorLink> mirror;
  for (std::size_t i = 0; i < kNodes; ++i) n.add_node("n" + std::to_string(i));
  for (std::size_t i = 1; i < kNodes; ++i) {
    const auto a = static_cast<net::NodeId>(i - 1), b = static_cast<net::NodeId>(i);
    n.add_link(a, b, net::ethernet_lan());
    mirror.push_back({a, b, net::ethernet_lan()});
  }
  const net::NodeId last = kNodes - 1;
  const std::size_t fill = net::Network::kRouteArenaMaxIds / (kNodes - 1);
  ASSERT_LT(fill, net::Network::kRouteMemoMaxEntries);
  for (std::size_t i = 0; i < fill; ++i) {
    (void)n.route(0, last, u::bytes(static_cast<double>(i)));
  }
  EXPECT_EQ(n.route_cache_misses(), fill);
  EXPECT_EQ(n.route(0, last, u::bytes(0.0)), reference_route(kNodes, mirror, 0, last, u::bytes(0.0)));
  EXPECT_EQ(n.route_cache_misses(), fill + 1);
  EXPECT_EQ(n.route_cache_hits(), 0u);
  EXPECT_EQ(n.route(0, last, u::bytes(0.0)).size(), kNodes - 1);
  EXPECT_EQ(n.route_cache_hits(), 1u);
}

TEST(RouteMemo, WarmMemoStillValidatesAndDrops) {
  Chain c;
  const auto size = u::bytes(64.0);
  (void)c.netw.route(c.device, c.cloud, size);
  (void)c.netw.route(c.device, c.cloud, size);
  const auto hits = c.netw.route_cache_hits();
  const auto misses = c.netw.route_cache_misses();
  EXPECT_THROW((void)c.netw.route(c.device, 42, size), std::out_of_range);
  EXPECT_THROW((void)c.netw.route(42, c.cloud, size), std::out_of_range);
  EXPECT_THROW((void)c.netw.route(c.device, c.cloud, u::bytes(-1.0)), std::invalid_argument);
  EXPECT_THROW((void)c.netw.unloaded_delay(c.device, c.cloud, u::bytes(-1.0)),
               std::invalid_argument);
  EXPECT_THROW(c.netw.send({c.device, c.cloud, u::bytes(-1.0), 0}, [](double) {}),
               std::invalid_argument);
  EXPECT_THROW(c.netw.send({c.device, 42, size, 0}, [](double) {}), std::out_of_range);
  EXPECT_EQ(c.netw.route_cache_hits(), hits);
  EXPECT_EQ(c.netw.route_cache_misses(), misses);

  // Every send over a memoized partition still fires on_drop.
  c.netw.set_link_up(c.l_wan, false);
  int drops = 0;
  for (int i = 0; i < 3; ++i) {
    c.netw.send({c.device, c.cloud, size, 0}, [](double) { FAIL() << "delivered"; },
                [&] { ++drops; });
  }
  c.sim.run();
  EXPECT_EQ(drops, 3);
  EXPECT_EQ(c.netw.messages_dropped(), 3u);
  EXPECT_EQ(c.netw.route_cache_hits(), hits + 2);
}
