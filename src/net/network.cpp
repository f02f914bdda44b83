#include "df3/net/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "df3/obs/obs.hpp"

namespace df3::net {

std::size_t Network::RouteKeyHash::operator()(const RouteKey& k) const noexcept {
  // splitmix64 finalizer over the packed endpoints, then over the size bits.
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  const std::uint64_t ends = (std::uint64_t{k.src} << 32) | k.dst;
  return static_cast<std::size_t>(mix(mix(ends) ^ k.size_bits));
}

Network::Network(sim::Simulation& sim, std::string name) : sim::Entity(sim, std::move(name)) {}

NodeId Network::add_node(const std::string& node_name) {
  if (by_name_.contains(node_name)) {
    throw std::invalid_argument("Network::add_node: duplicate name " + node_name);
  }
  const auto id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(node_name);
  by_name_.emplace(node_name, id);
  adjacency_.emplace_back();
  return id;
}

NodeId Network::node(const std::string& node_name) const {
  const auto it = by_name_.find(node_name);
  if (it == by_name_.end()) throw std::out_of_range("Network::node: unknown " + node_name);
  return it->second;
}

const std::string& Network::node_name(NodeId id) const { return node_names_.at(id); }

std::size_t Network::add_link(NodeId a, NodeId b, LinkProfile profile) {
  if (a >= node_names_.size() || b >= node_names_.size()) {
    throw std::out_of_range("Network::add_link: unknown node");
  }
  if (a == b) throw std::invalid_argument("Network::add_link: self loop");
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("Network::add_link: ") + what);
  };
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  const auto non_negative = [](double x) { return std::isfinite(x) && x >= 0.0; };
  require(positive(profile.bandwidth.value()), "bandwidth must be finite and > 0");
  require(profile.duty_cycle > 0.0 && profile.duty_cycle <= 1.0, "duty_cycle outside (0, 1]");
  require(positive(profile.max_payload.value()), "max_payload must be finite and > 0");
  require(non_negative(profile.frame_overhead.value()), "frame_overhead must be finite and >= 0");
  require(non_negative(profile.base_latency.value()), "base_latency must be finite and >= 0");
  links_.push_back(Link{a, b, std::move(profile), true, {0.0, 0.0}, {}});
  const std::size_t idx = links_.size() - 1;
  const auto li = static_cast<std::uint32_t>(idx);
  adjacency_[a].push_back({li, b});
  adjacency_[b].push_back({li, a});
  ++topology_epoch_;
  return idx;
}

void Network::set_link_up(std::size_t link, bool up) {
  Link& l = links_.at(link);
  if (l.up != up) {
    l.up = up;
    ++topology_epoch_;
  }
}
bool Network::link_up(std::size_t link) const { return links_.at(link).up; }

util::Seconds Network::min_peer_latency() const {
  if (min_peer_latency_epoch_ != topology_epoch_) {
    double m = std::numeric_limits<double>::infinity();
    for (const Link& l : links_) {
      if (l.up) m = std::min(m, l.profile.base_latency.value());
    }
    min_peer_latency_cache_ = m;
    min_peer_latency_epoch_ = topology_epoch_;
  }
  return util::Seconds{min_peer_latency_cache_};
}

std::vector<std::size_t> Network::route(NodeId src, NodeId dst, util::Bytes size) const {
  const auto path = cached_route(src, dst, size);
  return {path.begin(), path.end()};
}

std::span<const std::uint32_t> Network::cached_route(NodeId src, NodeId dst,
                                                     util::Bytes size) const {
  if (src >= node_names_.size() || dst >= node_names_.size()) {
    throw std::out_of_range("Network::route: unknown node");
  }
  if (size.value() < 0.0) throw std::invalid_argument("Network::route: negative size");
  if (src == dst) return {};
  if (route_memo_epoch_ != topology_epoch_ || route_memo_.size() >= kRouteMemoMaxEntries ||
      route_arena_.size() >= kRouteArenaMaxIds) {
    route_memo_.clear();
    route_arena_.clear();
    route_memo_epoch_ = topology_epoch_;
  }
  const RouteKey key{src, dst, std::bit_cast<std::uint64_t>(size.value())};
  auto it = route_memo_.find(key);
  if (it != route_memo_.end()) {
    ++route_hits_;
  } else {
    ++route_misses_;
    it = route_memo_.emplace(key, compute_route(src, dst, size)).first;
  }
  return {route_arena_.data() + it->second.offset, it->second.len};
}

Network::RouteSpan Network::compute_route(NodeId src, NodeId dst, util::Bytes size) const {
  if (zones_.epoch != topology_epoch_ || zones_.of_node.size() != node_names_.size()) {
    rebuild_zones();
    zone_slot_.resize(node_names_.size());  // after the rebuild's scratch is freed
  }
  const auto offset = static_cast<std::uint32_t>(route_arena_.size());
  if (!gather_zone(src, dst)) return {offset, 0};
  // Dijkstra over unloaded one-hop delay for this payload size, restricted
  // to the gathered nodes (see the file comment for why it is exact).
  const auto later = std::greater<>{};
  zone_[zone_slot_[src]].dist = 0.0;
  heap_.clear();
  heap_.emplace_back(0.0, src);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > zone_[zone_slot_[u]].dist) continue;
    ++route_settled_;
    if (u == dst) break;
    for (const Adjacent& e : adjacency_[u]) {
      ZoneNode* v = in_zone(e.to);
      if (v == nullptr) continue;
      const Link& l = links_[e.link];
      if (!l.up) continue;
      const double w = l.profile.one_hop_delay(size).value();
      if (d + w < v->dist) {
        v->dist = d + w;
        v->via = e.link;
        heap_.emplace_back(v->dist, e.to);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  if (zone_[zone_slot_[dst]].dist == std::numeric_limits<double>::infinity()) return {offset, 0};
  for (NodeId cur = dst; cur != src;) {
    const std::uint32_t li = zone_[zone_slot_[cur]].via;
    const Link& l = links_[li];
    route_arena_.push_back(li);
    cur = (l.a == cur) ? l.b : l.a;
  }
  std::reverse(route_arena_.begin() + offset, route_arena_.end());
  return {offset, static_cast<std::uint32_t>(route_arena_.size() - offset)};
}

Network::ZoneNode* Network::in_zone(NodeId v) const {
  const std::uint32_t s = zone_slot_[v];
  return s < zone_.size() && zone_[s].node == v ? &zone_[s] : nullptr;
}

bool Network::gather_zone(NodeId src, NodeId dst) const {
  const Zones& z = zones_;
  std::uint32_t a = z.of_node[src];
  std::uint32_t b = z.of_node[dst];
  if (a == kNoZone || b == kNoZone) return false;
  zone_.clear();
  const std::size_t blocks = z.block_begin.size() - 1;
  const auto gather = [&](std::uint32_t t) {
    if (t >= blocks) return;  // a cut vertex: gathered with its blocks
    for (std::uint32_t i = z.block_begin[t]; i < z.block_begin[t + 1]; ++i) {
      const NodeId v = z.block_nodes[i];
      if (in_zone(v) != nullptr) continue;
      zone_slot_[v] = static_cast<std::uint32_t>(zone_.size());
      zone_.push_back({v, 0, std::numeric_limits<double>::infinity()});
    }
  };
  // Climb to the lowest common tree node; two roots mean two components.
  for (; z.depth[a] > z.depth[b]; a = z.parent[a]) gather(a);
  for (; z.depth[b] > z.depth[a]; b = z.parent[b]) gather(b);
  for (; a != b; a = z.parent[a], b = z.parent[b]) {
    if (z.parent[a] == kNoZone) return false;
    gather(a);
    gather(b);
  }
  gather(a);
  return true;
}

void Network::rebuild_zones() const {
  // Iterative Tarjan over link ids (so parallel links are back edges, not
  // the tree edge), with a vertex stack: when a child u of p finishes with
  // low[u] >= disc[p], the stack above u plus p is one block, stored with p
  // last. Until the tree is numbered, `of_node` holds each node's up block:
  // the block holding the link to its DFS parent.
  const auto n = static_cast<NodeId>(node_names_.size());
  Zones& z = zones_;
  z.of_node.assign(n, kNoZone);
  z.block_begin.assign(1, 0);
  z.block_nodes.clear();
  std::vector<std::uint32_t> disc(n, kNoZone), low(n, 0);
  std::vector<std::uint8_t> is_cut(n, 0);
  std::vector<NodeId> vstack;
  struct Frame {
    NodeId node;
    std::uint32_t next;         // next adjacency entry to scan
    std::uint32_t parent_link;  // the tree link into this node
  };
  std::vector<Frame> frames;
  std::uint32_t clock = 0;
  for (NodeId r = 0; r < n; ++r) {
    if (disc[r] != kNoZone) continue;
    disc[r] = low[r] = clock++;
    vstack.push_back(r);
    frames.push_back({r, 0, kNoZone});
    std::uint32_t root_blocks = 0;
    while (!frames.empty()) {
      Frame& f = frames.back();
      const NodeId u = f.node;
      if (f.next < adjacency_[u].size()) {
        const Adjacent e = adjacency_[u][f.next++];
        if (e.link == f.parent_link || !links_[e.link].up) continue;
        if (disc[e.to] == kNoZone) {
          disc[e.to] = low[e.to] = clock++;
          vstack.push_back(e.to);
          frames.push_back({e.to, 0, e.link});
        } else {
          low[u] = std::min(low[u], disc[e.to]);
        }
        continue;
      }
      frames.pop_back();
      if (frames.empty()) break;
      const NodeId p = frames.back().node;
      low[p] = std::min(low[p], low[u]);
      if (low[u] < disc[p]) continue;
      const auto block = static_cast<std::uint32_t>(z.block_begin.size() - 1);
      if (p == r) {
        ++root_blocks;
      } else {
        is_cut[p] = 1;
      }
      NodeId w;
      do {
        w = vstack.back();
        vstack.pop_back();
        z.block_nodes.push_back(w);
        z.of_node[w] = block;
      } while (w != u);
      z.block_nodes.push_back(p);
      z.block_begin.push_back(static_cast<std::uint32_t>(z.block_nodes.size()));
    }
    vstack.pop_back();  // r
    if (root_blocks >= 2) {
      is_cut[r] = 1;
    } else if (root_blocks == 1) {
      z.of_node[r] = static_cast<std::uint32_t>(z.block_begin.size() - 2);  // popped last
    }
  }
  // Tree nodes: blocks first, then one per cut vertex, whose parent is its
  // up block (none at a DFS root).
  const auto blocks = static_cast<std::uint32_t>(z.block_begin.size() - 1);
  std::uint32_t trees = blocks;
  for (NodeId v = 0; v < n; ++v) trees += is_cut[v];
  z.parent.assign(trees, kNoZone);
  z.depth.assign(trees, 0);
  trees = blocks;
  for (NodeId v = 0; v < n; ++v) {
    if (!is_cut[v]) continue;
    z.parent[trees] = z.of_node[v];
    z.of_node[v] = trees++;
  }
  // A block's parent is the cut vertex it hangs from (its last node). A
  // block is popped before the block that vertex hangs from, so reverse pop
  // order visits every parent before its children.
  for (std::uint32_t b = blocks; b-- > 0;) {
    const NodeId t = z.block_nodes[z.block_begin[b + 1] - 1];
    if (!is_cut[t]) continue;  // the root block of its component
    const std::uint32_t c = z.of_node[t];
    z.depth[c] = z.parent[c] == kNoZone ? 0 : z.depth[z.parent[c]] + 1;
    z.parent[b] = c;
    z.depth[b] = z.depth[c] + 1;
  }
  z.epoch = topology_epoch_;
}

std::optional<util::Seconds> Network::unloaded_delay(NodeId src, NodeId dst,
                                                     util::Bytes size) const {
  if (src == dst) return util::Seconds{0.0};
  const auto path = cached_route(src, dst, size);
  if (path.empty()) return std::nullopt;
  util::Seconds total{0.0};
  for (const std::uint32_t li : path) total += links_[li].profile.one_hop_delay(size);
  return total;
}

void Network::send(const Message& msg, std::function<void(sim::Time)> on_delivery,
                   std::function<void()> on_drop) {
  if (!on_delivery) throw std::invalid_argument("Network::send: empty delivery callback");
  if (msg.src == msg.dst) {  // loopback delivers in the same instant
    ++sent_;
    sim().schedule_in(0.0, [cb = std::move(on_delivery), t = now()] { cb(t); });
    return;
  }
  const auto path = cached_route(msg.src, msg.dst, msg.size);
  if (path.empty()) {
    ++dropped_;
    if (on_drop) sim().schedule_in(0.0, std::move(on_drop));
    return;
  }
  ++sent_;
  // Walk the path accumulating queuing + serialization + propagation. Link
  // occupancy is reserved immediately (cut-through per hop).
  sim::Time t = now();
  NodeId at = msg.src;
  for (const std::uint32_t li : path) {
    Link& l = links_[li];
    const std::size_t dir = direction(l, at);
    const sim::Time start = std::max(t, l.next_free[dir]);
    const double ser = l.profile.serialization_time(msg.size).value();
    l.next_free[dir] = start + ser;
    t = start + ser + l.profile.base_latency.value();
    LinkStats& st = l.dir_stats[dir];
    ++st.messages;
    st.bytes += msg.size.value();
    st.busy_seconds += ser;
    at = (l.a == at) ? l.b : l.a;
  }
  // One span covers the whole multi-hop delivery: cut-through reserves
  // every link at send time, so the delivery instant is already known here.
  // Journey segments additionally carry a span-link whose attribute says
  // why the message travelled (transport / hand-off / return / WAN).
  DF3_OBS_TRACE_IF(o) {
    if (msg.journey_hop != obs::HopKind::kNone) {
      o->journey_span(this, name(), obs::Phase::kNetHop, now(), t, msg.payload_tag, -1,
                      static_cast<std::uint32_t>(msg.journey_hop));
    } else {
      o->span(this, name(), obs::Phase::kNetHop, now(), t, msg.payload_tag);
    }
  }
  sim().schedule_at(t, [cb = std::move(on_delivery), t] { cb(t); });
}

LinkStats Network::stats(std::size_t link) const {
  const Link& l = links_.at(link);
  LinkStats sum{};
  for (const auto& d : l.dir_stats) {
    sum.messages += d.messages;
    sum.bytes += d.bytes;
    sum.busy_seconds += d.busy_seconds;
  }
  return sum;
}

}  // namespace df3::net
