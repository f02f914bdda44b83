#include "df3/net/network.hpp"

#include <algorithm>
#include <bit>
#include <queue>
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
  links_.push_back(Link{a, b, std::move(profile), true, {0.0, 0.0}, {}});
  const std::size_t idx = links_.size() - 1;
  adjacency_[a].push_back(idx);
  adjacency_[b].push_back(idx);
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
  // Dijkstra over unloaded one-hop delay for this payload size.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(node_names_.size(), kInf);
  std::vector<std::size_t> via_link(node_names_.size(), SIZE_MAX);
  std::vector<NodeId> via_node(node_names_.size(), 0);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    for (const std::size_t li : adjacency_[u]) {
      const Link& l = links_[li];
      if (!l.up) continue;
      const NodeId v = (l.a == u) ? l.b : l.a;
      const double w = l.profile.one_hop_delay(size).value();
      if (d + w < dist[v]) {
        dist[v] = d + w;
        via_link[v] = li;
        via_node[v] = u;
        heap.emplace(dist[v], v);
      }
    }
  }
  const auto offset = static_cast<std::uint32_t>(route_arena_.size());
  if (dist[dst] == kInf) return {offset, 0};
  for (NodeId cur = dst; cur != src; cur = via_node[cur]) {
    route_arena_.push_back(static_cast<std::uint32_t>(via_link[cur]));
  }
  std::reverse(route_arena_.begin() + offset, route_arena_.end());
  return {offset, static_cast<std::uint32_t>(route_arena_.size() - offset)};
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

const LinkStats& Network::stats(std::size_t link) const {
  const Link& l = links_.at(link);
  merged_stats_ = LinkStats{};
  for (const auto& d : l.dir_stats) {
    merged_stats_.messages += d.messages;
    merged_stats_.bytes += d.bytes;
    merged_stats_.busy_seconds += d.busy_seconds;
  }
  return merged_stats_;
}

}  // namespace df3::net
