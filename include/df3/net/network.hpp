#pragma once
/// \file network.hpp
/// \brief Store-and-forward network simulation with per-link queuing.
///
/// The topology is an undirected graph of named nodes joined by links, each
/// carrying a `LinkProfile`. A message from A to B follows the minimum-
/// latency route (Dijkstra over unloaded one-hop delay for its size) and
/// experiences, per hop:
///
///   queuing   — each link direction is a FIFO server; a message waits until
///               the link is free (this is what makes the shared-vs-
///               segmented LAN experiment E10 meaningful);
///   serialization — size/bandwidth with fragmentation + duty cycle;
///   propagation   — the profile's base latency.
///
/// Delivery is an event on the owning `Simulation`. Partitions are supported
/// by disabling links (failure injection).
///
/// Route memo. A route is a pure function of (src, dst, payload size) and
/// the topology, so `route()` remembers every path it computes, keyed on
/// (src, dst, bit pattern of the size), and returns the identical link
/// sequence on a repeat — every digest is unchanged by the memo.
///   - One topology epoch: `add_link` and every real `set_link_up`
///     transition bump it (a no-op call does not). Both memos — routes and
///     `min_peer_latency()` — are dropped whole when the epoch moved.
///   - Bounded: paths live in one flat arena of 32-bit link ids; the table
///     clears itself when it reaches a fixed entry or arena cap, which keeps
///     long runs with randomly sized payloads from growing it without limit.
///   - Every call still validates its arguments; unreachable pairs are
///     remembered as empty paths and `send()` still fires `on_drop`.
///
/// Zone-restricted misses. A miss searches only the biconnected blocks a
/// simple path from src to dst can use. On the first miss after the epoch
/// moved, the network builds the block-cut tree of its up links (an
/// iterative Tarjan pass over link ids, O(nodes + links), stored in flat
/// arrays). A miss walks that tree from src to dst, gathers the nodes of
/// the blocks on the walk and runs Dijkstra over the gathered nodes only.
/// Weights are non-negative, relaxation is strict and pops are ordered by
/// (delay, node id), so a node outside those blocks — reachable only
/// through an already-settled cut vertex — can never strictly improve a
/// gathered one: the result is the full search's, bit for bit, equal-cost
/// ties included. Pairs in different components (or touching a node with
/// no up link) are empty without a search. A graph that is one big block
/// searches that block, as a plain Dijkstra would.
///
/// Threading: a `Network` is used from the event-loop thread only. The
/// `const` queries fill the memos, so no two threads may call into one
/// `Network` at once; the parallel control lanes never send or route.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "df3/net/protocol.hpp"
#include "df3/obs/journey.hpp"
#include "df3/sim/engine.hpp"
#include "df3/util/units.hpp"

namespace df3::net {

/// Dense node handle.
using NodeId = std::uint32_t;

/// A message in flight. `payload_tag` lets higher layers route semantics
/// without the network knowing about request types.
struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  util::Bytes size{0.0};
  std::uint64_t payload_tag = 0;
  /// When != kNone, this message is a segment of the request journey tagged
  /// by `payload_tag`: the hop span gets a journey span-link with this kind
  /// as its attribute (obs/journey.hpp). Staging transfers stay kNone —
  /// their journey segment is the cluster's kStaging span.
  obs::HopKind journey_hop = obs::HopKind::kNone;
};

/// Statistics for one link direction.
struct LinkStats {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double busy_seconds = 0.0;  ///< cumulative serialization time carried
};

class Network : public sim::Entity {
 public:
  explicit Network(sim::Simulation& sim, std::string name = "net");

  /// Add a node; returns its id. Node names must be unique.
  NodeId add_node(const std::string& node_name);

  /// Node lookup by name; throws if unknown.
  [[nodiscard]] NodeId node(const std::string& node_name) const;
  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }

  /// Join two nodes with a bidirectional link; returns the link index.
  /// Throws `invalid_argument` naming the field for a profile whose
  /// bandwidth or max_payload is not finite and positive, whose duty_cycle
  /// is outside (0, 1], or whose frame_overhead or base_latency is not
  /// finite and non-negative: route search needs non-negative delays.
  std::size_t add_link(NodeId a, NodeId b, LinkProfile profile);

  /// Enable/disable a link (network partition injection).
  void set_link_up(std::size_t link, bool up);
  [[nodiscard]] bool link_up(std::size_t link) const;
  /// Number of links added so far (valid link indices are [0, link_count)).
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Minimum-delay route for a message of `size`; empty when unreachable.
  /// The route is the sequence of link indices traversed. Memoized (see the
  /// file comment). Throws `out_of_range` for an unknown node and
  /// `invalid_argument` for a negative size.
  [[nodiscard]] std::vector<std::size_t> route(NodeId src, NodeId dst, util::Bytes size) const;

  /// Unloaded end-to-end delay along the current best route (no queuing).
  /// nullopt when unreachable.
  [[nodiscard]] std::optional<util::Seconds> unloaded_delay(NodeId src, NodeId dst,
                                                            util::Bytes size) const;

  /// Minimum propagation latency over all *up* links — the conservative
  /// lookahead bound of the parallel control plane (DESIGN.md §12): no
  /// cross-cluster influence travels faster than the fastest live link's
  /// base latency, so control lanes may advance one tick instant
  /// independently whenever this is positive. Cached O(1) per topology
  /// epoch (LinkFlapper transitions arrive through set_link_up, which bumps
  /// it). +infinity when no link is up:
  /// a fully partitioned fleet exchanges no messages at all, which is the
  /// loosest possible lookahead, not a hazard.
  [[nodiscard]] util::Seconds min_peer_latency() const;

  /// Send a message now. `on_delivery(delivered_at)` fires at arrival; if
  /// the destination is unreachable `on_drop()` fires immediately (same
  /// simulation instant). Accounts queuing on every traversed link.
  void send(const Message& msg, std::function<void(sim::Time)> on_delivery,
            std::function<void()> on_drop = nullptr);

  /// Both directions of `link` summed.
  [[nodiscard]] LinkStats stats(std::size_t link) const;
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  /// Route-memo bounds (fixed, not configurable): the memo clears itself
  /// when it holds this many paths or link ids. At the caps it holds
  /// ~4 MiB of arena plus the table, whatever the run length.
  static constexpr std::size_t kRouteMemoMaxEntries = std::size_t{1} << 16;
  static constexpr std::size_t kRouteArenaMaxIds = std::size_t{1} << 20;
  /// Route-memo lookups answered from / missing the memo (observation only;
  /// same-node and invalid queries count as neither).
  [[nodiscard]] std::uint64_t route_cache_hits() const { return route_hits_; }
  [[nodiscard]] std::uint64_t route_cache_misses() const { return route_misses_; }
  /// Nodes settled by the searches of all misses so far (observation only:
  /// with zone-restricted misses an intra-building miss settles the same
  /// count whatever the size of the city).
  [[nodiscard]] std::uint64_t route_nodes_settled() const { return route_settled_; }

 private:
  struct Link {
    NodeId a, b;
    LinkProfile profile;
    bool up = true;
    /// Earliest time each direction is free (0: a->b, 1: b->a).
    std::array<sim::Time, 2> next_free{0.0, 0.0};
    std::array<LinkStats, 2> dir_stats{};
  };

  [[nodiscard]] static std::size_t direction(const Link& l, NodeId from) {
    return from == l.a ? 0 : 1;
  }
  /// One adjacency entry: the link and the node at its far end.
  struct Adjacent {
    std::uint32_t link;
    NodeId to;
  };

  struct RouteKey {
    NodeId src, dst;
    std::uint64_t size_bits;
    bool operator==(const RouteKey&) const = default;
  };
  struct RouteKeyHash {
    std::size_t operator()(const RouteKey& k) const noexcept;
  };
  /// A memoized path: `len` link ids from `route_arena_[offset]`; len 0 =
  /// unreachable.
  struct RouteSpan {
    std::uint32_t offset, len;
  };

  /// route() without the copy: validates, then returns the memoized path
  /// (computed on a miss; empty for src == dst or unreachable). The span
  /// points into `route_arena_` and is valid until the next route query.
  [[nodiscard]] std::span<const std::uint32_t> cached_route(NodeId src, NodeId dst,
                                                            util::Bytes size) const;
  /// Zone-restricted Dijkstra; appends the path to `route_arena_`.
  RouteSpan compute_route(NodeId src, NodeId dst, util::Bytes size) const;
  /// Rebuild `zones_`, the block-cut tree of the up links.
  void rebuild_zones() const;
  /// Gather into `zone_` the nodes of every block on the block-cut tree
  /// path from src to dst, unreached; false when the two are not connected.
  bool gather_zone(NodeId src, NodeId dst) const;

  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<Link> links_;
  std::vector<std::vector<Adjacent>> adjacency_;  // node -> links, in insertion order
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  /// Topology epoch: bumped by add_link and real set_link_up transitions.
  std::uint64_t topology_epoch_ = 0;
  /// min_peer_latency() memo, valid while its epoch matches.
  mutable double min_peer_latency_cache_ = 0.0;
  mutable std::uint64_t min_peer_latency_epoch_ = UINT64_MAX;
  /// Route memo, valid while its epoch matches (see the file comment).
  mutable std::unordered_map<RouteKey, RouteSpan, RouteKeyHash> route_memo_;
  mutable std::vector<std::uint32_t> route_arena_;
  mutable std::uint64_t route_memo_epoch_ = 0;
  mutable std::uint64_t route_hits_ = 0;
  mutable std::uint64_t route_misses_ = 0;
  mutable std::uint64_t route_settled_ = 0;

  /// Block-cut tree of the up links, valid while its epoch matches and it
  /// covers every node. Tree nodes [0, blocks) are biconnected blocks and
  /// the rest are cut vertices; `kNoZone` marks no tree node / no parent.
  static constexpr std::uint32_t kNoZone = UINT32_MAX;
  struct Zones {
    std::uint64_t epoch = UINT64_MAX;
    std::vector<std::uint32_t> of_node;  ///< node -> tree node (kNoZone: no up link)
    std::vector<std::uint32_t> parent;   ///< tree node -> parent (kNoZone: a root)
    std::vector<std::uint32_t> depth;    ///< tree node -> distance from its root
    /// Block b's nodes are block_nodes[block_begin[b], block_begin[b + 1]).
    std::vector<std::uint32_t> block_begin;
    std::vector<NodeId> block_nodes;
  };
  mutable Zones zones_;
  /// Search scratch. The nodes a miss may use form a sparse set: node v
  /// takes part iff `zone_[zone_slot_[v]].node == v`, so a new search just
  /// clears `zone_`, and only `zone_slot_` is sized to the whole graph.
  struct ZoneNode {
    NodeId node;
    std::uint32_t via;  ///< link it was reached by
    double dist;        ///< tentative delay from src
  };
  /// v's entry in `zone_`, or nullptr when v is outside the search.
  [[nodiscard]] ZoneNode* in_zone(NodeId v) const;
  mutable std::vector<ZoneNode> zone_;
  mutable std::vector<std::uint32_t> zone_slot_;
  mutable std::vector<std::pair<double, NodeId>> heap_;
};

}  // namespace df3::net
