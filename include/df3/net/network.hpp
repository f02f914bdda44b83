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

  [[nodiscard]] const LinkStats& stats(std::size_t link) const;
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
  /// Dijkstra from scratch; appends the path to `route_arena_`.
  RouteSpan compute_route(NodeId src, NodeId dst, util::Bytes size) const;

  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<Link> links_;
  std::vector<std::vector<std::size_t>> adjacency_;  // node -> link indices
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  mutable LinkStats merged_stats_{};  // scratch for stats() aggregation
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
};

}  // namespace df3::net
