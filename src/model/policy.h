#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "config/ast.h"
#include "ip/ipv4.h"
#include "ip/prefix_trie.h"
#include "model/header_predicate.h"

namespace rd::model {

/// A route as modeled by the paper (§2.3): an IP subnet plus the attributes
/// the analyses need. `tag` carries the IGP route tag used by designs like
/// net5's (§6.1) to steer route selection without BGP attributes.
struct Route {
  ip::Prefix prefix;
  std::optional<std::uint32_t> tag;

  friend bool operator==(const Route&, const Route&) = default;
};

/// Result of pushing a route through a policy.
struct PolicyVerdict {
  bool permitted = false;
  Route route;  // possibly rewritten (set tag / metric)
};

/// Evaluate a standard/extended ACL as a *route* filter (distribute-list
/// semantics): a clause matches when its source spec covers the route's
/// network address. First matching clause wins; no match is an implicit deny.
bool acl_permits_route(const config::AccessList& acl, const Route& route);

/// Evaluate an ip prefix-list over a route: an entry matches when its
/// prefix contains the route's prefix and the route's length satisfies the
/// ge/le bounds (with no bounds, the lengths must match exactly, as in
/// IOS). First match wins; implicit deny at the end.
bool prefix_list_permits_route(const config::PrefixList& prefix_list,
                               const Route& route);

/// Evaluate an ACL as a *packet* filter: match on source/destination
/// addresses, protocol, and port (extended rules). Implicit deny at the
/// end. An extended rule matches when its protocol is "ip" or equals the
/// packet's; an empty `protocol` is an unspecified-protocol packet and
/// matches only "ip" wildcard clauses (mirroring the symbolic lowering,
/// where it maps to the "other" protocol bit).
bool acl_permits_packet(const config::AccessList& acl, ip::Ipv4Address source,
                        ip::Ipv4Address destination,
                        std::optional<std::uint16_t> dst_port = {},
                        std::string_view protocol = {});

/// Evaluate a route-map over a route. Clauses run in sequence order; the
/// first whose match conditions hold decides (permit applies set-clauses,
/// deny drops). No matching clause is an implicit deny, as in IOS
/// redistribution contexts.
PolicyVerdict route_map_evaluate(const config::RouteMap& route_map,
                                 const config::RouterConfig& config,
                                 const Route& route);

/// Apply an optional distribute-list ACL (by id, resolved in `config`) to a
/// route; absent or unresolvable lists permit everything, mirroring IOS
/// behaviour for references to undefined ACLs.
bool distribute_list_permits(const config::RouterConfig& config,
                             std::string_view acl_id, const Route& route);

/// Static facts about a named route-map, extracted without evaluating any
/// route — the boundary properties the redistribution-safety rules reason
/// about (paper §5.1/§6.1: filters and metric mapping at instance borders).
struct RouteMapFacts {
  /// The name resolved to a defined map. Unresolved names permit every
  /// route on IOS, so an unresolved map never filters and never maps.
  bool resolved = false;
  /// Some route can be denied. False exactly when every route is permitted:
  /// a permit clause with no match conditions appears before any deny
  /// clause (routes falling through all clauses hit the implicit deny, so a
  /// map without such a blanket permit always filters).
  bool may_deny = false;
  /// At least one permit clause carries "set metric" — the map maps metrics
  /// across the boundary for at least part of the route space.
  bool sets_metric = false;
  /// At least one clause matches or sets a route tag — the map takes part
  /// in a tag-based loop-prevention scheme (net5's idiom, §6.1).
  bool uses_tags = false;
};

/// Extract RouteMapFacts for `name` resolved against `config`. A default
/// (all-false) value is returned for dangling references.
RouteMapFacts route_map_facts(const config::RouterConfig& config,
                              std::string_view name);

/// Hash for Route, used by the reachability engine's membership indexes and
/// the compiled-policy verdict caches.
struct RouteHash {
  std::size_t operator()(const Route& route) const noexcept {
    std::uint64_t h = route.prefix.network().value();
    h = h * 0x9e3779b97f4a7c15ULL +
        static_cast<std::uint64_t>(route.prefix.length()) + 1u;
    h = h * 0x9e3779b97f4a7c15ULL + (route.tag ? 1ULL + *route.tag : 0ULL);
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

// --- Compiled policies -------------------------------------------------------
//
// The naïve route-propagation loop re-resolves every named filter (linear
// string search in the owning RouterConfig) and re-walks every ACL clause
// for every route on every iteration. The compiled forms below are lowered
// once per analysis run: name references are resolved to pointers, and
// clause bodies become `ip::PrefixTrie` lookups, so evaluating a route is
// O(prefix length) instead of O(clauses). Semantics are bit-for-bit those of
// the interpreting functions above — the differential reachability suite
// checks the two paths against each other.

/// An access list compiled for *route-filter* semantics (acl_permits_route):
/// the first clause whose source spec covers the route's network address
/// decides. The trie stores, per distinct source prefix, the earliest clause
/// using it; evaluation takes the covering clause with the lowest index.
class CompiledAclFilter {
 public:
  explicit CompiledAclFilter(const config::AccessList& acl);

  bool permits_route(const Route& route) const noexcept {
    return permits_address(route.prefix.network());
  }
  bool permits_address(ip::Ipv4Address addr) const noexcept;

 private:
  struct FirstClause {
    std::size_t index = 0;
    bool permit = false;
  };
  ip::PrefixTrie<FirstClause> trie_;
};

/// A prefix list compiled onto a trie keyed by entry prefix. Entries sharing
/// a prefix stay grouped in written order; evaluation visits only the stored
/// prefixes covering the route and applies the ge/le bounds of
/// prefix_list_permits_route, first (lowest-index) match winning.
class CompiledPrefixList {
 public:
  explicit CompiledPrefixList(const config::PrefixList& prefix_list);

  bool permits_route(const Route& route) const;

 private:
  struct Entry {
    std::size_t index = 0;
    int prefix_length = 0;
    std::optional<int> ge;
    std::optional<int> le;
    bool permit = false;
  };
  ip::PrefixTrie<std::vector<Entry>> trie_;
};

/// The exact header set a clause matches under `acl_permits_packet`
/// semantics (for a packet with a *specified* protocol): standard clauses
/// constrain the source only; extended clauses add protocol, destination,
/// and — when an `eq` port is present — the destination port, in which case
/// the portless packet (kNoPort) is excluded. Every coordinate is a single
/// prefix, mask or interval, so the set is always one (non-empty) atom.
HeaderAtom acl_rule_match_atom(const config::AclRule& rule,
                               ProtocolDomain& domain);

/// Indices of the clauses of `acl` that can never match a packet: the
/// earlier clauses' match atoms together cover the clause's own (paper
/// §5.3's error-prone IOS filters). Exactly the clauses whose
/// SymbolicPacketFilter effective region is empty, decided without
/// building any effective region.
std::vector<std::size_t> shadowed_clauses(const config::AccessList& acl,
                                          ProtocolDomain& domain);

/// An access list lowered to packet-set predicates: the exact set of
/// headers the list permits, plus per-clause first-match effectiveness.
/// This is `acl_permits_packet` run on every header at once; the
/// differential suite checks the two against each other.
class SymbolicPacketFilter {
 public:
  SymbolicPacketFilter(const config::AccessList& acl, ProtocolDomain& domain);

  /// Headers on which the list's first matching clause is a permit.
  const HeaderPredicate& permitted() const noexcept { return permitted_; }

  /// Headers each clause actually decides (its match region minus every
  /// earlier clause's). One entry per clause, in clause order; an empty
  /// entry is a clause shadowed_clauses() reports.
  const std::vector<HeaderPredicate>& effective() const noexcept {
    return effective_;
  }

 private:
  HeaderPredicate permitted_;
  std::vector<HeaderPredicate> effective_;
};

class PolicyCompiler;

/// A route-map with every clause's named references resolved to compiled
/// matchers, plus a verdict memo: edges sharing one route-map (the common
/// case — one policy applied to many neighbors) evaluate each distinct route
/// once. The memo makes instances non-shareable across threads; every
/// fixpoint builds its own PolicyCompiler.
class CompiledRouteMap {
 public:
  CompiledRouteMap(const config::RouteMap& route_map,
                   const config::RouterConfig& config,
                   PolicyCompiler& compiler);

  const PolicyVerdict& evaluate(const Route& route) const;

  /// evaluate() without touching the per-object verdict memo: for callers
  /// that maintain their own (cheaper) cache, e.g. the semi-naïve engine's
  /// flat per-universe-position redistribution cache — hashing a Route
  /// into the memo costs more than those callers' array reads.
  PolicyVerdict evaluate_nomemo(const Route& route) const {
    return evaluate_uncached(route);
  }

 private:
  struct Clause {
    bool permit = false;
    /// Distinguishes "no match ip address lines" (condition absent) from
    /// "lines present but none resolved" (condition unsatisfiable).
    bool has_acl_matches = false;
    bool has_prefix_list_matches = false;
    std::vector<const CompiledAclFilter*> acls;
    std::vector<const CompiledPrefixList*> prefix_lists;
    std::optional<std::uint32_t> match_tag;
    std::optional<std::uint32_t> set_tag;
  };
  PolicyVerdict evaluate_uncached(const Route& route) const;

  std::vector<Clause> clauses_;
  mutable std::unordered_map<Route, PolicyVerdict, RouteHash> verdicts_;
};

/// Resolves and caches compiled policy objects, keyed by the AST node they
/// lower, for the lifetime of one analysis run. Unresolvable names yield
/// nullptr, which callers treat exactly as the interpreting functions treat
/// a dangling reference. Not thread-safe: concurrent fixpoints (the what-if
/// sweeps) each own one compiler.
class PolicyCompiler {
 public:
  const CompiledAclFilter* acl(const config::RouterConfig& config,
                               std::string_view id);
  const CompiledPrefixList* prefix_list(const config::RouterConfig& config,
                                        std::string_view name);
  const CompiledRouteMap* route_map(const config::RouterConfig& config,
                                    std::string_view name);

  /// Symbolic lowering of an access list for the header-space engine,
  /// cached like the tries above. All lowerings share the compiler's one
  /// protocol domain, so their predicates are mutually comparable.
  const SymbolicPacketFilter* symbolic_acl(const config::RouterConfig& config,
                                           std::string_view id);

  ProtocolDomain& protocol_domain() noexcept { return domain_; }
  const ProtocolDomain& protocol_domain() const noexcept { return domain_; }

 private:
  std::unordered_map<const config::AccessList*,
                     std::unique_ptr<CompiledAclFilter>>
      acls_;
  std::unordered_map<const config::PrefixList*,
                     std::unique_ptr<CompiledPrefixList>>
      prefix_lists_;
  std::unordered_map<const config::RouteMap*,
                     std::unique_ptr<CompiledRouteMap>>
      route_maps_;
  std::unordered_map<const config::AccessList*,
                     std::unique_ptr<SymbolicPacketFilter>>
      symbolic_acls_;
  ProtocolDomain domain_;
};

}  // namespace rd::model
