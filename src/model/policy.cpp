#include "model/policy.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <utility>

namespace rd::model {

namespace {

bool source_spec_matches(const config::AclRule& rule, ip::Ipv4Address addr) {
  return rule.any_source || rule.source.contains(addr);
}

bool destination_spec_matches(const config::AclRule& rule,
                              ip::Ipv4Address addr) {
  return rule.any_destination || rule.destination.contains(addr);
}

}  // namespace

bool acl_permits_route(const config::AccessList& acl, const Route& route) {
  for (const auto& rule : acl.rules) {
    if (source_spec_matches(rule, route.prefix.network())) {
      return rule.action == config::FilterAction::kPermit;
    }
  }
  return false;  // implicit deny
}

bool prefix_list_permits_route(const config::PrefixList& prefix_list,
                               const Route& route) {
  for (const auto& entry : prefix_list.entries) {
    if (!entry.prefix.contains(route.prefix)) continue;
    const int length = route.prefix.length();
    if (entry.ge || entry.le) {
      if (entry.ge && length < *entry.ge) continue;
      if (entry.le && length > *entry.le) continue;
      if (!entry.ge && length < entry.prefix.length()) continue;
    } else if (length != entry.prefix.length()) {
      continue;  // exact-length match without ge/le
    }
    return entry.action == config::FilterAction::kPermit;
  }
  return false;  // implicit deny
}

bool acl_permits_packet(const config::AccessList& acl, ip::Ipv4Address source,
                        ip::Ipv4Address destination,
                        std::optional<std::uint16_t> dst_port,
                        std::string_view protocol) {
  for (const auto& rule : acl.rules) {
    if (!source_spec_matches(rule, source)) continue;
    if (rule.extended) {
      // A packet with no (or an unrecognized) protocol matches only "ip"
      // wildcard clauses; it must not slip through protocol-specific
      // entries just because the clause happens to carry no port.
      if (rule.protocol != "ip" && rule.protocol != protocol) continue;
      if (!destination_spec_matches(rule, destination)) continue;
      if (rule.destination_port && dst_port &&
          *rule.destination_port != *dst_port) {
        continue;
      }
      if (rule.destination_port && !dst_port) continue;
    }
    return rule.action == config::FilterAction::kPermit;
  }
  return false;  // implicit deny
}

PolicyVerdict route_map_evaluate(const config::RouteMap& route_map,
                                 const config::RouterConfig& config,
                                 const Route& route) {
  for (const auto& clause : route_map.clauses) {
    // All match conditions of a clause must hold (AND across kinds; OR
    // across the ACLs of one "match ip address" line, as in IOS).
    if (clause.match_tag && route.tag != clause.match_tag) continue;
    if (!clause.match_ip_address_acls.empty()) {
      bool any = false;
      for (const auto& acl_id : clause.match_ip_address_acls) {
        const auto* acl = config.find_access_list(acl_id);
        if (acl != nullptr && acl_permits_route(*acl, route)) {
          any = true;
          break;
        }
      }
      if (!any) continue;
    }
    if (!clause.match_prefix_lists.empty()) {
      bool any = false;
      for (const auto& pl_name : clause.match_prefix_lists) {
        const auto* pl = config.find_prefix_list(pl_name);
        if (pl != nullptr && prefix_list_permits_route(*pl, route)) {
          any = true;
          break;
        }
      }
      if (!any) continue;
    }
    // "match as-path": the static model carries no AS-path attribute, so
    // the condition is treated as satisfied — a permissive upper bound on
    // reachability, consistent with the paper's avoidance of route-
    // selection modeling. The §6.1 policy-style analysis counts these
    // matches statically instead.
    if (clause.action == config::FilterAction::kDeny) {
      return {false, route};
    }
    Route out = route;
    if (clause.set_tag) out.tag = clause.set_tag;
    return {true, out};
  }
  return {false, route};  // off the end: implicit deny
}

bool distribute_list_permits(const config::RouterConfig& config,
                             std::string_view acl_id, const Route& route) {
  const auto* acl = config.find_access_list(acl_id);
  if (acl == nullptr) return true;
  return acl_permits_route(*acl, route);
}

// --- Compiled policies -------------------------------------------------------

CompiledAclFilter::CompiledAclFilter(const config::AccessList& acl) {
  for (std::size_t i = 0; i < acl.rules.size(); ++i) {
    const auto& rule = acl.rules[i];
    const ip::Prefix source = rule.any_source
                                  ? ip::Prefix(ip::Ipv4Address(0u), 0)
                                  : rule.source;
    // First clause per distinct source prefix wins: when two clauses share
    // a source spec the earlier always decides, whatever its action.
    if (trie_.find(source) == nullptr) {
      trie_.insert(source, {i, rule.action == config::FilterAction::kPermit});
    }
  }
}

bool CompiledAclFilter::permits_address(ip::Ipv4Address addr) const noexcept {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  bool permit = false;
  trie_.visit_matches(addr, [&](const FirstClause& clause) {
    if (clause.index < best) {
      best = clause.index;
      permit = clause.permit;
    }
  });
  return best != std::numeric_limits<std::size_t>::max() && permit;
}

CompiledPrefixList::CompiledPrefixList(const config::PrefixList& prefix_list) {
  std::map<ip::Prefix, std::vector<Entry>> grouped;
  for (std::size_t i = 0; i < prefix_list.entries.size(); ++i) {
    const auto& entry = prefix_list.entries[i];
    grouped[entry.prefix].push_back(
        {i, entry.prefix.length(), entry.ge, entry.le,
         entry.action == config::FilterAction::kPermit});
  }
  for (auto& [prefix, entries] : grouped) {
    trie_.insert(prefix, std::move(entries));
  }
}

bool CompiledPrefixList::permits_route(const Route& route) const {
  const int length = route.prefix.length();
  std::size_t best = std::numeric_limits<std::size_t>::max();
  bool permit = false;
  trie_.visit_matches(route.prefix.network(), [&](const std::vector<Entry>&
                                                       entries) {
    for (const auto& entry : entries) {
      // A stored prefix deeper than the route's own length matches the
      // network address but does not contain the route.
      if (entry.prefix_length > length) continue;
      if (entry.ge || entry.le) {
        if (entry.ge && length < *entry.ge) continue;
        if (entry.le && length > *entry.le) continue;
        if (!entry.ge && length < entry.prefix_length) continue;
      } else if (length != entry.prefix_length) {
        continue;  // exact-length match without ge/le
      }
      if (entry.index < best) {
        best = entry.index;
        permit = entry.permit;
      }
    }
  });
  return best != std::numeric_limits<std::size_t>::max() && permit;
}

HeaderAtom acl_rule_match_atom(const config::AclRule& rule,
                               ProtocolDomain& domain) {
  HeaderAtom atom;  // /0 × /0 × any protocol × [0, kNoPort]
  if (!rule.any_source) atom.source = rule.source;
  if (rule.extended) {
    atom.protocols = domain.clause_mask(rule.protocol);
    if (!rule.any_destination) atom.destination = rule.destination;
    if (rule.destination_port) {
      atom.port_lo = *rule.destination_port;
      atom.port_hi = *rule.destination_port;
    }
  }
  return atom;
}

std::vector<std::size_t> shadowed_clauses(const config::AccessList& acl,
                                          ProtocolDomain& domain) {
  // Clause i is shadowed exactly when atom_i \ (atom_0 ∪ ... ∪ atom_{i-1})
  // is empty. Only the parts of the earlier atoms inside atom_i matter, so
  // each earlier atom is first cut down to its hole atom_i ∩ atom_j (one
  // atom, or nothing). A hole equal to atom_i shadows the clause outright;
  // no hole at all leaves it live. Otherwise atom_i is peeled by the holes.
  //
  // Emptiness of atom_i minus the union of the holes is a property of the
  // *set* of holes — a union does not depend on the order its terms are
  // taken in — so the peel may visit them in any order without changing
  // the answer, only the number of fragments along the way. Peeling the
  // largest holes first (fewest fixed address bits, then the widest
  // protocol mask, then the widest port interval; ties in clause order)
  // removes most of the atom before narrow holes can splinter it. Clause
  // order, which SymbolicPacketFilter must follow to attribute each header
  // to its first matching clause, is the worst case when many host-specific
  // clauses precede a broad one: each narrow hole fragments the atom before
  // the broad hole swallows it.
  std::vector<HeaderAtom> atoms;
  atoms.reserve(acl.rules.size());
  for (const auto& rule : acl.rules) {
    atoms.push_back(acl_rule_match_atom(rule, domain));
  }
  const auto larger_first = [](const HeaderAtom& a, const HeaderAtom& b) {
    const int a_bits = a.source.length() + a.destination.length();
    const int b_bits = b.source.length() + b.destination.length();
    if (a_bits != b_bits) return a_bits < b_bits;
    const int a_protocols = std::popcount(a.protocols);
    const int b_protocols = std::popcount(b.protocols);
    if (a_protocols != b_protocols) return a_protocols > b_protocols;
    return a.port_hi - a.port_lo > b.port_hi - b.port_lo;
  };
  std::vector<std::size_t> out;
  std::vector<HeaderAtom> holes;
  std::vector<HeaderAtom> scratch;  // reused across every peel below
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    holes.clear();
    bool covered = false;
    for (std::size_t j = 0; j < i && !covered; ++j) {
      if (const auto hole = atom_intersect(atoms[i], atoms[j])) {
        covered = *hole == atoms[i];
        holes.push_back(*hole);
      }
    }
    if (!covered && !holes.empty()) {
      std::stable_sort(holes.begin(), holes.end(), larger_first);
      HeaderPredicate rest = HeaderPredicate::of(atoms[i]);
      for (const auto& hole : holes) {
        rest.subtract_in_place(hole, scratch);
        if (rest.is_empty()) break;
      }
      covered = rest.is_empty();
    }
    if (covered) out.push_back(i);
  }
  return out;
}

SymbolicPacketFilter::SymbolicPacketFilter(const config::AccessList& acl,
                                           ProtocolDomain& domain) {
  // First-match-wins, run on all headers at once: each clause decides only
  // the part of its match region no earlier clause claimed. Each clause is
  // peeled independently against the earlier clauses' match atoms;
  // materializing a running "unclaimed" predicate instead fragments every
  // clause jointly and blows up on host-specific filter lists.
  std::vector<HeaderAtom> regions;
  regions.reserve(acl.rules.size());
  effective_.reserve(acl.rules.size());
  std::vector<HeaderAtom> scratch;  // reused across every peel below
  for (std::size_t i = 0; i < acl.rules.size(); ++i) {
    const auto& rule = acl.rules[i];
    const HeaderAtom region = acl_rule_match_atom(rule, domain);
    HeaderPredicate effective = HeaderPredicate::of(region);
    for (std::size_t j = 0; j < i && !effective.is_empty(); ++j) {
      effective.subtract_in_place(regions[j], scratch);
    }
    // A single clause region peeled by disjoint holes stays a disjoint
    // union, so the cheap disjoint normalize is exact here.
    effective.normalize_disjoint();
    if (!effective.is_empty() &&
        rule.action == config::FilterAction::kPermit) {
      // Effective regions of different clauses are disjoint by first-match
      // construction.
      permitted_.unite_disjoint(effective);
    }
    effective_.push_back(std::move(effective));
    regions.push_back(region);
  }
  permitted_.normalize_disjoint();
  // Off the end of the list is the implicit deny: headers no clause
  // claims are simply not permitted.
}

CompiledRouteMap::CompiledRouteMap(const config::RouteMap& route_map,
                                   const config::RouterConfig& config,
                                   PolicyCompiler& compiler) {
  clauses_.reserve(route_map.clauses.size());
  for (const auto& clause : route_map.clauses) {
    Clause compiled;
    compiled.permit = clause.action == config::FilterAction::kPermit;
    compiled.has_acl_matches = !clause.match_ip_address_acls.empty();
    compiled.has_prefix_list_matches = !clause.match_prefix_lists.empty();
    for (const auto& acl_id : clause.match_ip_address_acls) {
      if (const auto* acl = compiler.acl(config, acl_id)) {
        compiled.acls.push_back(acl);
      }
    }
    for (const auto& pl_name : clause.match_prefix_lists) {
      if (const auto* pl = compiler.prefix_list(config, pl_name)) {
        compiled.prefix_lists.push_back(pl);
      }
    }
    compiled.match_tag = clause.match_tag;
    compiled.set_tag = clause.set_tag;
    clauses_.push_back(std::move(compiled));
  }
}

const PolicyVerdict& CompiledRouteMap::evaluate(const Route& route) const {
  const auto [it, fresh] = verdicts_.try_emplace(route);
  if (fresh) it->second = evaluate_uncached(route);
  return it->second;
}

PolicyVerdict CompiledRouteMap::evaluate_uncached(const Route& route) const {
  for (const auto& clause : clauses_) {
    // Mirror of route_map_evaluate: AND across match kinds, OR across the
    // matchers of one kind; "match as-path" is treated as satisfied.
    if (clause.match_tag && route.tag != clause.match_tag) continue;
    if (clause.has_acl_matches) {
      bool any = false;
      for (const auto* acl : clause.acls) {
        if (acl->permits_route(route)) {
          any = true;
          break;
        }
      }
      if (!any) continue;
    }
    if (clause.has_prefix_list_matches) {
      bool any = false;
      for (const auto* pl : clause.prefix_lists) {
        if (pl->permits_route(route)) {
          any = true;
          break;
        }
      }
      if (!any) continue;
    }
    if (!clause.permit) return {false, route};
    Route out = route;
    if (clause.set_tag) out.tag = clause.set_tag;
    return {true, out};
  }
  return {false, route};  // off the end: implicit deny
}

RouteMapFacts route_map_facts(const config::RouterConfig& config,
                              std::string_view name) {
  RouteMapFacts facts;
  const auto* map = config.find_route_map(name);
  if (map == nullptr) return facts;
  facts.resolved = true;
  bool blanket_permit_seen = false;
  for (const auto& clause : map->clauses) {
    facts.uses_tags =
        facts.uses_tags || clause.match_tag.has_value() ||
        clause.set_tag.has_value();
    if (clause.action == config::FilterAction::kDeny) {
      if (!blanket_permit_seen) facts.may_deny = true;
      continue;
    }
    facts.sets_metric = facts.sets_metric || clause.set_metric.has_value();
    const bool unconditional = clause.match_ip_address_acls.empty() &&
                               clause.match_prefix_lists.empty() &&
                               clause.match_as_paths.empty() &&
                               !clause.match_tag.has_value();
    if (unconditional) blanket_permit_seen = true;
  }
  // Routes falling off the end hit the implicit deny, so without a blanket
  // permit some route is always deniable.
  if (!blanket_permit_seen) facts.may_deny = true;
  return facts;
}

const CompiledAclFilter* PolicyCompiler::acl(
    const config::RouterConfig& config, std::string_view id) {
  const auto* node = config.find_access_list(id);
  if (node == nullptr) return nullptr;
  auto& slot = acls_[node];
  if (!slot) slot = std::make_unique<CompiledAclFilter>(*node);
  return slot.get();
}

const CompiledPrefixList* PolicyCompiler::prefix_list(
    const config::RouterConfig& config, std::string_view name) {
  const auto* node = config.find_prefix_list(name);
  if (node == nullptr) return nullptr;
  auto& slot = prefix_lists_[node];
  if (!slot) slot = std::make_unique<CompiledPrefixList>(*node);
  return slot.get();
}

const SymbolicPacketFilter* PolicyCompiler::symbolic_acl(
    const config::RouterConfig& config, std::string_view id) {
  const auto* node = config.find_access_list(id);
  if (node == nullptr) return nullptr;
  auto& slot = symbolic_acls_[node];
  if (!slot) slot = std::make_unique<SymbolicPacketFilter>(*node, domain_);
  return slot.get();
}

const CompiledRouteMap* PolicyCompiler::route_map(
    const config::RouterConfig& config, std::string_view name) {
  const auto* node = config.find_route_map(name);
  if (node == nullptr) return nullptr;
  auto& slot = route_maps_[node];
  if (!slot) slot = std::make_unique<CompiledRouteMap>(*node, config, *this);
  return slot.get();
}

}  // namespace rd::model
