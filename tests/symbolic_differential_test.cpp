// Differential fuzz suite for the symbolic header-space engine: on random
// (ingress, egress, header) samples across the synthetic fleet, the concrete
// one-probe verdict (`PacketReachability::evaluate == kPossiblyReachable`)
// must equal symbolic membership (`HeaderSpace::passes`). The concrete
// engine is the oracle; any disagreement is a bug in one of them.
//
// Also here: ACL self-equivalence over every packet filter in the fleet
// (the lowering must be stable and the equivalence decision reflexive), the
// shadowed-clause fast path against the first-match effective regions on
// fleet and random ACLs, and byte-identical rule reports at 1/2/8 threads
// on an intent-bearing network.
//
// Stress volume is dialable: RD_FUZZ_SEEDS (default 2) networks-orderings,
// RD_FUZZ_ITERS (default 1400) header samples per network (and random ACLs
// per seed).

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analysis/header_space.h"
#include "analysis/packet_reachability.h"
#include "analysis/rules.h"
#include "graph/instances.h"
#include "model/policy.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace rd::analysis {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  std::uint64_t parsed = 0;
  if (!util::parse_u64(util::trim(raw), parsed) || parsed == 0) {
    return fallback;
  }
  return parsed;
}

struct Case {
  std::string name;
  model::Network network;
  graph::InstanceSet instances;
  ReachabilityAnalysis routes;
};

/// Fleet networks small enough to fuzz densely (the big backbones and
/// managed networks exercise the same code through fewer, targeted suites).
std::vector<Case> fuzz_cases(std::size_t max_routers = 120) {
  const auto fleet = synth::generate_fleet(1);
  std::vector<Case> cases;
  for (const auto& net : fleet.networks) {
    if (net.configs.size() > max_routers) continue;
    auto network = model::Network::build(synth::reparse(net.configs));
    auto instances = graph::compute_instances(network);
    auto routes = ReachabilityAnalysis::run(network, instances);
    cases.push_back({net.name, std::move(network), std::move(instances),
                     std::move(routes)});
    if (cases.size() == 8) break;
  }
  return cases;
}

/// A random header biased toward the network's own address space: most
/// samples land inside interface subnets (where filters and routes act),
/// the rest probe arbitrary addresses (unattached / no-route paths).
FlowQuery random_query(util::Rng& rng, const model::Network& network) {
  static const char* kProtocols[] = {"ip",  "tcp", "udp", "icmp",
                                     "pim", "gre", ""};
  static const std::uint16_t kPorts[] = {0,   23,  53,   80,  161,
                                         443, 1433, 8080, 65535};
  const auto& itfs = network.interfaces();
  const auto pick_addr = [&]() -> ip::Ipv4Address {
    if (!itfs.empty() && rng.chance(0.8)) {
      const auto& itf = itfs[rng.below(itfs.size())];
      if (itf.subnet) {
        const auto span = itf.subnet->size();
        return ip::Ipv4Address(
            itf.subnet->network().value() +
            static_cast<std::uint32_t>(rng.below(span)));
      }
    }
    return ip::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  };
  FlowQuery query;
  query.source = pick_addr();
  query.destination = pick_addr();
  query.protocol = kProtocols[rng.below(std::size(kProtocols))];
  if (rng.chance(0.7)) {
    query.destination_port = kPorts[rng.below(std::size(kPorts))];
  }
  return query;
}

TEST(SymbolicDifferential, ConcreteVerdictEqualsSymbolicMembership) {
  const auto seeds = env_u64("RD_FUZZ_SEEDS", 2);
  const auto iters = env_u64("RD_FUZZ_ITERS", 1400);
  const auto cases = fuzz_cases();
  ASSERT_GE(cases.size(), 4u);
  std::size_t samples = 0;
  for (const auto& c : cases) {
    const PacketReachability concrete(c.network, c.instances, c.routes);
    HeaderSpace symbolic(c.network, c.instances, c.routes);
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      util::Rng rng(0x5eedULL * (seed + 1) + samples);
      for (std::uint64_t i = 0; i < iters; ++i) {
        const auto query = random_query(rng, c.network);
        const bool concrete_pass =
            concrete.evaluate(query) == FlowVerdict::kPossiblyReachable;
        const bool symbolic_pass = symbolic.passes(query);
        ASSERT_EQ(concrete_pass, symbolic_pass)
            << c.name << ": " << query.source.to_string() << " -> "
            << query.destination.to_string() << " proto '" << query.protocol
            << "' port "
            << (query.destination_port
                    ? std::to_string(*query.destination_port)
                    : "none")
            << " (concrete verdict: "
            << to_string(concrete.evaluate(query)) << ")";
        ++samples;
      }
    }
  }
  // The acceptance floor: at least 10k (pair, header) samples.
  EXPECT_GE(samples, 10000u);
}

/// The clauses whose first-match effective region is empty: the oracle for
/// model::shadowed_clauses, which decides the same without building them.
std::vector<std::size_t> empty_effective_regions(
    const model::SymbolicPacketFilter& filter) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < filter.effective().size(); ++i) {
    if (filter.effective()[i].is_empty()) out.push_back(i);
  }
  return out;
}

TEST(SymbolicDifferential, AclSelfEquivalenceAcrossFleet) {
  // Every packet filter in the fleet lowers to the same predicate twice,
  // and the equivalence decision recognizes it. Exercises the subtract /
  // emptiness path on every real ACL shape the generators emit.
  const auto fleet = synth::generate_fleet(1);
  std::size_t checked = 0;
  for (const auto& net : fleet.networks) {
    for (const auto& cfg : net.configs) {
      for (const auto& acl : cfg.access_lists) {
        model::ProtocolDomain domain_a;
        const model::SymbolicPacketFilter a(acl, domain_a);
        model::ProtocolDomain domain_b;
        const model::SymbolicPacketFilter b(acl, domain_b);
        ASSERT_TRUE(a.permitted().equivalent(b.permitted()))
            << net.name << " acl " << acl.id;
        model::ProtocolDomain domain_c;
        ASSERT_EQ(model::shadowed_clauses(acl, domain_c),
                  empty_effective_regions(a))
            << net.name << " acl " << acl.id;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

/// A random access list built to stress the shadow check: addresses come
/// from a small tree of nested host and subnet prefixes (so clauses overlap
/// often, in both address fields), protocols mix the `ip` wildcard with
/// tcp/udp/icmp, ports mix `eq` with portless clauses, and some clauses are
/// exact duplicates of earlier ones or come after a pair of earlier clauses
/// that cover them only together (the two halves of one of their address
/// prefixes).
config::AccessList random_acl(util::Rng& rng) {
  static const char* kPrefixes[] = {
      "10.0.0.0/8",    "10.1.0.0/16",   "10.1.2.0/24",  "10.1.2.0/25",
      "10.1.2.128/25", "10.1.2.3/32",   "10.1.2.200/32", "10.2.0.0/16",
      "10.2.3.0/24",   "192.168.0.0/16", "192.168.1.1/32"};
  static const char* kProtocols[] = {"ip", "tcp", "udp", "icmp"};
  static const std::uint16_t kPorts[] = {22, 53, 80, 443};
  const auto prefix = [&]() {
    return *ip::Prefix::parse(kPrefixes[rng.below(std::size(kPrefixes))]);
  };
  config::AccessList acl;
  acl.id = "101";
  const std::size_t length = 2 + rng.below(14);
  while (acl.rules.size() < length) {
    config::AclRule rule;
    rule.action = rng.chance(0.5) ? config::FilterAction::kPermit
                                  : config::FilterAction::kDeny;
    if (!acl.rules.empty() && rng.chance(0.15)) {
      rule = acl.rules[rng.below(acl.rules.size())];  // exact duplicate
      acl.rules.push_back(rule);
      continue;
    }
    rule.extended = rng.chance(0.85);
    rule.any_source = rng.chance(0.3);
    if (!rule.any_source) rule.source = prefix();
    if (rule.extended) {
      rule.protocol = kProtocols[rng.below(std::size(kProtocols))];
      rule.any_destination = rng.chance(0.3);
      if (!rule.any_destination) rule.destination = prefix();
      if (rule.protocol != "ip" && rng.chance(0.4)) {
        rule.destination_port = kPorts[rng.below(std::size(kPorts))];
      }
    }
    const bool split_source = !rule.any_source && rule.source.length() < 32;
    const bool split_destination = rule.extended && !rule.any_destination &&
                                   rule.destination.length() < 32;
    if ((split_source || split_destination) && rng.chance(0.25)) {
      // Two earlier clauses, one per half of an address prefix, that cover
      // this clause only together.
      auto low = rule;
      auto high = rule;
      high.action = rng.chance(0.5) ? config::FilterAction::kPermit
                                    : config::FilterAction::kDeny;
      const bool source =
          split_source && (!split_destination || rng.chance(0.5));
      const ip::Prefix& whole = source ? rule.source : rule.destination;
      const ip::Prefix half(whole.network(), whole.length() + 1);
      (source ? low.source : low.destination) = half;
      (source ? high.source : high.destination) = half.buddy();
      acl.rules.push_back(low);
      acl.rules.push_back(high);
    }
    acl.rules.push_back(rule);
  }
  for (std::size_t i = 0; i < acl.rules.size(); ++i) acl.rules[i].line = i + 1;
  return acl;
}

TEST(SymbolicDifferential, ShadowedClausesMatchEffectiveRegionsOnRandomAcls) {
  const auto seeds = env_u64("RD_FUZZ_SEEDS", 2);
  const auto iters = env_u64("RD_FUZZ_ITERS", 1400);
  std::size_t shadowed = 0;
  std::size_t multi_cover = 0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    util::Rng rng(0xac15ULL * (seed + 1));
    for (std::uint64_t i = 0; i < iters; ++i) {
      const auto acl = random_acl(rng);
      model::ProtocolDomain domain_a;
      const model::SymbolicPacketFilter filter(acl, domain_a);
      model::ProtocolDomain domain_b;
      const auto fast = model::shadowed_clauses(acl, domain_b);
      const auto expected = empty_effective_regions(filter);
      ASSERT_EQ(fast, expected) << "seed " << seed << " acl " << i;
      shadowed += fast.size();
      // Shadowed with no single earlier clause covering it: the cover took
      // two or more clauses together.
      model::ProtocolDomain domain_c;
      for (const std::size_t c : fast) {
        const auto atom = model::acl_rule_match_atom(acl.rules[c], domain_c);
        bool single = false;
        for (std::size_t j = 0; j < c && !single; ++j) {
          single = model::acl_rule_match_atom(acl.rules[j], domain_c)
                       .covers(atom);
        }
        if (!single) ++multi_cover;
      }
    }
  }
  // The generator must actually reach both kinds of shadowing.
  EXPECT_GT(shadowed, 0u);
  EXPECT_GT(multi_cover, 0u);
}

TEST(SymbolicDifferential, MutatedAclIsNotEquivalent) {
  // Sanity check that equivalence is not trivially true: flipping one
  // clause's action, or deleting a live clause, must change the predicate.
  const auto fleet = synth::generate_fleet(1);
  std::size_t mutated = 0;
  for (const auto& net : fleet.networks) {
    if (mutated >= 25) break;
    for (const auto& cfg : net.configs) {
      if (mutated >= 25) break;
      for (const auto& acl : cfg.access_lists) {
        if (acl.rules.size() < 2) continue;
        model::ProtocolDomain domain;
        const model::SymbolicPacketFilter original(acl, domain);
        auto flipped = acl;
        flipped.rules[0].action =
            flipped.rules[0].action == config::FilterAction::kPermit
                ? config::FilterAction::kDeny
                : config::FilterAction::kPermit;
        model::ProtocolDomain domain_flipped;
        const model::SymbolicPacketFilter mutant(flipped, domain_flipped);
        // The first clause always has a nonempty effective region, so the
        // flip must move that region across the permit/deny divide.
        ASSERT_FALSE(original.permitted().equivalent(mutant.permitted()))
            << net.name << " acl " << acl.id;
        ++mutated;
        break;
      }
    }
  }
  EXPECT_GT(mutated, 0u);
}

TEST(SymbolicDifferential, IntentReportsByteIdenticalAcrossThreadCounts) {
  // An intent-bearing network runs RD052 (plus everything else) at 1, 2 and
  // 8 threads; the serialized reports must be byte-identical.
  const std::vector<std::string> texts{
      "hostname edge\n"
      "! rd-intent deny 10.1.0.0/24 10.3.0.0/24\n"
      "! rd-intent deny 10.1.0.0/24 10.2.0.0/24\n"
      "! rd-intent allow 10.1.0.0/24 10.2.0.0/24 udp 53\n"
      "interface FastEthernet0/0\n"
      " ip address 10.1.0.1 255.255.255.0\n"
      " ip access-group 101 in\n"
      "interface FastEthernet0/1\n"
      " ip address 10.2.0.1 255.255.255.0\n"
      "interface FastEthernet0/2\n"
      " ip address 10.3.0.1 255.255.255.0\n"
      "router ospf 1\n"
      " network 10.0.0.0 0.255.255.255 area 0\n"
      "access-list 101 deny ip any 10.3.0.0 0.0.0.255\n"
      "access-list 101 deny tcp any any eq 1433\n"
      "access-list 101 permit ip any any\n"};
  std::vector<config::RouterConfig> configs;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    configs.push_back(config::parse_config(texts[i], "edge.cfg").config);
  }
  const auto network = model::Network::build(std::move(configs));
  const auto engine = RuleEngine::with_default_rules();

  const auto serial = engine.run(network);
  const auto serial_json = findings_to_json(engine, serial, "intent-net");
  // RD052 fired: the second intent is violated (10.2/24 is mostly open).
  bool saw_intent_violation = false;
  for (const auto& f : serial.findings) {
    if (f.rule_id == "RD052") saw_intent_violation = true;
  }
  EXPECT_TRUE(saw_intent_violation);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const auto parallel = engine.run(network, pool);
    EXPECT_EQ(findings_to_json(engine, parallel, "intent-net"), serial_json)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace rd::analysis
