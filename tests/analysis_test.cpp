#include <gtest/gtest.h>

#include "analysis/archetype.h"
#include "analysis/census.h"
#include "analysis/filters.h"
#include "analysis/roles.h"
#include "analysis/vulnerability.h"
#include "graph/instances.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "testutil.h"

namespace rd::analysis {
namespace {

using rd::test::network_of;

// --- roles (Table 1 semantics) ------------------------------------------------

TEST(Roles, InternalIgpInstanceIsIntra) {
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n",
       "hostname b\ninterface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"});
  const auto counts = classify_roles(net, graph::compute_instances(net));
  const auto& [intra, inter] =
      counts.igp_instances.at(config::RoutingProtocol::kOspf);
  EXPECT_EQ(intra, 1u);
  EXPECT_EQ(inter, 0u);
  EXPECT_FALSE(counts.uses_bgp);
}

TEST(Roles, ExternallyAdjacentIgpInstanceIsInter) {
  // A half-empty /30 covered by OSPF: the IGP serves as an EGP (§5.2).
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"});
  const auto counts = classify_roles(net, graph::compute_instances(net));
  const auto& [intra, inter] =
      counts.igp_instances.at(config::RoutingProtocol::kOspf);
  EXPECT_EQ(intra, 0u);
  EXPECT_EQ(inter, 1u);
}

TEST(Roles, ExternalEbgpSessionIsInter) {
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router bgp 65000\n neighbor 10.0.0.2 remote-as 701\n"});
  const auto counts = classify_roles(net, graph::compute_instances(net));
  EXPECT_EQ(counts.ebgp_inter_sessions, 1u);
  EXPECT_EQ(counts.ebgp_intra_sessions, 0u);
  EXPECT_TRUE(counts.uses_bgp);
}

TEST(Roles, InternalEbgpSessionIsIntraAndCountedOnce) {
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router bgp 65001\n neighbor 10.0.0.2 remote-as 65002\n",
       "hostname b\ninterface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "router bgp 65002\n neighbor 10.0.0.1 remote-as 65001\n"});
  const auto counts = classify_roles(net, graph::compute_instances(net));
  EXPECT_EQ(counts.ebgp_intra_sessions, 1u);
  EXPECT_EQ(counts.ebgp_inter_sessions, 0u);
}

TEST(Roles, IbgpCountedSeparately) {
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router bgp 65001\n neighbor 10.0.0.2 remote-as 65001\n",
       "hostname b\ninterface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "router bgp 65001\n neighbor 10.0.0.1 remote-as 65001\n"});
  const auto counts = classify_roles(net, graph::compute_instances(net));
  EXPECT_EQ(counts.ibgp_sessions, 1u);
  EXPECT_EQ(counts.ebgp_intra_sessions, 0u);
}

TEST(Roles, AccumulationOperator) {
  RoleCounts a;
  a.igp_instances[config::RoutingProtocol::kOspf] = {3, 1};
  a.ebgp_inter_sessions = 5;
  RoleCounts b;
  b.igp_instances[config::RoutingProtocol::kOspf] = {2, 2};
  b.igp_instances[config::RoutingProtocol::kRip] = {1, 0};
  b.uses_bgp = true;
  a += b;
  EXPECT_EQ(a.igp_instances[config::RoutingProtocol::kOspf],
            (std::pair<std::size_t, std::size_t>{5, 3}));
  EXPECT_EQ(a.igp_instances[config::RoutingProtocol::kRip].first, 1u);
  EXPECT_EQ(a.ebgp_inter_sessions, 5u);
  EXPECT_TRUE(a.uses_bgp);
}

// --- filters (Figure 11 semantics) ----------------------------------------------

TEST(Filters, CountsAppliedRulesPerInterface) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n"
       " ip address 10.0.0.1 255.255.255.0\n"
       " ip access-group 101 in\n"
       "interface FastEthernet0/1\n"
       " ip address 10.0.1.1 255.255.255.0\n"
       " ip access-group 101 out\n"
       "access-list 101 deny udp any any eq 1434\n"
       "access-list 101 permit ip any any\n"});
  const auto stats = gather_filter_stats(net);
  EXPECT_EQ(stats.defined_rules, 2u);
  EXPECT_EQ(stats.total_applied_rules, 4u);  // 2 rules x 2 applications
  EXPECT_EQ(stats.interfaces_with_filters, 2u);
  EXPECT_EQ(stats.internal_applied_rules, 4u);
  EXPECT_DOUBLE_EQ(stats.internal_fraction(), 1.0);
}

TEST(Filters, SplitsInternalVsExternal) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n"
       " ip address 10.0.0.1 255.255.255.0\n"
       " ip access-group 7 in\n"
       "interface Serial0/0 point-to-point\n"  // half-empty /30: external
       " ip address 10.9.0.1 255.255.255.252\n"
       " ip access-group 7 in\n"
       "access-list 7 permit any\n"});
  const auto stats = gather_filter_stats(net);
  EXPECT_EQ(stats.internal_applied_rules, 1u);
  EXPECT_EQ(stats.external_applied_rules, 1u);
  EXPECT_DOUBLE_EQ(stats.internal_fraction(), 0.5);
}

TEST(Filters, NoFiltersNetwork) {
  const auto net = network_of({"hostname a\n"});
  const auto stats = gather_filter_stats(net);
  EXPECT_FALSE(stats.has_filters());
  EXPECT_DOUBLE_EQ(stats.internal_fraction(), 0.0);
}

TEST(Filters, LargestFilterTracked) {
  std::string text = "hostname a\n";
  for (int i = 0; i < 47; ++i) {
    text += "access-list 150 deny 10.5." + std::to_string(i) +
            ".0 0.0.0.255\n";
  }
  text += "access-list 151 permit any\n";
  const auto net = network_of({text});
  const auto stats = gather_filter_stats(net);
  EXPECT_EQ(stats.largest_filter_rules, 47u);  // the paper's 47-clause filter
  EXPECT_EQ(stats.largest_filter_id, "150");
}

TEST(Filters, InternalTargetsBreakdown) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n"
       " ip address 10.0.0.1 255.255.255.0\n"
       " ip access-group 101 in\n"
       "access-list 101 deny pim any any\n"
       "access-list 101 deny udp any any eq 1434\n"
       "access-list 101 permit 10.0.0.0 0.255.255.255\n"});
  const auto targets = internal_filter_targets(net);
  EXPECT_EQ(targets.at("pim"), 1u);
  EXPECT_EQ(targets.at("udp"), 1u);
  EXPECT_EQ(targets.at("ip"), 1u);  // the standard clause
}

// --- census (Table 3) ------------------------------------------------------------

TEST(Census, CountsHardwareTypes) {
  const auto net = network_of(
      {"hostname a\n"
       "interface Serial0/0\n"
       "interface Serial0/1\n"
       "interface FastEthernet0/0\n"
       "interface Hssi2/0\n"
       "interface BRI0\n"});
  const auto census = interface_census(net);
  EXPECT_EQ(census.at("Serial"), 2u);
  EXPECT_EQ(census.at("FastEthernet"), 1u);
  EXPECT_EQ(census.at("Hssi"), 1u);
  EXPECT_EQ(census.at("BRI"), 1u);
}

TEST(Census, MergeAcrossNetworks) {
  const auto merged = merge_census({{{"Serial", 2}, {"ATM", 1}},
                                    {{"Serial", 3}, {"POS", 4}}});
  EXPECT_EQ(merged.at("Serial"), 5u);
  EXPECT_EQ(merged.at("ATM"), 1u);
  EXPECT_EQ(merged.at("POS"), 4u);
}

TEST(Census, UnnumberedCount) {
  const auto net = network_of(
      {"hostname a\ninterface BRI0\ninterface FastEthernet0/0\n"
       " ip address 10.0.0.1 255.255.255.0\n"});
  EXPECT_EQ(unnumbered_interface_count(net), 1u);
}

// --- archetype classification (§7.1) ----------------------------------------------

TEST(Archetype, ClassifiesSynthBackbone) {
  synth::BackboneParams p;
  p.access_routers = 40;
  p.external_peers = 60;
  const auto net = model::Network::build(
      synth::reparse(synth::make_backbone(p).configs));
  const auto instances = graph::compute_instances(net);
  const auto result = classify_design(net, instances);
  EXPECT_EQ(result.archetype, DesignArchetype::kBackbone);
  EXPECT_FALSE(result.features.bgp_redistributed_into_igp);
  EXPECT_GE(result.features.external_ebgp_sessions, 8u);
}

TEST(Archetype, ClassifiesSynthTextbookEnterprise) {
  synth::TextbookEnterpriseParams p;
  p.routers = 30;
  const auto net = model::Network::build(
      synth::reparse(synth::make_textbook_enterprise(p).configs));
  const auto result = classify_design(net, graph::compute_instances(net));
  EXPECT_EQ(result.archetype, DesignArchetype::kTextbookEnterprise);
  EXPECT_TRUE(result.features.bgp_redistributed_into_igp);
  EXPECT_LE(result.features.bgp_router_count, 2u);
}

TEST(Archetype, Tier2IsUnclassifiableWithStagingInstances) {
  synth::Tier2Params p;
  p.edge_routers = 30;
  const auto net = model::Network::build(
      synth::reparse(synth::make_tier2_isp(p).configs));
  const auto result = classify_design(net, graph::compute_instances(net));
  EXPECT_EQ(result.archetype, DesignArchetype::kUnclassifiable);
  EXPECT_GE(result.features.staging_igp_instances, 10u);
}

TEST(Archetype, NoBgpIsUnclassifiable) {
  synth::NoBgpParams p;
  const auto net = model::Network::build(
      synth::reparse(synth::make_no_bgp_enterprise(p).configs));
  const auto result = classify_design(net, graph::compute_instances(net));
  EXPECT_EQ(result.archetype, DesignArchetype::kUnclassifiable);
  EXPECT_FALSE(result.features.uses_bgp);
}

TEST(Archetype, MergedHybridHasInternalEbgp) {
  synth::MergedHybridParams p;
  const auto net = model::Network::build(
      synth::reparse(synth::make_merged_hybrid(p).configs));
  const auto result = classify_design(net, graph::compute_instances(net));
  EXPECT_EQ(result.archetype, DesignArchetype::kUnclassifiable);
  EXPECT_GE(result.features.internal_ebgp_sessions, 1u);
  EXPECT_EQ(result.features.internal_as_count, 2u);
  EXPECT_TRUE(result.features.bgp_redistributed_into_igp);
}

TEST(Archetype, ToString) {
  EXPECT_EQ(to_string(DesignArchetype::kBackbone), "backbone");
  EXPECT_EQ(to_string(DesignArchetype::kTextbookEnterprise),
            "textbook-enterprise");
  EXPECT_EQ(to_string(DesignArchetype::kUnclassifiable), "unclassifiable");
}

// --- vulnerability assessment (§8.1) -----------------------------------------------

TEST(Vulnerability, RedundancyGroupsOfNet5Borders) {
  const auto net5 = synth::make_net5();
  const auto net = model::Network::build(synth::reparse(net5.configs));
  const auto graph = graph::InstanceGraph::build(net);
  const auto redundancy = redistribution_redundancy(graph);
  // The 445-router region reaches its BGP instance through 6 redundant
  // redistribution routers (the paper's §5.1 observation).
  bool found_six = false;
  for (const auto& entry : redundancy) {
    if (entry.connecting_routers.size() == 6) found_six = true;
  }
  EXPECT_TRUE(found_six);
}

TEST(Vulnerability, SinglePointOfFailureFlagged) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n ip address 10.0.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.1.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
       "router eigrp 9\n network 10.1.0.0 0.0.255.255\n"
       " redistribute ospf 1\n"});
  const auto graph = graph::InstanceGraph::build(net);
  const auto redundancy = redistribution_redundancy(graph);
  ASSERT_EQ(redundancy.size(), 1u);
  EXPECT_TRUE(redundancy[0].single_point_of_failure());
}

TEST(Vulnerability, UnfilteredExternalBgpSessionFlagged) {
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.9.0.1 255.255.255.252\n"
       "router bgp 65000\n neighbor 10.9.0.2 remote-as 701\n"});
  const auto findings = find_unfiltered_external_connections(net);
  ASSERT_FALSE(findings.empty());
  EXPECT_TRUE(findings[0].missing_route_filter);
  EXPECT_TRUE(findings[0].missing_packet_filter);
}

TEST(Vulnerability, FilteredExternalSessionNotFlagged) {
  const auto net = network_of(
      {"hostname a\ninterface Serial0/0 point-to-point\n"
       " ip address 10.9.0.1 255.255.255.252\n"
       " ip access-group 120 in\n"
       "router bgp 65000\n"
       " neighbor 10.9.0.2 remote-as 701\n"
       " neighbor 10.9.0.2 distribute-list 44 in\n"
       "access-list 120 permit ip any any\n"
       "access-list 44 permit any\n"});
  EXPECT_TRUE(find_unfiltered_external_connections(net).empty());
}

TEST(Vulnerability, BackdoorCandidatesFound) {
  // Two OSPF islands, each with its own external BGP exit, never exchanging
  // routes internally: the §8.2 backdoor scenario (net15 is exactly this —
  // but there the policies close the backdoor too).
  const auto net = network_of(
      {"hostname L\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.9.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"
       " redistribute bgp 65001\n"
       "router bgp 65001\n neighbor 10.9.0.2 remote-as 701\n",
       "hostname R\n"
       "interface FastEthernet0/0\n ip address 10.2.0.1 255.255.255.0\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.9.0.5 255.255.255.252\n"
       "router ospf 1\n network 10.2.0.0 0.0.255.255 area 0\n"
       " redistribute bgp 65002\n"
       "router bgp 65002\n neighbor 10.9.0.6 remote-as 702\n"});
  const auto graph = graph::InstanceGraph::build(net);
  const auto backdoors = detect_backdoor_candidates(graph);
  EXPECT_EQ(backdoors.groups, 2u);
  EXPECT_EQ(backdoors.group_representatives.size(), 2u);
}

TEST(Vulnerability, NoBackdoorWhenInternallyConnected) {
  // Same two islands glued by internal redistribution: one group.
  const auto net = network_of(
      {"hostname L\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.2.0.1 255.255.255.0\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.9.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"
       " redistribute eigrp 9\n"
       " redistribute bgp 65001\n"
       "router eigrp 9\n network 10.2.0.0 0.0.255.255\n"
       "router bgp 65001\n neighbor 10.9.0.2 remote-as 701\n"});
  const auto graph = graph::InstanceGraph::build(net);
  const auto backdoors = detect_backdoor_candidates(graph);
  EXPECT_LE(backdoors.groups, 1u);
  EXPECT_TRUE(backdoors.group_representatives.empty());
}

TEST(Vulnerability, Net15IsABackdoorCandidate) {
  // net15's two sites share nothing internally yet both exit to public
  // ASs — the textbook §8.2 candidate (its policies then close the door,
  // which only dynamic data could confirm, as the paper notes).
  const auto net15 = synth::make_net15();
  const auto net = model::Network::build(synth::reparse(net15.configs));
  const auto graph = graph::InstanceGraph::build(net);
  const auto backdoors = detect_backdoor_candidates(graph);
  EXPECT_EQ(backdoors.groups, 2u);
}

TEST(Vulnerability, SharedStaticDestinations) {
  const auto net = network_of(
      {"hostname a\nip route 171.5.0.0 255.255.0.0 10.0.0.9\n",
       "hostname b\nip route 171.5.0.0 255.255.0.0 10.0.1.9\n",
       "hostname c\nip route 171.6.0.0 255.255.0.0 10.0.2.9\n"});
  const auto shared = shared_static_destinations(net);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0].destination.to_string(), "171.5.0.0/16");
  EXPECT_EQ(shared[0].routers.size(), 2u);
}

}  // namespace
}  // namespace rd::analysis
