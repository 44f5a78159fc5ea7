#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/reachability.h"
#include "analysis/vulnerability.h"
#include "analysis/whatif.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "testutil.h"

namespace rd::analysis {
namespace {

using rd::test::network_of;

std::string chain_router(int index, bool left_link, bool right_link) {
  // Router i with /30s to i-1 (10.0.0.(4i)/30) and i+1 (10.0.0.(4i+4)/30),
  // all covered by OSPF.
  std::string text = "hostname r" + std::to_string(index) + "\n";
  if (left_link) {
    text += "interface Serial0/0 point-to-point\n ip address 10.0.0." +
            std::to_string(4 * index + 2) + " 255.255.255.252\n";
  }
  if (right_link) {
    text += "interface Serial0/1 point-to-point\n ip address 10.0.0." +
            std::to_string(4 * index + 5) + " 255.255.255.252\n";
  }
  text += "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n";
  return text;
}

/// A 5-router OSPF chain r0 - r1 - r2 - r3 - r4.
model::Network chain_network() {
  std::vector<std::string> texts;
  for (int i = 0; i < 5; ++i) {
    texts.push_back(chain_router(i, i > 0, i < 4));
  }
  return network_of(texts);
}

TEST(WithoutRouters, RemovesConfigs) {
  const auto net = chain_network();
  const auto after = without_routers(net, {1, 3});
  EXPECT_EQ(after.router_count(), 3u);
  EXPECT_EQ(after.routers()[0].hostname, "r0");
  EXPECT_EQ(after.routers()[1].hostname, "r2");
  EXPECT_EQ(after.routers()[2].hostname, "r4");
}

TEST(SimulateFailure, MiddleOfChainFragmentsInstance) {
  const auto net = chain_network();
  const auto baseline = graph::compute_instances(net);
  ASSERT_EQ(baseline.instances.size(), 1u);
  const auto impact = simulate_router_failure(net, baseline, {2});
  EXPECT_EQ(impact.instances_before, 1u);
  EXPECT_EQ(impact.instances_after, 2u);
  ASSERT_EQ(impact.fragmented_instances.size(), 1u);
  EXPECT_TRUE(impact.disconnects_something());
}

TEST(SimulateFailure, EndOfChainIsHarmless) {
  const auto net = chain_network();
  const auto baseline = graph::compute_instances(net);
  const auto impact = simulate_router_failure(net, baseline, {0});
  EXPECT_EQ(impact.instances_after, 1u);
  EXPECT_TRUE(impact.fragmented_instances.empty());
  EXPECT_FALSE(impact.disconnects_something());
}

TEST(SimulateFailure, SoleRedistributorSeversPair) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.2.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"
       "router eigrp 9\n network 10.2.0.0 0.0.255.255\n"
       " redistribute ospf 1\n"});
  const auto baseline = graph::compute_instances(net);
  const auto impact = simulate_router_failure(net, baseline, {0});
  EXPECT_EQ(impact.severed_instance_pairs, 1u);
  EXPECT_TRUE(impact.disconnects_something());
}

TEST(Articulation, ChainMiddleRoutersAreCutVertices) {
  const auto net = chain_network();
  const auto instances = graph::compute_instances(net);
  const auto cuts = instance_articulation_routers(net, instances);
  // r1, r2, r3 are articulation points of the 5-chain.
  ASSERT_EQ(cuts.size(), 3u);
  std::vector<model::RouterId> routers;
  for (const auto& cut : cuts) routers.push_back(cut.router);
  std::sort(routers.begin(), routers.end());
  EXPECT_EQ(routers, (std::vector<model::RouterId>{1, 2, 3}));
}

TEST(Articulation, RingHasNoCutVertices) {
  // A 4-ring: every router has two disjoint paths to every other.
  std::vector<std::string> texts;
  for (int i = 0; i < 4; ++i) {
    const int left = ((i + 3) % 4) * 4;   // link id shared with predecessor
    const int right = i * 4;
    std::string text = "hostname ring" + std::to_string(i) + "\n";
    text += "interface Serial0/0 point-to-point\n ip address 10.0.0." +
            std::to_string(left + 2) + " 255.255.255.252\n";
    text += "interface Serial0/1 point-to-point\n ip address 10.0.0." +
            std::to_string(right + 1) + " 255.255.255.252\n";
    text += "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n";
    texts.push_back(text);
  }
  const auto net = network_of(texts);
  const auto instances = graph::compute_instances(net);
  ASSERT_EQ(instances.instances.size(), 1u);
  ASSERT_EQ(instances.instances[0].router_count(), 4u);
  EXPECT_TRUE(instance_articulation_routers(net, instances).empty());
}

TEST(Articulation, HubAndSpokeHubIsTheCut) {
  std::vector<std::string> texts;
  std::string hub = "hostname hub\n";
  for (int s = 0; s < 4; ++s) {
    hub += "interface Serial0/" + std::to_string(s) +
           " point-to-point\n ip address 10.0.0." + std::to_string(4 * s + 1) +
           " 255.255.255.252\n";
    texts.push_back("hostname spoke" + std::to_string(s) +
                    "\ninterface Serial0/0 point-to-point\n ip address "
                    "10.0.0." +
                    std::to_string(4 * s + 2) +
                    " 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 "
                    "0.0.255.255 area 0\n");
  }
  hub += "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n";
  texts.insert(texts.begin(), hub);
  const auto net = network_of(texts);
  const auto instances = graph::compute_instances(net);
  const auto cuts = instance_articulation_routers(net, instances);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(net.routers()[cuts[0].router].hostname, "hub");
}

TEST(Articulation, IbgpMeshHasNoCuts) {
  // Three routers in an IBGP full mesh over a shared LAN.
  std::vector<std::string> texts;
  for (int i = 0; i < 3; ++i) {
    std::string text = "hostname b" + std::to_string(i) +
                       "\ninterface FastEthernet0/0\n ip address 10.0.0." +
                       std::to_string(i + 1) + " 255.255.255.0\n";
    text += "router bgp 65000\n";
    for (int j = 0; j < 3; ++j) {
      if (j != i) {
        text += " neighbor 10.0.0." + std::to_string(j + 1) +
                " remote-as 65000\n";
      }
    }
    texts.push_back(text);
  }
  const auto net = network_of(texts);
  const auto instances = graph::compute_instances(net);
  ASSERT_EQ(instances.instances.size(), 1u);
  EXPECT_TRUE(instance_articulation_routers(net, instances).empty());
}

TEST(SoleRedistribution, FindsSingletons) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.2.0.1 255.255.255.0\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"
       "router eigrp 9\n network 10.2.0.0 0.0.255.255\n"
       " redistribute ospf 1\n"});
  const auto graph = graph::InstanceGraph::build(net);
  const auto sole = sole_redistribution_routers(graph);
  ASSERT_EQ(sole.size(), 1u);
  EXPECT_EQ(sole[0], 0u);
}

TEST(SimulateFailure, ReachabilityUnderFailureScenario) {
  // The §3.1 question: "what destinations will be reachable from a
  // particular router under any given failure scenario". An OSPF island
  // learns an EIGRP island's routes through one redistribution router;
  // failing it removes those destinations from the survivors' RIBs.
  const auto net = network_of(
      {"hostname ospf-a\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
       "hostname bridge\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.0.0.2 255.255.255.252\n"
       "interface Serial0/1 point-to-point\n"
       " ip address 10.1.0.1 255.255.255.252\n"
       "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
       " redistribute eigrp 9\n"
       "router eigrp 9\n network 10.1.0.0 0.0.255.255\n",
       "hostname eigrp-c\n"
       "interface Serial0/0 point-to-point\n"
       " ip address 10.1.0.2 255.255.255.252\n"
       "interface FastEthernet0/0\n"
       " ip address 10.1.5.1 255.255.255.0\n"
       "router eigrp 9\n"
       " network 10.1.0.0 0.0.255.255\n"});
  const auto instances = graph::compute_instances(net);
  const auto reach_before = ReachabilityAnalysis::run(net, instances);
  const auto dest = rd::test::addr("10.1.5.9");
  // Before: the OSPF instance holds the EIGRP LAN.
  const auto ospf_instance = instances.instance_of[0];  // ospf-a's process
  EXPECT_TRUE(reach_before.instance_has_route_to(ospf_instance, dest));

  // Fail the bridge and recompute.
  const auto after = without_routers(net, {1});
  const auto instances_after = graph::compute_instances(after);
  const auto reach_after = ReachabilityAnalysis::run(after, instances_after);
  // ospf-a survives as router 0 of the rebuilt network.
  const auto instance_after = instances_after.instance_of[0];
  EXPECT_FALSE(reach_after.instance_has_route_to(instance_after, dest));
}

TEST(SimulateFailure, Net5SixBorderFailureSeversCompartment) {
  // The paper's §5.1 question: the 445-router compartment is severed from
  // its BGP instance only if all 6 redundant borders fail.
  const auto net5 = synth::make_net5();
  const auto network = model::Network::build(synth::reparse(net5.configs));
  const auto baseline = graph::compute_instances(network);

  // Find the 6-router redundancy group.
  const auto graph = graph::InstanceGraph::build(network);
  std::vector<model::RouterId> six;
  for (const auto& entry : redistribution_redundancy(graph)) {
    if (entry.connecting_routers.size() == 6) {
      six = entry.connecting_routers;
      break;
    }
  }
  ASSERT_EQ(six.size(), 6u);

  // Failing five of the six leaves the pair connected...
  const std::vector<model::RouterId> five(six.begin(), six.end() - 1);
  const auto partial = simulate_router_failure(network, baseline, five);
  EXPECT_EQ(partial.severed_instance_pairs, 0u);
  // ...failing all six severs it.
  const auto total = simulate_router_failure(network, baseline, six);
  EXPECT_GE(total.severed_instance_pairs, 1u);
}

}  // namespace
}  // namespace rd::analysis
