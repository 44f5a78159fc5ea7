// Figures 9 & 10 / sections 5.1 and 6.1: the net5 case study.
//
// The paper's facts about net5: 881 routers; 14 BGP ASs all internal to the
// network; 24 routing instances ranging from 445 routers down to a single
// router; EBGP to 16 external ASs; EIGRP used as an inter-domain protocol
// between the BGP compartments; 6 redundant routers redistributing between
// the 445-router EIGRP instance and its BGP instance; and a route pathway
// for a mid-network router that crosses at least 3 layers of protocols.

#include <algorithm>
#include <cstdio>
#include <set>

#include "analysis/egress.h"
#include "analysis/vulnerability.h"
#include "graph/dot.h"
#include "graph/instances.h"
#include "graph/pathway.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/table.h"

int main() {
  using namespace rd;
  std::printf(
      "==============================================================\n"
      "Figures 9-10: the net5 case study\n"
      "Reproduces: Maltz et al., SIGCOMM 2004, Figures 9, 10; sections "
      "5.1, 6.1\n"
      "==============================================================\n\n");

  const auto net5 = synth::make_net5();
  const auto network = model::Network::build(synth::reparse(net5.configs));
  const auto ig = graph::InstanceGraph::build(network);
  const auto& instances = ig.set;

  std::set<std::uint32_t> internal_ases;
  std::size_t external_sessions = 0;
  for (const auto& inst : instances.instances) {
    if (inst.bgp_as) internal_ases.insert(*inst.bgp_as);
  }
  std::set<std::uint32_t> external_peer_ases;
  for (const auto& session : network.bgp_sessions()) {
    if (session.external()) {
      ++external_sessions;
      external_peer_ases.insert(session.remote_as);
    }
  }

  util::Table facts({"fact", "measured", "paper"});
  facts.add_row({"routers",
                 util::fmt_int(static_cast<long long>(network.router_count())),
                 "881"});
  facts.add_row({"routing instances",
                 util::fmt_int(static_cast<long long>(
                     instances.instances.size())),
                 "24"});
  std::size_t largest = 0;
  std::size_t smallest = ~0ull;
  for (const auto& inst : instances.instances) {
    if (config::is_conventional_igp(inst.protocol)) {
      largest = std::max(largest, inst.router_count());
      smallest = std::min(smallest, inst.router_count());
    }
  }
  facts.add_row({"largest instance (routers)",
                 util::fmt_int(static_cast<long long>(largest)), "445"});
  facts.add_row({"smallest instance (routers)",
                 util::fmt_int(static_cast<long long>(smallest)), "1"});
  facts.add_row({"internal BGP ASs",
                 util::fmt_int(static_cast<long long>(internal_ases.size())),
                 "14"});
  facts.add_row({"external peer ASs",
                 util::fmt_int(static_cast<long long>(
                     external_peer_ases.size())),
                 "16"});
  std::printf("%s\n", facts.to_string().c_str());

  // Figure 9: the instance structure around the three large EIGRP
  // compartments.
  std::printf("routing instances by size (Figure 9's key):\n");
  std::vector<std::uint32_t> order(instances.instances.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return instances.instances[a].router_count() >
           instances.instances[b].router_count();
  });
  for (const auto i : order) {
    std::printf("  %s\n", graph::instance_label(instances, i).c_str());
  }

  // Section 5.1: "how many routers need to fail before instance 1 is
  // partitioned from instance 2?" — redundancy of the redistribution points.
  const auto redundancy = analysis::redistribution_redundancy(ig);
  std::size_t best_redundancy = 0;
  for (const auto& entry : redundancy) {
    best_redundancy =
        std::max(best_redundancy, entry.connecting_routers.size());
  }
  std::printf("\nlargest redistribution redundancy group: %zu routers "
              "(paper: 6 routers back each other up between the 445-router "
              "EIGRP instance and its BGP instance)\n",
              best_redundancy);

  // Figure 10: the pathway of a router deep inside the 445-router instance.
  std::uint32_t largest_instance = order.front();
  const auto& members = instances.instances[largest_instance].routers;
  const auto deep_router = members[members.size() / 2];
  const auto pathway = graph::compute_pathway(network, ig, deep_router);
  std::printf("route pathway of router '%s' (mid-compartment, Figure 10):\n"
              "  layers of protocols/redistribution to the external world: "
              ">= %u (paper: at least 3)\n"
              "  reaches external world: %s\n",
              network.routers()[deep_router].hostname.c_str(),
              pathway.max_depth + 1,
              pathway.reaches_external ? "yes" : "no");

  // Section 5.1's egress question: which of the 16 external peering points
  // can the deep router's compartment actually use?
  {
    const auto egress = analysis::EgressAnalysis::run(network, instances);
    const auto usable =
        egress.router_egress(network, instances, deep_router);
    std::printf("\negress points usable by '%s': %zu of %zu external "
                "peering points (the section 5.1 question: which egress "
                "will packets use?)\n",
                network.routers()[deep_router].hostname.c_str(),
                usable.size(), egress.points().size());
  }

  std::printf("\nEIGRP serves as the inter-instance glue (section 6.1): "
              "tagged redistribution avoids any network-wide IBGP mesh.\n");
  std::size_t ibgp = 0;
  for (const auto& session : network.bgp_sessions()) {
    if (!session.external() && !session.ebgp()) ++ibgp;
  }
  std::printf("IBGP sessions in net5: %zu (no full mesh; external sessions: "
              "%zu)\n",
              ibgp, external_sessions);
  return 0;
}
