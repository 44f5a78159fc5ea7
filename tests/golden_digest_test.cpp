// Golden byte-identity digests. Refactors that promise unchanged output
// (sharing an artifact instead of re-deriving it, deleting a duplicate
// derivation) must leave every byte below as it was; a SHA-1 of each
// output pins it without committing megabytes of expected text. The
// digests were recorded before the analysis code they cover was last
// restructured. When output changes on purpose, re-record them from the
// "actual" values this test prints and say why in the commit.
//
// Covered: the fleet report's "redistribution" section and metric counters
// for every seed-1 fleet network with cross-instance edges, the RD060-RD064
// JSON findings on every planted defect the mutation differential grades,
// and the audit and what-if report text of the seed-1 managed enterprise.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/rules.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "model/network.h"
#include "pipeline/pipeline.h"
#include "serve/queries.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "synth/mutate.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace rd {
namespace {

const synth::Fleet& fleet() {
  static const synth::Fleet f = synth::generate_fleet(1);
  return f;
}

TEST(GoldenDigest, FleetRedistributionSectionsAndCounters) {
  std::vector<pipeline::FleetInput> inputs;
  for (const auto& net : fleet().networks) {
    std::vector<std::string> texts;
    for (const auto& cfg : net.configs) {
      texts.push_back(config::write_config(cfg));
    }
    inputs.push_back({net.name, std::move(texts)});
  }
  util::ThreadPool pool(4);
  const auto reports = pipeline::analyze_fleet_parallel(inputs, pool);
  std::string digested;
  std::size_t with_edges = 0;
  for (const auto& report : reports) {
    const auto doc = util::Json::parse(report.json);
    ASSERT_TRUE(doc.has_value()) << report.name;
    const auto* flow = doc->get("redistribution");
    if (flow == nullptr) continue;  // no cross-instance edges
    ++with_edges;
    digested += report.name + "\n" + flow->dump() + "\n" +
                doc->get("metrics")->get("counters")->dump() + "\n";
  }
  EXPECT_EQ(with_edges, 23u);
  EXPECT_EQ(util::Sha1::hex(digested),
            "04447385cbba42aecbce716e3acc1f060519e5a8");
}

TEST(GoldenDigest, RedistributionBandFindingsOnPlantedDefects) {
  // The registered RD060-RD064 rules alone, on the plants the mutation
  // differential picks: per defect kind and seed, the first eligible
  // fleet network.
  const auto all = analysis::RuleEngine::with_default_rules();
  analysis::RuleEngine band;
  for (const auto& rule : all.rules()) {
    if (rule.info.id >= "RD060" && rule.info.id <= "RD064") {
      band.add(rule.info, rule.fn);
    }
  }
  ASSERT_EQ(band.rules().size(), 5u);
  std::string digested;
  std::size_t plants = 0;
  for (const synth::DefectKind kind :
       {synth::DefectKind::kRedistributionLoop, synth::DefectKind::kMetricLoss,
        synth::DefectKind::kDistanceInversion,
        synth::DefectKind::kUnfilteredMutual,
        synth::DefectKind::kSinglePointRedistribution}) {
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
      for (const auto& net : fleet().networks) {
        synth::SynthNetwork copy = net;
        if (!synth::inject_defect(copy, kind, seed)) continue;
        ++plants;
        const auto network =
            model::Network::build(synth::reparse(copy.configs));
        digested += analysis::findings_to_json(band, band.run(network),
                                               net.name);
        break;
      }
    }
  }
  EXPECT_EQ(plants, 10u);
  EXPECT_EQ(util::Sha1::hex(digested),
            "527b3f602a57f5e04034182f4ee34b307b8551cb");
}

TEST(GoldenDigest, ManagedEnterpriseAuditAndWhatIfText) {
  synth::ManagedEnterpriseParams params;
  params.seed = 1;
  const auto network = model::Network::build(
      synth::reparse(synth::make_managed_enterprise(params).configs));
  const auto ig = graph::InstanceGraph::build(network);
  util::ThreadPool pool(4);
  const auto audit = serve::audit_report(network, ig, pool);
  const auto whatif = serve::whatif_report(network, ig, pool);
  EXPECT_EQ(audit.exit_code, 0);
  EXPECT_EQ(whatif.exit_code, 0);
  EXPECT_EQ(util::Sha1::hex(audit.output),
            "1a2483e1699036eacc445d3d6dbb93d3deab8a79");
  EXPECT_EQ(util::Sha1::hex(whatif.output),
            "93afa6e5c03e581a991c479f3b325a8cb02c5281");
}

}  // namespace
}  // namespace rd
