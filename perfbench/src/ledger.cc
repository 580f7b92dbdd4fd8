#include "ledger.h"

#include <algorithm>

#include "adarts/stages.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "common/trace.h"
#include "features/feature_extractor.h"
#include "impute/imputer.h"
#include "net/protocol.h"
#include "tda/delay_embedding.h"
#include "tda/diagram_stats.h"
#include "tda/persistence.h"
#include "ts/acf.h"

namespace perfbench {

using adarts::Result;
using adarts::Status;
using adarts::TraceSpan;
namespace net = adarts::net;

std::string EliteSpecs(const adarts::automl::ModelRaceReport& report) {
  std::string out;
  for (const auto& elite : report.elites) out += elite.spec.ToString() + ";";
  return out;
}

Status ReplayRequestPath(const adarts::Adarts& engine,
                         const std::vector<std::string>& bodies, int reps,
                         Ledger* ledger) {
  const adarts::features::FeatureExtractorOptions& options =
      engine.feature_extractor().options();
  if (options.missingness || !options.topological || !options.statistical) {
    return Status::FailedPrecondition(
        "request-path replay assumes the default feature groups");
  }
  adarts::features::FeatureExtractorOptions statistical_options = options;
  statistical_options.topological = false;
  const adarts::features::FeatureExtractor statistical(statistical_options);

  double h1_pairs = 0.0;
  std::size_t series = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& body : bodies) {
      Result<net::Request> request = [&] {
        TraceSpan span("net.decode");
        return net::DecodeRequest(body);
      }();
      if (!request.ok()) return request.status();
      const adarts::ts::TimeSeries& faulty = request->series.at(0);

      Result<adarts::impute::Algorithm> recommended = [&] {
        TraceSpan span("adarts.recommend");
        return engine.Recommend(faulty);
      }();
      if (!recommended.ok()) return recommended.status();

      Result<adarts::la::Vector> composed = [&] {
        TraceSpan span("features.statistical");
        return statistical.Extract(faulty);
      }();
      if (!composed.ok()) return composed.status();

      // The extractor's own preamble to the topological group: interpolate
      // and z-normalise (microseconds; left outside the spans).
      adarts::la::Vector z = adarts::features::InterpolateMissing(faulty);
      const double mean = adarts::la::Mean(z);
      double sd = adarts::la::StdDev(z);
      if (sd <= 0.0) sd = 1.0;
      for (double& x : z) x = (x - mean) / sd;

      std::size_t tau = options.embedding_tau;
      if (tau == 0) {
        TraceSpan span("tda.tau");
        tau = std::max<std::size_t>(
            adarts::ts::FirstAcfCrossing(
                z, std::min<std::size_t>(z.size() / 4, 32)),
            1);
      }
      Result<adarts::tda::PointCloud> embedded = [&] {
        TraceSpan span("tda.embed");
        auto cloud = adarts::tda::DelayEmbed(z, options.embedding_dimension,
                                             tau);
        if (!cloud.ok()) {
          cloud = adarts::tda::DelayEmbed(z, options.embedding_dimension, 1);
        }
        return cloud;
      }();
      adarts::tda::DiagramStats h0, h1;
      if (embedded.ok() && embedded->size() >= 3) {
        adarts::tda::PointCloud landmarks = [&] {
          TraceSpan span("tda.landmarks");
          return adarts::tda::MaxMinLandmarks(*embedded, options.landmarks);
        }();
        Result<adarts::tda::PersistenceDiagram> diagram = [&] {
          TraceSpan span("tda.rips");
          return adarts::tda::ComputeRipsPersistence(landmarks);
        }();
        if (diagram.ok()) {
          TraceSpan span("tda.diagram_stats");
          h0 = adarts::tda::ComputeDiagramStats(*diagram, 0);
          h1 = adarts::tda::ComputeDiagramStats(*diagram, 1);
          h1_pairs += static_cast<double>(diagram->Dimension(1).size());
        }
      }
      for (double x : adarts::tda::DiagramStatsToVector(h0)) {
        composed->push_back(x);
      }
      for (double x : adarts::tda::DiagramStatsToVector(h1)) {
        composed->push_back(x);
      }
      ++series;

      Result<adarts::la::Vector> features = engine.ExtractFeatures(faulty);
      if (!features.ok()) return features.status();
      if (*features != *composed) {
        return Status::Internal(
            "request-path replay: composed features differ from "
            "Adarts::ExtractFeatures");
      }
      {
        TraceSpan span("automl.vote");
        const adarts::la::Vector p = engine.PredictProba(*features);
        if (p.empty()) return Status::Internal("empty committee vote");
      }
      net::Response response;
      response.type = net::MessageType::kRecommend;
      response.id = request->id;
      response.algorithms.emplace_back(
          adarts::impute::AlgorithmToString(*recommended));
      response.engine_version = engine.engine_version();
      TraceSpan span("net.encode");
      const std::string encoded = net::EncodeResponse(response);
      if (encoded.empty()) return Status::Internal("empty response frame");
    }
  }
  (*ledger)["tda.h1_pairs"] = h1_pairs / static_cast<double>(series);
  (*ledger)["automl.committee_size"] =
      static_cast<double>(engine.committee_size());
  return Status::OK();
}

Status ReplayTrainingStages(const std::vector<adarts::ts::TimeSeries>& corpus,
                            const adarts::TrainOptions& options,
                            std::size_t threads,
                            const std::string& trained_elites,
                            Ledger* ledger) {
  if (!options.use_cluster_labeling) {
    return Status::FailedPrecondition("stage replay needs cluster labeling");
  }
  adarts::ExecContext ctx(threads);
  adarts::Rng rng(options.seed);
  Result<adarts::ClusterStageState> clusters = [&] {
    TraceSpan span("cluster.stage");
    return adarts::ClusterStage(corpus, options, ctx);
  }();
  if (!clusters.ok()) return clusters.status();
  Result<adarts::LabelStageState> labeled = [&] {
    TraceSpan span("labeling.stage");
    return adarts::LabelStage(corpus, &clusters->clustering, options, &rng,
                              ctx);
  }();
  if (!labeled.ok()) return labeled.status();
  Result<adarts::RaceStageState> race = [&] {
    TraceSpan span("race.stage");
    return adarts::RaceStage(labeled->labeled, options.race,
                             options.race_train_fraction, nullptr, &rng, ctx);
  }();
  if (!race.ok()) return race.status();
  Result<adarts::CommitteeStageState> committee = [&] {
    TraceSpan span("committee.stage");
    return adarts::CommitteeStage(race->report, labeled->labeled, ctx);
  }();
  if (!committee.ok()) return committee.status();
  if (EliteSpecs(race->report) != trained_elites) {
    return Status::Internal(
        "stage replay raced to other elites than Adarts::Train");
  }

  const adarts::StageMetrics m = ctx.metrics().Snapshot();
  const adarts::HistogramSnapshot impute = m.Histogram("label.impute");
  Ledger& l = *ledger;
  l["stage.replays"] += 1.0;
  l["cluster.splits"] += static_cast<double>(m.Counter("cluster.splits"));
  l["cluster.merges"] += static_cast<double>(m.Counter("cluster.merges"));
  l["cluster.moves"] += static_cast<double>(m.Counter("cluster.moves"));
  l["cluster.candidates"] +=
      static_cast<double>(m.Histogram("cluster.candidate").count);
  l["labeling.imputation_runs"] +=
      static_cast<double>(m.Counter("label.imputation_runs"));
  l["labeling.impute_p50_ms"] += static_cast<double>(impute.p50_ns) / 1e6;
  l["features.train_s"] += m.SpanSeconds("train.features_seconds");
  l["race.pipelines_evaluated"] +=
      static_cast<double>(m.Counter("race.pipelines_evaluated"));
  l["race.pipelines_eliminated"] +=
      static_cast<double>(m.Counter("race.pipelines_eliminated"));
  l["race.elites"] += static_cast<double>(race->report.elites.size());
  l["race.eval_s"] +=
      static_cast<double>(m.Histogram("race.eval").sum_ns) / 1e9;
  l["race.threads"] = static_cast<double>(threads);
  return Status::OK();
}

}  // namespace perfbench
