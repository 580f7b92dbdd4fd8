#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <map>
#include <string>
#include <vector>

#include "adarts/adarts.h"
#include "common/status.h"
#include "ts/time_series.h"

namespace perfbench {

/// Per-layer values that are counts or come from the engine's own
/// `ExecContext` metrics. Layer times come from the trace spans the replays
/// below record around each call (`common/trace` `TraceSpan`), summarized
/// afterwards by `tools/trace_stats`.
using Ledger = std::map<std::string, double>;

/// Replays the request path in process, `reps` times over every encoded
/// request in `bodies`: `net.decode` (DecodeRequest), `adarts.recommend`
/// (Adarts::Recommend), then the extractor's own composition of public
/// functions — `features.statistical` (an extractor with topological=false),
/// `tda.tau` (ts::FirstAcfCrossing), `tda.embed`, `tda.landmarks`,
/// `tda.rips`, `tda.diagram_stats` — then `automl.vote`
/// (Adarts::PredictProba) and `net.encode` (EncodeResponse). Fails when the
/// composed feature vector differs from `Adarts::ExtractFeatures`, which
/// would mean the replay no longer times what Recommend runs. Adds
/// `tda.h1_pairs` (mean per series) and `automl.committee_size`.
adarts::Status ReplayRequestPath(const adarts::Adarts& engine,
                                 const std::vector<std::string>& bodies,
                                 int reps, Ledger* ledger);

/// Replays training on `corpus` by calling the adarts/stages.h stages in
/// `Adarts::Train`'s order, each under its own span (`cluster.stage`,
/// `labeling.stage`, `race.stage`, `committee.stage`), on a fresh
/// `ExecContext` of `threads` workers. Fails when the replay's race elites
/// differ from `trained_elites` (EliteSpecs of the engine Adarts::Train
/// built from the same corpus) — with race.gamma = 0 both runs must do the
/// same work. Accumulates the stages' counters into `ledger` (sums over
/// calls).
adarts::Status ReplayTrainingStages(
    const std::vector<adarts::ts::TimeSeries>& corpus,
    const adarts::TrainOptions& options, std::size_t threads,
    const std::string& trained_elites, Ledger* ledger);

/// The race elites of a training, as one comparable string.
std::string EliteSpecs(const adarts::automl::ModelRaceReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
