#include "inputs.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "impute/imputer.h"
#include "ts/metrics.h"
#include "ts/scenario.h"

namespace perfbench {

using adarts::Result;
using adarts::Rng;
using adarts::Status;
using adarts::data::Category;
using adarts::ts::TimeSeries;

namespace {

std::vector<TimeSeries> Generate(Category category, std::size_t count,
                                 std::size_t length, Rng* rng) {
  adarts::data::GeneratorOptions options;
  options.num_series = count;
  options.length = length;
  options.seed = rng->NextU64();
  return adarts::data::GenerateCategory(category, options);
}

}  // namespace

Result<Inputs> MakeInputs(const InputSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  for (std::size_t k = 0; k < spec.setup_corpora; ++k) {
    std::vector<TimeSeries> corpus;
    for (Category c : spec.corpus_categories) {
      for (TimeSeries& s :
           Generate(c, spec.corpus_per_category, spec.length, &rng)) {
        corpus.push_back(std::move(s));
      }
    }
    in.setup_corpora.push_back(std::move(corpus));
  }
  for (Category c : adarts::data::AllCategories()) {
    for (const std::string& name : spec.pool_scenarios) {
      ADARTS_ASSIGN_OR_RETURN(adarts::ts::Scenario scenario,
                              adarts::ts::FindScenario(name));
      std::vector<TimeSeries> masked =
          Generate(c, spec.pool_set_size, spec.length, &rng);
      ADARTS_RETURN_NOT_OK(adarts::ts::ApplyScenario(scenario, spec.pool_rate,
                                                     &rng, &masked));
      for (const TimeSeries& s : masked) in.pool.push_back(s);
      in.pool_sets.push_back(std::move(masked));
    }
  }
  for (Category c : spec.deltas) {
    in.deltas.push_back(Generate(c, spec.delta_size, spec.length, &rng));
  }
  return in;
}

Result<std::vector<std::vector<double>>> OracleRmse(
    const Inputs& inputs, const std::vector<adarts::impute::Algorithm>& pool) {
  std::vector<std::vector<double>> rmse;
  for (std::size_t s = 0; s < inputs.pool_sets.size(); ++s) {
    const std::vector<TimeSeries>& masked = inputs.pool_sets[s];
    std::vector<std::vector<double>> set_rmse(
        masked.size(), std::vector<double>(pool.size(), -1.0));
    for (std::size_t a = 0; a < pool.size(); ++a) {
      Result<std::vector<TimeSeries>> repaired =
          adarts::impute::CreateImputer(pool[a])->ImputeSet(masked);
      if (!repaired.ok()) continue;
      for (std::size_t i = 0; i < masked.size(); ++i) {
        // Masking keeps the hidden truth under the mask; the wire encoding
        // of requests sends NaN there instead.
        Result<double> r =
            adarts::ts::ImputationRmse(masked[i], (*repaired)[i]);
        if (r.ok()) set_rmse[i][a] = *r;
      }
    }
    for (auto& row : set_rmse) rmse.push_back(std::move(row));
  }
  return rmse;
}

Result<double> Regret(const std::vector<std::vector<double>>& rmse,
                      const std::vector<std::size_t>& recommended) {
  if (rmse.size() != recommended.size() || rmse.empty()) {
    return Status::InvalidArgument("regret: pool and recommendations differ");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < rmse.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (double r : rmse[i]) {
      if (r >= 0.0) best = std::min(best, r);
    }
    const double served = rmse[i][recommended[i]];
    if (served < 0.0) {
      return Status::Internal("regret: the served algorithm failed on pool "
                              "series " + std::to_string(i));
    }
    if (!(best > 0.0)) {
      return Status::Internal("regret: no positive oracle RMSE for pool "
                              "series " + std::to_string(i));
    }
    total += served / best - 1.0;
  }
  return total / static_cast<double>(rmse.size());
}

}  // namespace perfbench
