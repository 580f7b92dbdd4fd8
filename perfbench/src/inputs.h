#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/generators.h"
#include "impute/imputer.h"
#include "ts/time_series.h"

namespace perfbench {

/// Shape of the generated inputs of one workload. Everything the program
/// receives is drawn from the run's seed through these settings.
struct InputSpec {
  std::size_t length = 256;
  /// Set-up corpora (one per set-up repetition; the first trains the served
  /// engine): their categories, and series per category.
  std::size_t setup_corpora = 11;
  std::vector<adarts::data::Category> corpus_categories;
  std::size_t corpus_per_category = 10;
  /// Request pool: one set of `pool_set_size` series per (category,
  /// scenario), masked by that ts/scenario.h scenario at `pool_rate`.
  std::vector<std::string> pool_scenarios;
  std::size_t pool_set_size = 4;
  double pool_rate = 0.2;
  /// The growth sequence: one delta of `delta_size` series per entry, of
  /// the named category.
  std::vector<adarts::data::Category> deltas;
  std::size_t delta_size = 3;
};

struct Inputs {
  std::vector<std::vector<adarts::ts::TimeSeries>> setup_corpora;
  /// Masked pool sets, imputed set-wise for the oracle. Masked positions
  /// keep their hidden truth.
  std::vector<std::vector<adarts::ts::TimeSeries>> pool_sets;
  /// Flattened pool, set-major; `pool[i]` is series `i % set_size` of set
  /// `i / set_size`.
  std::vector<adarts::ts::TimeSeries> pool;
  std::vector<std::vector<adarts::ts::TimeSeries>> deltas;
};

/// Generates every input of a workload from `seed`. Deterministic: the same
/// seed and spec give bit-identical inputs.
adarts::Result<Inputs> MakeInputs(const InputSpec& spec, std::uint64_t seed);

/// Per-series RMSE of every pool algorithm on every pool set, imputed
/// set-wise through the public impute API: `rmse[i][a]` for pool series `i`
/// and algorithm `a` of `pool`. Algorithms that fail on a set get a
/// negative entry for its series.
adarts::Result<std::vector<std::vector<double>>> OracleRmse(
    const Inputs& inputs, const std::vector<adarts::impute::Algorithm>& pool);

/// Mean over the pool of (RMSE of the recommended algorithm / best RMSE of
/// any algorithm - 1). `recommended[i]` indexes `pool` for series `i`.
adarts::Result<double> Regret(const std::vector<std::vector<double>>& rmse,
                              const std::vector<std::size_t>& recommended);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
