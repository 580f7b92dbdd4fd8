// perfbench — the benchmark client behind perfbench/run.py.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR
//
// Runs one workload against the public API and a real `adarts_serve`
// process (from --bin-dir), checks every output, and prints one line
// `PERFBENCH {json}` with the end-to-end metrics, the per-layer values that
// are not span times, and the run's counts. With --trace 1 the calls into
// each layer are wrapped in `TraceSpan`s and the timeline is written to
// <work-dir>/trace.json for tools/trace_stats. Exit status 1 when a check
// failed, 2 on bad arguments. See perfbench/README.md for the workloads.

#include <sys/prctl.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adarts/adarts.h"
#include "common/exec_context.h"
#include "common/trace.h"
#include "impute/imputer.h"
#include "inputs.h"
#include "ledger.h"
#include "net/protocol.h"
#include "wire.h"

namespace perfbench {
namespace {

using adarts::Adarts;
using adarts::Result;
using adarts::Status;
using adarts::TraceSpan;
using adarts::data::Category;
using Clock = std::chrono::steady_clock;

/// Latency charged to a request that was shed, failed or lost: it misses
/// any latency limit.
constexpr double kMissMs = 10000.0;
/// A percentile is reported only with at least this many samples beyond it.
constexpr double kTailSamples = 10.0;
/// Requests the closed loop keeps in flight: two per daemon worker.
constexpr std::size_t kClosedOutstanding = 4;
/// Set-up corpora the traced run replays the training stages on.
constexpr std::size_t kReplayCorpora = 3;

/// One workload: its inputs and how the run's time is split over phases.
/// Shares are of --seconds; a phase whose p99 is reported is stretched to
/// the length that puts kTailSamples samples beyond it.
struct Workload {
  const char* name;
  InputSpec inputs;
  double light_rate = 0.0;  // 0: no light phase
  double light_share = 0.0;
  double heavy_rate = 0.0;
  double heavy_share = 0.0;
  double closed_share = 0.0;
  double grow_rate = 0.0;
  double grow_share = 0.0;
  /// recommend_p50/p99 from the traffic beside the writes instead of the
  /// light phase.
  bool primary_from_grow = false;
};

/// ts/scenario.h scenarios of the request pools: serve_steady uses the first
/// four, grow_live all eight.
const std::vector<std::string> kScenarios = {
    "mcar",            "single_block",       "multi_block",   "blackout",
    "disjoint_blocks", "overlapping_blocks", "monotone_tail", "seasonal_gaps"};

/// Nine deltas of categories the set-up corpora already cover.
std::vector<Category> KnownDeltas() {
  std::vector<Category> out;
  for (int k = 0; k < 9; ++k) out.push_back(static_cast<Category>(k % 6));
  return out;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  {
    Workload w{"serve_steady", {}};
    w.inputs.length = 256;
    w.inputs.corpus_categories = adarts::data::AllCategories();
    w.inputs.corpus_per_category = 10;
    w.inputs.pool_scenarios.assign(kScenarios.begin(), kScenarios.begin() + 4);
    w.inputs.pool_set_size = 4;
    w.inputs.deltas = KnownDeltas();
    w.light_rate = 200.0;
    w.light_share = 0.3;
    w.heavy_rate = 400.0;
    w.heavy_share = 0.25;
    w.closed_share = 0.3;
    w.grow_rate = 50.0;
    w.grow_share = 0.15;
    out.push_back(w);
  }
  {
    Workload w{"grow_live", {}};
    w.inputs.length = 1024;
    // Two categories stay out of the corpus: their deltas are novel and
    // force splits plus LabelSingleCluster; the rest are absorbed by
    // cluster assignment.
    w.inputs.corpus_categories = {Category::kPower, Category::kWater,
                                  Category::kClimate, Category::kMedical};
    w.inputs.corpus_per_category = 8;
    w.inputs.pool_scenarios = kScenarios;
    w.inputs.pool_set_size = 3;
    w.inputs.deltas = {Category::kPower,   Category::kWater,
                       Category::kMotion,  Category::kClimate,
                       Category::kMedical, Category::kLightning,
                       Category::kPower,   Category::kMotion,
                       Category::kWater,   Category::kClimate,
                       Category::kLightning, Category::kMedical};
    w.heavy_rate = 300.0;
    w.heavy_share = 0.25;
    w.closed_share = 0.2;
    w.grow_rate = 100.0;
    w.grow_share = 0.5;
    w.primary_from_grow = true;
    out.push_back(w);
  }
  return out;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Replies per second, as the median over the phase's 0.5 s windows: a
/// stall of the machine in one window does not move it.
double WindowedRate(const PhaseResult& phase) {
  constexpr double kWindow = 0.5;
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(phase.seconds / kWindow));
  std::vector<double> counts(windows, 0.0);
  for (double t : phase.arrival_s) {
    const std::size_t w = static_cast<std::size_t>(t / kWindow);
    if (w < windows) counts[w] += 1.0;
  }
  return Median(counts) / kWindow;
}

/// Every attempted request of a phase: ok replies with their latency, any
/// other outcome at kMissMs.
std::vector<double> LatencyWithMisses(const PhaseResult& phase) {
  std::vector<double> v = phase.latency_ms;
  v.insert(v.end(), phase.failed(), kMissMs);
  return v;
}

double JsonNumber(const adarts::json::JsonValue& root,
                  std::initializer_list<const char*> path) {
  const adarts::json::JsonValue* v = &root;
  for (const char* key : path) {
    v = v->Find(key);
    if (v == nullptr) return 0.0;
  }
  return v->is_number() ? v->number : 0.0;
}

std::string FormatJson(const std::map<std::string, double>& values) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ',';
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    out += "\"" + name + "\":" + buf;
  }
  return out + "}";
}

/// What a training decided, through the public API: the race elites and
/// the engine's recommendation for every pool series. Two trainings of one
/// corpus must agree on it; the snapshot's own FNV-1a checksum cannot serve,
/// since the snapshot stores measured times.
std::uint64_t EngineDigest(const Adarts& engine,
                           const std::vector<std::size_t>& recommended) {
  std::string text = EliteSpecs(engine.race_report());
  for (std::size_t a : recommended) text += ' ' + std::to_string(a);
  return adarts::Fnv1a64(text);
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

class Run {
 public:
  Run(const Workload& w, std::uint64_t seed, double seconds, bool trace,
      std::string bin_dir, std::string work_dir)
      : w_(w),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        bin_dir_(std::move(bin_dir)),
        work_dir_(std::move(work_dir)),
        threads_(std::max(1u, std::thread::hardware_concurrency())) {
    // The wall-clock term of the race score makes the trained engine depend
    // on timing noise; gamma = 0 makes every training do identical work
    // (see README.md).
    train_options_.race.gamma = 0.0;
    update_options_.race.gamma = 0.0;
  }

  /// Runs every phase; a failed check is recorded, not returned.
  void Execute();
  int Report() const;

 private:
  void Problem(const std::string& what) {
    std::printf("perfbench: CHECK FAILED: %s\n", what.c_str());
    problems_.push_back(what);
  }
  bool Check(const Status& status, const std::string& what) {
    if (status.ok()) return true;
    Problem(what + ": " + status.ToString());
    return false;
  }
  std::string ModelPath(std::uint64_t version) const {
    return work_dir_ + "/model-v" + std::to_string(version) + ".adarts";
  }

  Status Setup();
  /// In-process Recommend on every decoded pool series, as indices into the
  /// engine's algorithm pool.
  Result<std::vector<std::size_t>> RecommendPool(const Adarts& engine) const;
  Status CheckDeterminism();
  Status PrepareRequests();
  /// One traffic phase on a fresh daemon serving the version-1 snapshot.
  Result<PhaseResult> ServedPhase(const char* name, const PhaseSpec& spec);
  Status GrowPhase();
  Status StartDaemon();
  Status StopDaemon(const char* phase);
  void CheckServed(const PhaseResult& phase, const char* name);
  Status CheckVersions();
  Status Ledger();
  /// A phase whose p99 is reported runs long enough for kTailSamples
  /// samples beyond it.
  double PhaseSeconds(double share, double rate, bool tail) const {
    const double floor = tail ? (kTailSamples * 100.0 + 1.0) / rate : 0.0;
    return std::max(share * seconds_, floor);
  }
  void Count(const PhaseResult& phase) {
    attempted_ += phase.sent;
    failed_ += phase.failed();
    all_late_ms_.insert(all_late_ms_.end(), phase.late_ms.begin(),
                        phase.late_ms.end());
  }

  const Workload& w_;
  const std::uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string bin_dir_;
  const std::string work_dir_;
  const std::size_t threads_;
  adarts::TrainOptions train_options_;
  adarts::UpdateOptions update_options_;

  Inputs inputs_;
  /// One engine per set-up corpus; engines_[0] is served, and the grow
  /// phase appends every delta to it.
  std::vector<Adarts> engines_;
  /// EngineDigest of each set-up engine.
  std::vector<std::uint64_t> digests_;
  /// FNV-1a checksum in the header of the served engine's first snapshot.
  std::uint64_t checksum_ = 0;
  std::vector<std::string> bodies_;
  std::vector<adarts::ts::TimeSeries> decoded_;
  /// expected_[version][pool index]: in-process Recommend.
  std::map<std::uint64_t, std::map<std::size_t, std::string>> expected_;
  std::set<std::uint64_t> published_ = {1};
  std::vector<Served> grow_served_;

  std::unique_ptr<Daemon> daemon_;
  double daemon_rss_mb_ = 0.0;

  double inputs_s_ = 0.0;
  std::vector<double> train_save_s_, train_s_, append_ms_, reload_ms_;
  std::vector<double> all_late_ms_;
  std::map<std::string, PhaseResult> phases_;
  std::map<std::string, double> e2e_;
  perfbench::Ledger ledger_;
  std::vector<double> update_assign_, update_label_, update_features_,
      update_race_, update_warm_ratio_;
  double update_assigned_ = 0.0, update_splits_ = 0.0;
  double snapshot_bytes_ = 0.0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

Status Run::Setup() {
  // The inputs are generated once from the seed; then each set-up corpus is
  // trained and saved. setup_s is the input generation plus the median
  // training and save, train_s the median training. The first engine is the
  // one served.
  const Clock::time_point g0 = Clock::now();
  ADARTS_ASSIGN_OR_RETURN(inputs_, MakeInputs(w_.inputs, seed_));
  inputs_s_ = Seconds(g0, Clock::now());
  for (std::size_t rep = 0; rep < w_.inputs.setup_corpora; ++rep) {
    adarts::ExecContext ctx(threads_);
    const Clock::time_point t1 = Clock::now();
    Result<Adarts> trained = [&] {
      TraceSpan span("adarts.train");
      return Adarts::Train(inputs_.setup_corpora[rep], train_options_, ctx);
    }();
    ++attempted_;
    if (!trained.ok()) {
      ++failed_;
      return trained.status();
    }
    const Clock::time_point t2 = Clock::now();
    const std::string path = rep == 0 ? ModelPath(1)
                                      : work_dir_ + "/setup-" +
                                            std::to_string(rep) + ".adarts";
    ++attempted_;
    Status saved = trained->Save(path);
    if (!saved.ok()) {
      ++failed_;
      return saved;
    }
    const Clock::time_point t3 = Clock::now();
    train_save_s_.push_back(Seconds(t1, t3));
    train_s_.push_back(Seconds(t1, t2));
    if (rep == 0) {
      ADARTS_ASSIGN_OR_RETURN(const adarts::SnapshotHeader header,
                              adarts::ReadSnapshotHeader(path));
      checksum_ = header.checksum;
    }
    engines_.push_back(std::move(trained).value());
  }
  return Status::OK();
}

Status Run::CheckDeterminism() {
  // Train the served corpus once more: its EngineDigest must match the
  // set-up's.
  adarts::ExecContext ctx(threads_);
  ADARTS_ASSIGN_OR_RETURN(
      Adarts again,
      Adarts::Train(inputs_.setup_corpora[0], train_options_, ctx));
  ADARTS_ASSIGN_OR_RETURN(const std::vector<std::size_t> recommended,
                          RecommendPool(again));
  if (EngineDigest(again, recommended) != digests_.at(0)) {
    Problem("retraining the served corpus changed the engine digest");
  }
  return Status::OK();
}

Status Run::PrepareRequests() {
  for (const adarts::ts::TimeSeries& series : inputs_.pool) {
    adarts::net::Request request;
    request.type = adarts::net::MessageType::kRecommend;
    request.series.push_back(series);
    bodies_.push_back(adarts::net::EncodeRequest(request));
    // The daemon sees the decoded frame (NaN at masked positions), so the
    // in-process reference runs on exactly that.
    ADARTS_ASSIGN_OR_RETURN(adarts::net::Request decoded,
                            adarts::net::DecodeRequest(bodies_.back()));
    decoded_.push_back(std::move(decoded.series.at(0)));
  }
  // Every set-up engine recommends on the whole pool, for its digest, which
  // run.py compares across runs. The served engine's answers are also what
  // the daemon must serve, and they give the regret; the oracle is outside
  // set-up and outside every timed region.
  for (const Adarts& engine : engines_) {
    ADARTS_ASSIGN_OR_RETURN(const std::vector<std::size_t> recommended,
                            RecommendPool(engine));
    digests_.push_back(EngineDigest(engine, recommended));
    if (!expected_.empty()) continue;
    const std::vector<adarts::impute::Algorithm>& pool =
        engine.algorithm_pool();
    for (std::size_t i = 0; i < recommended.size(); ++i) {
      expected_[1][i] = adarts::impute::AlgorithmToString(pool[recommended[i]]);
    }
    ADARTS_ASSIGN_OR_RETURN(const std::vector<std::vector<double>> rmse,
                            OracleRmse(inputs_, pool));
    ADARTS_ASSIGN_OR_RETURN(ledger_["regret"], Regret(rmse, recommended));
  }
  return Status::OK();
}

Result<std::vector<std::size_t>> Run::RecommendPool(
    const Adarts& engine) const {
  std::vector<Result<adarts::impute::Algorithm>> recs(
      decoded_.size(), Status::Internal("not run"));
  adarts::ExecContext ctx(threads_);
  adarts::ParallelFor(ctx, decoded_.size(), [&](std::size_t i) {
    recs[i] = engine.Recommend(decoded_[i]);
  });
  const std::vector<adarts::impute::Algorithm>& pool = engine.algorithm_pool();
  std::vector<std::size_t> out;
  for (const Result<adarts::impute::Algorithm>& rec : recs) {
    ADARTS_RETURN_NOT_OK(rec.status());
    const auto it = std::find(pool.begin(), pool.end(), *rec);
    if (it == pool.end()) {
      return Status::Internal("a recommendation is not in the algorithm pool");
    }
    out.push_back(static_cast<std::size_t>(it - pool.begin()));
  }
  return out;
}

Status Run::StartDaemon() {
  ADARTS_ASSIGN_OR_RETURN(
      daemon_,
      Daemon::Start(bin_dir_ + "/adarts_serve", ModelPath(1), work_dir_));
  // Warm the fresh daemon (page faults, first allocations) before timing.
  PhaseSpec warm;
  warm.open_loop = false;
  warm.outstanding = 2;
  warm.seconds = 0.1;
  ADARTS_ASSIGN_OR_RETURN(PhaseResult warmup,
                          RunPhase(daemon_->port(), bodies_, warm));
  Count(warmup);
  CheckServed(warmup, "warm-up");
  return Status::OK();
}

Status Run::StopDaemon(const char* phase) {
  ADARTS_ASSIGN_OR_RETURN(adarts::json::JsonValue stats,
                          ScrapeStats(daemon_->port()));
  const std::string p = phase;
  const auto ms = [&](std::initializer_list<const char*> path) {
    return JsonNumber(stats, path) / 1e6;
  };
  ledger_["net.server_p50_ms." + p] =
      ms({"window_latency", "histogram", "p50_ns"});
  ledger_["net.service_p50_ms." + p] =
      ms({"metrics", "histograms", "recommend.latency", "p50_ns"});
  ledger_["net.queue_wait_p50_ms." + p] =
      ms({"metrics", "histograms", "serve.queue_wait", "p50_ns"});
  ledger_["net.queue_wait_p99_ms." + p] =
      ms({"metrics", "histograms", "serve.queue_wait", "p99_ns"});
  ledger_["net.shed"] += JsonNumber(stats, {"stats", "requests_shed"});
  ledger_["net.deadline_exceeded"] +=
      JsonNumber(stats, {"stats", "requests_deadline_exceeded"});
  if (p == "grow") {
    const double swaps = JsonNumber(stats, {"swap_count"});
    const double version = JsonNumber(stats, {"engine_version"});
    const double appends = static_cast<double>(published_.size() - 1);
    if (swaps != appends) {
      Problem("kStats swap_count " + std::to_string(swaps) + " != appends " +
              std::to_string(appends));
    }
    if (version != 1.0 + appends) {
      Problem("final engine_version " + std::to_string(version) +
              " != 1 + number of appends");
    }
  }
  ADARTS_ASSIGN_OR_RETURN(const double rss, daemon_->PeakRssMb());
  daemon_rss_mb_ = std::max(daemon_rss_mb_, rss);
  Status stopped = daemon_->Stop();
  daemon_.reset();
  return stopped;
}

void Run::CheckServed(const PhaseResult& phase, const char* name) {
  std::size_t mismatches = 0;
  for (const Served& s : phase.served) {
    if (s.engine_version == 1) {
      if (expected_[1][s.pool_index] != s.algorithm) ++mismatches;
    } else {
      grow_served_.push_back(s);  // checked against reloaded engines later
    }
  }
  if (mismatches > 0) {
    Problem(std::string(name) + ": " + std::to_string(mismatches) +
            " served recommendations differ from in-process Recommend");
  }
}

Result<PhaseResult> Run::ServedPhase(const char* name, const PhaseSpec& spec) {
  ADARTS_RETURN_NOT_OK(StartDaemon());
  Result<PhaseResult> phase = [&] {
    TraceSpan span("phase.traffic", name);
    return RunPhase(daemon_->port(), bodies_, spec);
  }();
  ADARTS_RETURN_NOT_OK(phase.status());
  Count(*phase);
  CheckServed(*phase, name);
  ADARTS_RETURN_NOT_OK(StopDaemon(name));
  return phase;
}

Status Run::GrowPhase() {
  ADARTS_RETURN_NOT_OK(StartDaemon());
  PhaseSpec spec;
  spec.rate = w_.grow_rate;
  spec.seconds =
      PhaseSeconds(w_.grow_share, w_.grow_rate, w_.primary_from_grow);
  const std::uint16_t port = daemon_->port();
  Result<PhaseResult> traffic = Status::Internal("traffic did not run");
  std::thread traffic_thread(
      [&] { traffic = RunPhase(port, bodies_, spec); });

  // Appends are paced over the phase so the traffic sees each write; each
  // grows the served engine and is followed by Save and a kReload to the
  // live daemon, publishing the next version.
  const Clock::time_point start = Clock::now();
  const double interval =
      spec.seconds / static_cast<double>(inputs_.deltas.size() + 1);
  // An engine whose appends outlast the phase stops the sequence at 1.5
  // times the phase's length, so that the run ends within its time; how
  // many appends ran is printed.
  const Clock::time_point cap =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(1.5 * spec.seconds));
  std::uint64_t version = 1;
  Status status = Status::OK();
  for (std::size_t j = 0; j < inputs_.deltas.size() && status.ok(); ++j) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(interval * (j + 1))));
    if (Clock::now() > cap) break;
    Adarts& engine = engines_[0];
    // Serial: the writer competes with the daemon, not with itself.
    adarts::ExecContext ctx(1);
    const Clock::time_point t0 = Clock::now();
    status = [&] {
      TraceSpan span("adarts.append");
      return engine.AppendSeries(inputs_.deltas[j], update_options_, ctx);
    }();
    const Clock::time_point t1 = Clock::now();
    ++attempted_;
    if (!status.ok()) {
      ++failed_;
      break;
    }
    append_ms_.push_back(Seconds(t0, t1) * 1e3);
    const adarts::StageMetrics m = ctx.metrics().Snapshot();
    update_assign_.push_back(m.SpanSeconds("update.assign_seconds") * 1e3);
    update_label_.push_back(m.SpanSeconds("update.label_seconds") * 1e3);
    update_features_.push_back(m.SpanSeconds("update.features_seconds") * 1e3);
    update_race_.push_back(m.SpanSeconds("update.race_seconds") * 1e3);
    update_assigned_ += static_cast<double>(m.Counter("update.assigned"));
    update_splits_ += static_cast<double>(m.Counter("update.splits"));
    const std::size_t elites = engine.race_report().elites.size();
    update_warm_ratio_.push_back(
        elites == 0 ? 0.0
                    : static_cast<double>(m.Counter("update.race_warm_hits")) /
                          static_cast<double>(elites));

    engine.set_engine_version(++version);
    const std::string path = ModelPath(version);
    ++attempted_;
    status = [&] {
      TraceSpan span("snapshot.save");
      return engine.Save(path);
    }();
    if (!status.ok()) {
      ++failed_;
      break;
    }
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0) {
      snapshot_bytes_ = static_cast<double>(st.st_size);
    }
    if (trace_) {
      // The daemon's reload cost, replayed in process on the same file.
      TraceSpan span("snapshot.load");
      status = Adarts::Load(path).status();
      if (!status.ok()) break;
    }
    const Clock::time_point r0 = Clock::now();
    Result<std::uint64_t> reloaded = [&] {
      TraceSpan span("net.reload");
      return Reload(port, path);
    }();
    const Clock::time_point r1 = Clock::now();
    ++attempted_;
    if (!reloaded.ok()) {
      ++failed_;
      status = reloaded.status();
      break;
    }
    reload_ms_.push_back(Seconds(r0, r1) * 1e3);
    if (*reloaded != version) {
      Problem("kReload answered version " + std::to_string(*reloaded) +
              ", expected " + std::to_string(version));
    }
    published_.insert(version);
  }
  traffic_thread.join();
  ADARTS_RETURN_NOT_OK(status);
  ADARTS_RETURN_NOT_OK(traffic.status());
  Count(*traffic);
  CheckServed(*traffic, "grow");
  phases_["grow"] = std::move(traffic).value();
  return StopDaemon("grow");
}

Status Run::CheckVersions() {
  // Every reply's version must be published, and must match an in-process
  // Recommend on that version's engine (restored from its snapshot).
  std::map<std::uint64_t, std::set<std::size_t>> wanted;
  for (const Served& s : grow_served_) {
    if (published_.count(s.engine_version) == 0) {
      Problem("reply from unpublished engine version " +
              std::to_string(s.engine_version));
      continue;
    }
    wanted[s.engine_version].insert(s.pool_index);
  }
  for (const auto& [version, indices] : wanted) {
    ADARTS_ASSIGN_OR_RETURN(Adarts engine, Adarts::Load(ModelPath(version)));
    const std::vector<std::size_t> idx(indices.begin(), indices.end());
    std::vector<std::string> recs(idx.size());
    std::vector<Status> status(idx.size());
    adarts::ExecContext ctx(threads_);
    adarts::ParallelFor(ctx, idx.size(), [&](std::size_t k) {
      Result<adarts::impute::Algorithm> rec = engine.Recommend(decoded_[idx[k]]);
      if (rec.ok()) {
        recs[k] = std::string(adarts::impute::AlgorithmToString(*rec));
      } else {
        status[k] = rec.status();
      }
    });
    for (std::size_t k = 0; k < idx.size(); ++k) {
      ADARTS_RETURN_NOT_OK(status[k]);
      expected_[version][idx[k]] = recs[k];
    }
  }
  std::size_t mismatches = 0;
  for (const Served& s : grow_served_) {
    const auto it = expected_[s.engine_version].find(s.pool_index);
    if (it != expected_[s.engine_version].end() && it->second != s.algorithm) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    Problem(std::to_string(mismatches) +
            " replies after a reload differ from in-process Recommend");
  }
  return Status::OK();
}

Status Run::Ledger() {
  // Request path on the version-1 engine (the grow phase moved engines_[0]
  // past it).
  ADARTS_ASSIGN_OR_RETURN(Adarts v1, Adarts::Load(ModelPath(1)));
  ADARTS_RETURN_NOT_OK(ReplayRequestPath(v1, bodies_, 2, &ledger_));
  // Training stages on the first kReplayCorpora corpora train_s was
  // measured on, each bracketed by two reference Adarts::Train calls on the
  // same corpus: the machine's speed drifts by more than the 10% the stage
  // sum is checked to, so the reference is timed on both sides of the replay.
  for (std::size_t c = 0; c < kReplayCorpora; ++c) {
    const auto& corpus = inputs_.setup_corpora.at(c);
    for (int side = 0; side < 2; ++side) {
      adarts::ExecContext ctx(threads_);
      Result<Adarts> reference = [&] {
        TraceSpan span("train.reference");
        return Adarts::Train(corpus, train_options_, ctx);
      }();
      ADARTS_RETURN_NOT_OK(reference.status());
      if (side == 0) {
        ADARTS_RETURN_NOT_OK(ReplayTrainingStages(
            corpus, train_options_, threads_,
            EliteSpecs(reference->race_report()), &ledger_));
      }
    }
  }
  ledger_["update.assign_ms"] = Median(update_assign_);
  ledger_["update.label_ms"] = Median(update_label_);
  ledger_["update.features_ms"] = Median(update_features_);
  ledger_["update.race_ms"] = Median(update_race_);
  ledger_["update.assigned"] = update_assigned_;
  ledger_["update.splits"] = update_splits_;
  ledger_["update.warm_hit_ratio"] = Median(update_warm_ratio_);
  ledger_["snapshot.bytes"] = snapshot_bytes_;
  return Status::OK();
}

void Run::Execute() {
  std::optional<adarts::ScopedTrace> trace;
  if (trace_) {
    adarts::TraceOptions options;
    options.enabled = true;
    options.path = work_dir_ + "/trace.json";
    trace.emplace(options);
  }
  if (!Check(Setup(), "set-up")) return;
  if (!Check(PrepareRequests(), "request pool")) return;
  if (w_.light_rate > 0.0) {
    PhaseSpec spec;
    spec.rate = w_.light_rate;
    spec.seconds = PhaseSeconds(w_.light_share, w_.light_rate, true);
    Result<PhaseResult> phase = ServedPhase("light", spec);
    if (!Check(phase.status(), "light phase")) return;
    phases_["light"] = std::move(phase).value();
  }
  {
    PhaseSpec spec;
    spec.rate = w_.heavy_rate;
    spec.seconds = PhaseSeconds(w_.heavy_share, w_.heavy_rate, true);
    Result<PhaseResult> phase = ServedPhase("heavy", spec);
    if (!Check(phase.status(), "heavy phase")) return;
    phases_["heavy"] = std::move(phase).value();
  }
  {
    PhaseSpec spec;
    spec.open_loop = false;
    spec.outstanding = kClosedOutstanding;
    spec.seconds = PhaseSeconds(w_.closed_share, 0.0, false);
    Result<PhaseResult> phase = ServedPhase("closed", spec);
    if (!Check(phase.status(), "closed phase")) return;
    phases_["closed"] = std::move(phase).value();
  }
  {
    TraceSpan span("phase.grow");
    if (!Check(GrowPhase(), "grow phase")) return;
  }
  if (!Check(CheckVersions(), "version checks")) return;
  // run.py compares a traced run's digests and snapshot checksum with those
  // of the untraced run it makes first, so only an untraced run retrains.
  if (!trace_ && !Check(CheckDeterminism(), "determinism check")) return;
  if (trace_ && !Check(Ledger(), "traced replay")) return;

  const PhaseResult& primary =
      phases_[w_.primary_from_grow ? "grow" : "light"];
  const PhaseResult& heavy = phases_["heavy"];
  const PhaseResult& closed = phases_["closed"];
  for (const auto& [name, phase] : phases_) {
    const std::size_t n = phase.sent;
    std::printf(
        "perfbench: phase %-6s %6zu requests, %llu ok, %llu failed; p99 over "
        "%zu samples (%.0f beyond)\n",
        name.c_str(), n, static_cast<unsigned long long>(phase.ok),
        static_cast<unsigned long long>(phase.failed()), n,
        std::floor(0.01 * static_cast<double>(n)));
    const bool tail = name == "light" || name == "heavy" ||
                      (name == "grow" && w_.primary_from_grow);
    if (tail && static_cast<double>(n) * 0.01 < kTailSamples) {
      Problem("phase " + name + " has fewer than " +
              std::to_string(static_cast<int>(kTailSamples)) +
              " samples beyond its p99");
    }
  }
  e2e_["setup_s"] = inputs_s_ + Median(train_save_s_);
  e2e_["recommend_p50_ms"] = Quantile(LatencyWithMisses(primary), 0.50);
  ledger_["recommend_p99_ms"] = Quantile(LatencyWithMisses(primary), 0.99);
  e2e_["recommend_p50_ms.heavy"] = Quantile(LatencyWithMisses(heavy), 0.50);
  ledger_["recommend_p99_ms.heavy"] = Quantile(LatencyWithMisses(heavy), 0.99);
  e2e_["capacity_rps"] = WindowedRate(closed);
  ledger_["train_s"] = Median(train_s_);
  ledger_["append_p50_ms"] = Median(append_ms_);
  ledger_["reload_p50_ms"] = Median(reload_ms_);
  e2e_["peak_rss_mb"] = daemon_rss_mb_;
  const std::string primary_name = w_.primary_from_grow ? "grow" : "light";
  for (const char* m : {"net.server_p50_ms", "net.service_p50_ms",
                        "net.queue_wait_p50_ms", "net.queue_wait_p99_ms"}) {
    ledger_[m] = ledger_[std::string(m) + "." + primary_name];
  }
  ledger_["failed_share"] =
      static_cast<double>(failed_) / static_cast<double>(attempted_);
  ledger_["loadgen.late_p99_ms"] = Quantile(all_late_ms_, 0.99);
  std::string trainings;
  for (double t : train_s_) trainings += " " + std::to_string(t);
  std::printf("perfbench: set-up inputs %.3f s; Adarts::Train s:%s\n",
              inputs_s_, trainings.c_str());
  std::string appends, reloads;
  for (std::size_t j = 0; j < append_ms_.size(); ++j) {
    appends += " " + std::to_string(static_cast<int>(append_ms_[j]));
    reloads += " " + std::to_string(static_cast<int>(reload_ms_[j]));
  }
  std::printf("perfbench: %zu of %zu deltas appended; append ms:%s; reload "
              "ms:%s\n",
              append_ms_.size(), inputs_.deltas.size(), appends.c_str(),
              reloads.c_str());
  std::printf("perfbench: load from 1 process: at most 2 threads and 2 "
              "connections (traffic, control) at a time (nproc %zu); late p99 "
              "over %zu sends\n",
              threads_, all_late_ms_.size());
}

int Run::Report() const {
  std::string problems = "[";
  for (const std::string& p : problems_) {
    if (problems.size() > 1) problems += ',';
    problems += Quote(p);
  }
  problems += "]";
  std::string digest;
  for (std::uint64_t d : digests_) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%s%016llx", digest.empty() ? "" : ",",
                  static_cast<unsigned long long>(d));
    digest += hex;
  }
  std::printf(
      "PERFBENCH {\"workload\":%s,\"seed\":%llu,\"correct\":%s,"
      "\"problems\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"digest\":\"%s\",\"checksum\":\"%016llx\",\"threads\":%zu,"
      "\"e2e\":%s,\"ledger\":%s}\n",
      Quote(w_.name).c_str(), static_cast<unsigned long long>(seed_),
      problems_.empty() ? "true" : "false", problems.c_str(),
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), digest.c_str(),
      static_cast<unsigned long long>(checksum_), threads_,
      FormatJson(e2e_).c_str(), FormatJson(ledger_).c_str());
  std::fflush(stdout);
  return problems_.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  // Open-loop sends wake from ppoll at their due time; the default 50 us
  // timer slack would show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto arg = [&](const char* key) {
    const auto it = args.find(key);
    return it == args.end() ? std::string() : it->second;
  };
  const std::vector<Workload> workloads = Workloads();
  const auto w = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const Workload& x) { return arg("--workload") == x.name; });
  const double seconds = std::atof(arg("--seconds").c_str());
  if (w == workloads.end() || arg("--seed").empty() || seconds <= 0.0 ||
      arg("--bin-dir").empty() || arg("--work-dir").empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_steady|grow_live "
                 "--seed N --seconds S --trace 0|1 --bin-dir DIR "
                 "--work-dir DIR\n");
    return 2;
  }
  Run run(*w, std::strtoull(arg("--seed").c_str(), nullptr, 10), seconds,
          arg("--trace") == "1", arg("--bin-dir"), arg("--work-dir"));
  run.Execute();
  return run.Report();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
