// E23 — Self-driving adaptation: drift-triggered background retraining
// with epoch-protected shadow swaps (src/adapt/).
//
// Tutorial claim (§6.3): a deployed learned index must notice when its
// model no longer fits the live workload and retrain itself — without an
// operator and without blocking lookups. Both legs run the one adaptation
// loop, a ShardedAdaptor over a ShardedIndex; they differ in the inner
// index and so in the sensed error:
//
//  * Leg A (model error): one shard of an under-provisioned RMI (4 stage-2
//    models) records every lookup's observed position error. The
//    adaptor's own thread ticks every 5 ms; a kGrow re-cuts straight to
//    the shard count the window's p99 asks for, traffic-weighted — each
//    shard trains its own 4 models, so the model budget grows and lands on
//    the hot key range. The no-adaptation baseline serves the same
//    workload on the same starting model and stays degraded.
//  * Leg B (traffic skew): a ShardedIndex<DynamicPgm> serving a skewed
//    stream routes ~all lookups to one shard. The adaptor senses the
//    imbalance from the per-shard read counts and re-cuts boundaries
//    traffic-weighted, one direct Tick() between rounds; the baseline
//    keeps its data-quantile boundaries and stays imbalanced.
//
// What to look for:
//  * Leg A: observed mean / p99 error collapses within the first phase;
//    the baseline's error does not move.
//  * Leg B: the hottest shard's traffic share drops from ~num_shards x
//    fair to ~1-2x fair after one rebalance tick; baseline stays at the
//    initial skew.
//
// Usage: bench_e23_adaptation [n_keys] [ops_per_phase] [rounds]
// Defaults: 400k keys, 150k ops/phase, 6 rounds. Self-check assertions
// are enforced when n_keys >= 200k. One summary row per leg (leg A's
// phase-0 adapted/frozen mean-error ratio and final-phase recovery, leg
// B's final imbalance) makes BENCH_e23.json diffable across changes.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "adapt/serving_adapter.h"
#include "bench_util.h"
#include "common/macros.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/rmi.h"
#include "serving/sharded_index.h"

namespace lidx {
namespace {

using bench::JsonField;
using bench::JsonRow;

struct Config {
  size_t n_keys = 400'000;
  size_t ops_per_phase = 150'000;
  size_t rounds = 6;
};

// Collapses a monitor snapshot into one aggregate segment so mean / p99
// can be read across the whole key space.
ErrorMonitor::SegmentSnapshot Aggregate(const ErrorMonitor::Snapshot& snap) {
  ErrorMonitor::SegmentSnapshot all;
  for (const auto& seg : snap.segments) {
    all.ops += seg.ops;
    all.error_sum += seg.error_sum;
    all.error_max = std::max(all.error_max, seg.error_max);
    for (size_t b = 0; b < ErrorMonitor::kHistogramBuckets; ++b) {
      all.histogram[b] += seg.histogram[b];
    }
  }
  return all;
}

// ---- Leg A: learned-shard model-error recovery -------------------------

constexpr size_t kModelsPerShard = 4;

// Deliberately under-provisioned: 4 stage-2 models per shard, so a single
// shard over a clustered key set this size has inflated errors the
// controller must fix.
struct FourModelRmi : Rmi<uint64_t, uint64_t> {
  void Build(std::vector<uint64_t> keys, std::vector<uint64_t> values) {
    Rmi::Options options;
    options.num_models = kModelsPerShard;
    Rmi::Build(std::move(keys), std::move(values), options);
  }
};
using LearnedServing = ShardedIndex<FourModelRmi>;

struct PhaseStats {
  double mean_error = 0.0;
  double p99_error = 0.0;
  double mops = 0.0;
  size_t budget = 0;
  size_t rebuilds = 0;
};

using LearnedAdaptor = ShardedAdaptor<LearnedServing>;

// Serves one phase. The last quarter is the measured window: the adaptor
// (if any) is stopped first, which waits out an in-flight tick, so the
// window's errors all come from one table — the model the phase converged
// to.
PhaseStats RunRmiPhase(LearnedServing* index, LearnedAdaptor* adaptor,
                       ShiftingStream* stream, size_t ops) {
  const size_t measured = std::max<size_t>(1, ops / 4);
  uint64_t sink = 0;
  Timer timer;
  for (size_t i = measured; i < ops; ++i) {
    sink += index->Find(stream->Next()).value_or(0);
  }
  double seconds = timer.ElapsedSeconds();
  if (adaptor != nullptr) adaptor->Stop();
  const auto before = index->TakeShardStats();
  timer.Reset();
  for (size_t i = 0; i < measured; ++i) {
    sink += index->Find(stream->Next()).value_or(0);
  }
  seconds += timer.ElapsedSeconds();
  DoNotOptimize(sink);
  const auto after = index->TakeShardStats();
  if (adaptor != nullptr) adaptor->Start();
  const auto window = Aggregate(after.reads.DeltaSince(before.reads));
  const LearnedServing::Stats stats = index->GetStats();
  PhaseStats out;
  out.mean_error = window.MeanError();
  out.p99_error = window.QuantileError(0.99);
  out.mops = static_cast<double>(ops) / seconds / 1e6;
  out.budget = after.reads.segments.size() * kModelsPerShard;
  out.rebuilds = stats.rebalances + stats.rebuilds;
  return out;
}

std::vector<JsonRow> RunLegA(const Config& config) {
  bench::PrintHeader(
      "E23a — drift-triggered model retraining (ShardedIndex<Rmi>)",
      "background kGrow re-cuts collapse observed error bounds; the frozen "
      "baseline stays degraded");

  const auto keys =
      GenerateKeys(KeyDistribution::kClustered, config.n_keys, 2023);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;

  LearnedServing::Options sopts;
  sopts.num_shards = 1;
  sopts.collect_shard_stats = true;
  LearnedServing adapted(sopts);
  adapted.BulkLoad(keys, values);
  LearnedServing frozen(sopts);  // The no-adaptation baseline.
  frozen.BulkLoad(keys, values);

  // The controller reads position errors, so it runs at its own
  // (position-unit) defaults rather than the adaptor's probe-depth ones.
  // Skew is kGrow's job here: its re-cuts are traffic-weighted already.
  // The load never drops, so the loop only grows; with shrinks on, a
  // calm window halves the shards and the next window grows them back.
  LearnedAdaptor::Options aopts;
  aopts.controller = AdaptController::Options();
  aopts.controller.allow_rebalance = false;
  aopts.controller.allow_shrink = false;
  aopts.drift = ModelDriftDetector::Options();
  aopts.max_shards = (size_t{1} << 14) / kModelsPerShard;
  aopts.tick_period = std::chrono::milliseconds(5);
  LearnedAdaptor adaptor(&adapted, aopts);
  adaptor.Start();

  // The query distribution steps between thirds of the key space — the
  // shift a drift detector has to ride through without false-resetting.
  ShiftingStream::Options wopts;
  wopts.phases = {{0.0, 0.34, 0.6}, {0.33, 0.67, 0.6}, {0.66, 1.0, 0.6}};
  wopts.ops_per_phase = config.ops_per_phase;
  ShiftingStream adapted_stream(keys, wopts);
  ShiftingStream frozen_stream(keys, wopts);

  std::printf("%-7s %12s %12s %12s %10s %10s   %s\n", "phase", "mean_err",
              "p99_err", "Mops/s", "budget", "rebuilds", "variant");
  std::vector<JsonRow> rows;
  PhaseStats first_adapted;
  PhaseStats first_frozen;
  PhaseStats last_adapted;
  PhaseStats last_frozen;
  const size_t phases = wopts.phases.size() + 1;  // Wrap once: 4 windows.
  for (size_t p = 0; p < phases; ++p) {
    const PhaseStats a =
        RunRmiPhase(&adapted, &adaptor, &adapted_stream, config.ops_per_phase);
    const PhaseStats f =
        RunRmiPhase(&frozen, nullptr, &frozen_stream, config.ops_per_phase);
    if (p == 0) {
      first_adapted = a;
      first_frozen = f;
    }
    last_adapted = a;
    last_frozen = f;
    std::printf("%-7zu %12.1f %12.1f %12.2f %10zu %10zu   adapted\n", p,
                a.mean_error, a.p99_error, a.mops, a.budget, a.rebuilds);
    std::printf("%-7zu %12.1f %12.1f %12.2f %10zu %10zu   frozen\n", p,
                f.mean_error, f.p99_error, f.mops, f.budget, f.rebuilds);
    for (const auto* variant : {"adapted", "frozen"}) {
      const PhaseStats& s = *variant == 'a' ? a : f;
      rows.push_back({JsonField::Str("leg", "rmi_error"),
                      JsonField::Str("variant", variant),
                      JsonField::Num("phase", p),
                      JsonField::Num("mean_error", s.mean_error),
                      JsonField::Num("p99_error", s.p99_error),
                      JsonField::Num("mops", s.mops),
                      JsonField::Num("model_budget", s.budget),
                      JsonField::Num("rebuilds", s.rebuilds)});
    }
  }
  adaptor.Stop();
  const double first_ratio = first_adapted.mean_error / first_frozen.mean_error;
  const double recovery = last_frozen.mean_error / last_adapted.mean_error;
  std::printf("summary: phase-0 adapted/frozen mean error %.4f, final "
              "recovery %.0fx\n",
              first_ratio, recovery);
  rows.push_back({JsonField::Str("leg", "rmi_error"),
                  JsonField::Str("variant", "summary"),
                  JsonField::Num("phase0_mean_ratio", first_ratio),
                  JsonField::Num("final_recovery", recovery)});

  if (config.n_keys >= 200'000) {
    // Adaptation typically converges within the first phase, so "recovered"
    // is measured against the frozen baseline — the same starting model
    // serving the same stream without the adaptation loop.
    LIDX_CHECK(last_adapted.rebuilds >= 1);
    LIDX_CHECK(last_adapted.budget > kModelsPerShard);
    LIDX_CHECK(last_adapted.mean_error * 2.0 <= last_frozen.mean_error);
    LIDX_CHECK(last_adapted.p99_error * 2.0 <= last_frozen.p99_error);
    std::printf("[check] adaptation recovered the error bound; baseline "
                "stayed degraded\n");
  }
  adapted.CheckInvariants();
  return rows;
}

// ---- Leg B: ShardedIndex skew recovery ----------------------------------

using Serving = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;

struct RoundStats {
  double imbalance = 0.0;  // Hottest shard's multiple of its fair share.
  double mops = 0.0;
};

RoundStats RunServingRound(Serving* index, ShiftingStream* stream,
                           size_t ops) {
  const auto before = index->TakeShardStats();
  Timer timer;
  uint64_t sink = 0;
  for (size_t i = 0; i < ops; ++i) {
    sink += index->Find(stream->Next()).value_or(0);
  }
  const double seconds = timer.ElapsedSeconds();
  DoNotOptimize(sink);
  const auto after = index->TakeShardStats();
  RoundStats out;
  out.mops = static_cast<double>(ops) / seconds / 1e6;
  // Counters restart when a rebalance swaps the table; both snapshots here
  // bracket lookups only (rebalances happen between rounds), so the delta
  // is valid whenever the version matches and raw counts are right after
  // a swap.
  const ErrorMonitor::Snapshot window =
      before.table_version == after.table_version
          ? after.reads.DeltaSince(before.reads)
          : after.reads;
  uint64_t max_shard = 0;
  for (const auto& seg : window.segments) {
    max_shard = std::max(max_shard, seg.ops);
  }
  const uint64_t total = window.TotalOps();
  if (total > 0) {
    out.imbalance = static_cast<double>(max_shard) /
                    (static_cast<double>(total) /
                     static_cast<double>(window.segments.size()));
  }
  return out;
}

std::vector<JsonRow> RunLegB(const Config& config) {
  bench::PrintHeader(
      "E23b — skew-triggered shard rebalance (ShardedIndex)",
      "traffic-weighted boundary re-cuts spread a hot range across shards; "
      "the baseline keeps routing it to one");

  const auto keys =
      GenerateKeys(KeyDistribution::kLognormal, config.n_keys, 2024);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;

  Serving::Options sopts;
  sopts.num_shards = 16;
  sopts.collect_shard_stats = true;
  Serving adapted(sopts);
  adapted.BulkLoad(keys, values);
  Serving baseline(sopts);
  baseline.BulkLoad(keys, values);
  ShardedAdaptor<Serving> adaptor(&adapted);

  // All lookups inside one sixteenth of the key space, zipf-skewed.
  ShiftingStream::Options wopts;
  wopts.phases = {{0.0, 1.0 / 16.0, 0.8}};
  wopts.ops_per_phase = config.ops_per_phase;
  ShiftingStream adapted_stream(keys, wopts);
  ShiftingStream baseline_stream(keys, wopts);

  const size_t ops_per_round =
      std::max<size_t>(1, config.ops_per_phase / config.rounds);
  std::printf("%-7s %14s %12s %14s %12s %12s\n", "round", "imbal(adapted)",
              "Mops(a)", "imbal(base)", "Mops(b)", "rebalances");
  std::vector<JsonRow> rows;
  RoundStats last_adapted;
  RoundStats last_baseline;
  for (size_t r = 0; r < config.rounds; ++r) {
    const RoundStats a =
        RunServingRound(&adapted, &adapted_stream, ops_per_round);
    const RoundStats b =
        RunServingRound(&baseline, &baseline_stream, ops_per_round);
    last_adapted = a;
    last_baseline = b;
    const uint64_t rebalances = adapted.GetStats().rebalances;
    std::printf("%-7zu %14.2f %12.2f %14.2f %12.2f %12llu\n", r, a.imbalance,
                a.mops, b.imbalance, b.mops,
                static_cast<unsigned long long>(rebalances));
    rows.push_back({JsonField::Str("leg", "sharded_skew"),
                    JsonField::Num("round", r),
                    JsonField::Num("imbalance_adapted", a.imbalance),
                    JsonField::Num("imbalance_baseline", b.imbalance),
                    JsonField::Num("mops_adapted", a.mops),
                    JsonField::Num("mops_baseline", b.mops),
                    JsonField::Num("rebalances", rebalances)});
    // The adaptation tick between rounds: sense the window, maybe re-cut.
    adaptor.Tick();
  }
  std::printf("summary: final imbalance %.2f adapted, %.2f baseline\n",
              last_adapted.imbalance, last_baseline.imbalance);
  rows.push_back({JsonField::Str("leg", "sharded_skew"),
                  JsonField::Str("variant", "summary"),
                  JsonField::Num("final_imbalance", last_adapted.imbalance),
                  JsonField::Num("final_imbalance_baseline",
                                 last_baseline.imbalance)});

  if (config.n_keys >= 200'000) {
    LIDX_CHECK(adapted.GetStats().rebalances >= 1);
    LIDX_CHECK(last_baseline.imbalance > 8.0);
    LIDX_CHECK(last_adapted.imbalance * 2.0 <= last_baseline.imbalance);
    std::printf("[check] rebalance spread the hot range; baseline stayed "
                "skewed\n");
  }
  adapted.CheckInvariants();
  baseline.CheckInvariants();
  return rows;
}

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  lidx::Config config;
  if (argc > 1) config.n_keys = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) config.ops_per_phase = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) config.rounds = std::strtoull(argv[3], nullptr, 10);

  std::vector<lidx::bench::JsonRow> rows = lidx::RunLegA(config);
  std::vector<lidx::bench::JsonRow> leg_b = lidx::RunLegB(config);
  rows.insert(rows.end(), leg_b.begin(), leg_b.end());
  lidx::bench::ReportJson(
      "e23", rows,
      {lidx::bench::JsonField::Num("n_keys", config.n_keys),
       lidx::bench::JsonField::Num("ops_per_phase", config.ops_per_phase),
       lidx::bench::JsonField::Num("rounds", config.rounds)});
  return 0;
}
