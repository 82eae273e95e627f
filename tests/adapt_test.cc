// Adaptation subsystem tests: the sensing layer (ErrorMonitor), the decide
// layer (AdaptController policy table, DriftDetectorBank), the acting layer
// (ShadowCell publish/retire), and the one end-to-end loop: ShardedAdaptor,
// ticked directly or by its own thread, driving ShardedIndex rebuilds and
// rebalances, over probe-depth (DynamicPgm) and position-error (Rmi)
// inners.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/controller.h"
#include "adapt/error_monitor.h"
#include "adapt/serving_adapter.h"
#include "adapt/shadow.h"
#include "common/epoch.h"
#include "common/random.h"
#include "datasets/generators.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/rmi.h"
#include "serving/sharded_index.h"

namespace lidx {
namespace {

using Action = AdaptDecision::Action;

// ---------------------------------------------------------------------
// ErrorMonitor (sensing)
// ---------------------------------------------------------------------

TEST(ErrorMonitorTest, DisabledRecordIsANoOp) {
  ErrorMonitor monitor(4, /*enabled=*/false);
  EXPECT_FALSE(monitor.enabled());
  monitor.Record(1, 99.0);
  monitor.Record(3, 7.0);
  EXPECT_EQ(monitor.TakeSnapshot().TotalOps(), 0u);
}

TEST(ErrorMonitorTest, SnapshotAggregatesPerSegment) {
  ErrorMonitor monitor(4);
  monitor.Record(0, 0.0);
  monitor.Record(0, 2.0);
  monitor.Record(0, 4.0);
  monitor.Record(3, 10.0);
  const auto snap = monitor.TakeSnapshot();
  ASSERT_EQ(snap.segments.size(), 4u);
  EXPECT_EQ(snap.segments[0].ops, 3u);
  EXPECT_EQ(snap.segments[0].error_sum, 6u);
  EXPECT_EQ(snap.segments[0].error_max, 4u);
  EXPECT_DOUBLE_EQ(snap.segments[0].MeanError(), 2.0);
  EXPECT_EQ(snap.segments[1].ops, 0u);
  EXPECT_EQ(snap.segments[3].ops, 1u);
  EXPECT_EQ(snap.TotalOps(), 4u);
}

TEST(ErrorMonitorTest, QuantileReadsTheHistogram) {
  ErrorMonitor monitor(1);
  for (int i = 0; i < 100; ++i) monitor.Record(0, 1.0);
  monitor.Record(0, 1000.0);
  const auto seg = monitor.TakeSnapshot().segments[0];
  // Median lands in the bucket holding error 1 (upper bound 2); the top
  // quantile is clamped to the observed max rather than the bucket edge.
  EXPECT_DOUBLE_EQ(seg.QuantileError(0.5), 2.0);
  EXPECT_DOUBLE_EQ(seg.QuantileError(1.0), 1000.0);
}

TEST(ErrorMonitorTest, SegmentOfCoversTheRange) {
  ErrorMonitor monitor(4);
  EXPECT_EQ(monitor.SegmentOf(0, 100), 0u);
  EXPECT_EQ(monitor.SegmentOf(50, 100), 2u);
  EXPECT_EQ(monitor.SegmentOf(99, 100), 3u);
  EXPECT_EQ(monitor.SegmentOf(5, 0), 0u);  // Empty structure: segment 0.
  EXPECT_EQ(ErrorMonitor(0).segments(), 1u);
}

TEST(ErrorMonitorTest, DeltaSinceWindowsAndAbsorbsReset) {
  ErrorMonitor monitor(2);
  for (int i = 0; i < 3; ++i) monitor.Record(0, 2.0);
  const auto snap1 = monitor.TakeSnapshot();
  for (int i = 0; i < 2; ++i) monitor.Record(0, 5.0);
  const auto snap2 = monitor.TakeSnapshot();
  const auto window = snap2.DeltaSince(snap1);
  EXPECT_EQ(window.segments[0].ops, 2u);
  EXPECT_EQ(window.segments[0].error_sum, 10u);
  EXPECT_DOUBLE_EQ(window.segments[0].MeanError(), 5.0);

  monitor.Reset();
  monitor.Record(0, 1.0);
  const auto snap3 = monitor.TakeSnapshot();
  // Counters went backwards: the delta keeps the post-reset values as-is
  // instead of underflowing.
  const auto after_reset = snap3.DeltaSince(snap2);
  EXPECT_EQ(after_reset.segments[0].ops, 1u);
  EXPECT_EQ(after_reset.segments[0].error_sum, 1u);
}

TEST(ErrorMonitorTest, ConcurrentRecordsAllCounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  ErrorMonitor monitor(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&monitor, t] {
      for (int i = 0; i < kPerThread; ++i) {
        monitor.Record(static_cast<size_t>(t), 3.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = monitor.TakeSnapshot();
  EXPECT_EQ(snap.TotalOps(), static_cast<uint64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.segments[t].ops, static_cast<uint64_t>(kPerThread));
    EXPECT_EQ(snap.segments[t].error_sum,
              static_cast<uint64_t>(kPerThread) * 3);
  }
}

// ---------------------------------------------------------------------
// DriftDetectorBank (decide)
// ---------------------------------------------------------------------

ModelDriftDetector::Options FastDrift() {
  ModelDriftDetector::Options opt;
  opt.delta = 0.1;
  opt.threshold = 10.0;
  opt.min_observations = 4;
  return opt;
}

TEST(DriftDetectorBankTest, DriftStaysLocalizedToItsSegment) {
  DriftDetectorBank bank(4, FastDrift());
  for (int i = 0; i < 8; ++i) {
    for (size_t s = 0; s < 4; ++s) bank.Observe(s, 1.0);
  }
  EXPECT_FALSE(bank.AnyDrifted());
  for (int i = 0; i < 6; ++i) bank.Observe(2, 100.0);
  EXPECT_TRUE(bank.drifted(2));
  EXPECT_FALSE(bank.drifted(0));
  EXPECT_FALSE(bank.drifted(1));
  EXPECT_FALSE(bank.drifted(3));
  EXPECT_TRUE(bank.AnyDrifted());
  bank.Reset(2);
  EXPECT_FALSE(bank.AnyDrifted());
}

TEST(DriftDetectorBankTest, ZeroSegmentsClampsToOne) {
  DriftDetectorBank bank(0, FastDrift());
  EXPECT_EQ(bank.size(), 1u);
}

// ---------------------------------------------------------------------
// AdaptController (decide): the policy table, one row per test.
// ---------------------------------------------------------------------

AdaptController::Options TestPolicy() {
  AdaptController::Options opt;
  opt.target_error = 10.0;
  opt.inflation_factor = 2.0;  // kGrow beyond tail error 20.
  opt.shrink_headroom = 0.5;   // Calm below weighted mean 5.
  opt.shrink_patience = 2;
  opt.skew_ratio = 2.0;
  opt.min_window_ops = 10;
  return opt;
}

SegmentSignal Sig(uint64_t ops, double mean, double tail,
                  bool drifted = false) {
  SegmentSignal s;
  s.ops = ops;
  s.mean_error = mean;
  s.tail_error = tail;
  s.drifted = drifted;
  return s;
}

TEST(AdaptControllerTest, ThinWindowCarriesNoEvidence) {
  AdaptController controller(TestPolicy());
  const auto d = controller.Decide({Sig(4, 100.0, 100.0), Sig(4, 0.0, 0.0)});
  EXPECT_EQ(d.action, Action::kNone);
  EXPECT_STREQ(d.reason, "idle");
}

TEST(AdaptControllerTest, InflatedTailTriggersGrow) {
  AdaptController controller(TestPolicy());
  const auto d = controller.Decide({Sig(50, 1.0, 1.0), Sig(50, 15.0, 25.0)});
  EXPECT_EQ(d.action, Action::kGrow);
  EXPECT_EQ(d.segment, 1u);
  EXPECT_DOUBLE_EQ(d.evidence, 25.0);
}

TEST(AdaptControllerTest, GrowOutranksRetrain) {
  // Capacity problems first: retraining at the same capacity cannot fix a
  // tail the model fundamentally cannot represent.
  AdaptController controller(TestPolicy());
  const auto d = controller.Decide(
      {Sig(50, 1.0, 1.0, /*drifted=*/true), Sig(50, 15.0, 25.0)});
  EXPECT_EQ(d.action, Action::kGrow);
  EXPECT_EQ(d.segment, 1u);
}

TEST(AdaptControllerTest, DriftTriggersRetrainOnTheDriftedSegment) {
  AdaptController controller(TestPolicy());
  const auto d = controller.Decide(
      {Sig(50, 6.0, 8.0), Sig(50, 7.0, 9.0, /*drifted=*/true)});
  EXPECT_EQ(d.action, Action::kRetrain);
  EXPECT_EQ(d.segment, 1u);
  EXPECT_STREQ(d.reason, "drift detector latched");
}

TEST(AdaptControllerTest, TrafficSkewTriggersRebalance) {
  AdaptController controller(TestPolicy());
  const auto d = controller.Decide({Sig(40, 6.0, 6.0), Sig(2, 6.0, 6.0),
                                    Sig(2, 6.0, 6.0), Sig(2, 6.0, 6.0)});
  EXPECT_EQ(d.action, Action::kRebalance);
  EXPECT_EQ(d.segment, 0u);
  EXPECT_GT(d.evidence, 2.0);
}

TEST(AdaptControllerTest, RebalanceRequiresOptIn) {
  AdaptController::Options opt = TestPolicy();
  opt.allow_rebalance = false;
  AdaptController controller(opt);
  const auto d = controller.Decide({Sig(40, 6.0, 6.0), Sig(2, 6.0, 6.0),
                                    Sig(2, 6.0, 6.0), Sig(2, 6.0, 6.0)});
  EXPECT_EQ(d.action, Action::kNone);
  EXPECT_STREQ(d.reason, "healthy");
}

TEST(AdaptControllerTest, ShrinkNeedsConsecutiveCalmWindows) {
  AdaptController controller(TestPolicy());
  const std::vector<SegmentSignal> calm = {Sig(20, 1.0, 1.0),
                                           Sig(20, 1.0, 1.0)};
  const std::vector<SegmentSignal> busy = {Sig(20, 6.0, 6.0),
                                           Sig(20, 6.0, 6.0)};
  EXPECT_EQ(controller.Decide(calm).action, Action::kNone);
  EXPECT_EQ(controller.calm_windows(), 1u);
  // A busy window resets the patience counter.
  EXPECT_EQ(controller.Decide(busy).action, Action::kNone);
  EXPECT_EQ(controller.calm_windows(), 0u);
  EXPECT_EQ(controller.Decide(calm).action, Action::kNone);
  const auto d = controller.Decide(calm);
  EXPECT_EQ(d.action, Action::kShrink);
  EXPECT_STREQ(d.reason, "sustained calm");
}

TEST(AdaptControllerTest, ShrinkCanBeDisabled) {
  AdaptController::Options opt = TestPolicy();
  opt.allow_shrink = false;
  AdaptController controller(opt);
  const std::vector<SegmentSignal> calm = {Sig(20, 1.0, 1.0),
                                           Sig(20, 1.0, 1.0)};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(controller.Decide(calm).action, Action::kNone);
  }
}

// ---------------------------------------------------------------------
// ShadowCell (acting): publish-then-retire discipline.
// ---------------------------------------------------------------------

struct Tracked {
  explicit Tracked(std::atomic<int>* live) : live_(live) {
    live_->fetch_add(1);
  }
  ~Tracked() { live_->fetch_sub(1); }
  std::atomic<int>* live_;
};

TEST(ShadowCellTest, PublishRetiresThePreviousValue) {
  EpochManager mgr;
  std::atomic<int> live{0};
  {
    ShadowCell<Tracked> cell(&mgr);
    cell.Publish(new Tracked(&live));
    {
      EpochManager::Guard guard = mgr.Pin();
      const Tracked* old = cell.Acquire();
      cell.Publish(new Tracked(&live));
      EXPECT_NE(cell.Acquire(), old);
      // The pinned reader keeps the retired value alive.
      for (int i = 0; i < 10; ++i) mgr.ReclaimSome();
      EXPECT_EQ(live.load(), 2);
    }
    mgr.DrainRetired();
    EXPECT_EQ(live.load(), 1);
  }
  // The destructor frees the final published value directly.
  EXPECT_EQ(live.load(), 0);
}

// ---------------------------------------------------------------------
// Workload streams for adaptation experiments.
// ---------------------------------------------------------------------

TEST(StreamTest, AdversarialStreamIsStrictlyIncreasing) {
  AdversarialStream stream;
  const auto keys = stream.Take(5000);
  ASSERT_EQ(keys.size(), 5000u);
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LT(keys[i - 1], keys[i]);
  }
}

TEST(StreamTest, ShiftingStreamStepsThroughPhases) {
  std::vector<uint64_t> keys(1000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 10;
  ShiftingStream::Options opt;
  opt.phases = {{0.0, 0.5, 0.0}, {0.5, 1.0, 0.0}};
  opt.ops_per_phase = 50;
  ShiftingStream stream(keys, opt);
  EXPECT_EQ(stream.num_phases(), 2u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(stream.phase(), 0u);
    EXPECT_LT(stream.Next(), 5000u);  // First half of the population.
  }
  for (int i = 0; i < 50; ++i) {
    // The phase advances lazily inside the draw that crosses the border.
    EXPECT_GE(stream.Next(), 5000u);  // Second half after the step.
    EXPECT_EQ(stream.phase(), 1u);
  }
  EXPECT_EQ(stream.ops_drawn(), 100u);
  EXPECT_LT(stream.Next(), 5000u);  // Wraps around to phase 0.
  EXPECT_EQ(stream.phase(), 0u);
}

// ---------------------------------------------------------------------
// ShardedIndex<Rmi> + ShardedAdaptor: the self-retraining learned index.
// ---------------------------------------------------------------------

// An Rmi whose Build records the thread that ran it.
struct StampingRmi : Rmi<uint64_t, uint64_t> {
  static inline std::atomic<size_t> last_build_thread{0};

  void Build(std::vector<uint64_t> keys, std::vector<uint64_t> values) {
    Rmi::Options options;
    options.num_models = 8;
    Rmi::Build(std::move(keys), std::move(values), options);
    last_build_thread.store(
        std::hash<std::thread::id>{}(std::this_thread::get_id()),
        std::memory_order_release);
  }
};

// An Rmi with a fixed, small model budget per shard.
struct SixteenModelRmi : Rmi<uint64_t, uint64_t> {
  void Build(std::vector<uint64_t> keys, std::vector<uint64_t> values) {
    Rmi::Options options;
    options.num_models = 16;
    Rmi::Build(std::move(keys), std::move(values), options);
  }
};

TEST(AdaptiveRmiAdaptTest, ShadowRebuildRunsOffTheWriterThread) {
  // The regression for "no write-path rebuild stalls": with background
  // drains on, the snapshot rebuild must execute on a pool worker, never
  // on the thread serving operations. This thread never lends itself to
  // the pool before the assertion, so a rebuild stamped with our hash
  // would mean the op path built inline.
  using Index = ShardedIndex<StampingRmi>;
  Index::Options opt;
  opt.num_shards = 1;
  opt.buffer_capacity = 64;
  opt.rebuild_min_delta = 64;
  opt.rebuild_fraction = 0.0;  // Any delta over the floor rebuilds.
  Index index(opt);

  std::vector<uint64_t> keys(20000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 7 + 3;
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  index.BulkLoad(keys, values);
  StampingRmi::last_build_thread.store(0);  // Forget the bulk load.

  const size_t self_hash =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const uint64_t base = keys.back() + 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  uint64_t next = 0;
  while (index.GetStats().rebuilds == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    index.Insert(base + next, next);
    ++next;
  }
  ASSERT_GE(index.GetStats().rebuilds, 1u)
      << "background rebuild never happened";
  EXPECT_NE(StampingRmi::last_build_thread.load(), 0u);
  EXPECT_NE(StampingRmi::last_build_thread.load(), self_hash);
  index.WaitForDrains();
}

TEST(AdaptiveRmiAdaptTest, InlineMaintenanceFuzzMatchesReferenceMap) {
  using Index = ShardedIndex<SixteenModelRmi>;
  Index::Options opt;
  opt.num_shards = 1;
  opt.buffer_capacity = 128;
  opt.rebuild_min_delta = 512;
  opt.background_drain = false;  // Deterministic: drains inline on writes.
  opt.collect_shard_stats = true;
  Index index(opt);
  ShardedAdaptor<Index>::Options aopt;
  aopt.controller = AdaptController::Options();  // Position units.
  ShardedAdaptor<Index> adaptor(&index, aopt);
  std::map<uint64_t, uint64_t> reference;

  std::vector<uint64_t> keys(4096);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i * 97 + 13;
    values[i] = i;
    reference[keys[i]] = values[i];
  }
  index.BulkLoad(keys, values);

  Rng rng(20260808);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(1u << 20);
    if (rng.NextBounded(10) < 7) {
      const uint64_t value = rng.Next();
      index.Insert(key, value);
      reference[key] = value;
    } else {
      const auto it = reference.find(key);
      const auto got = index.Find(key);
      if (it == reference.end()) {
        EXPECT_FALSE(got.has_value()) << "phantom key " << key;
      } else {
        ASSERT_TRUE(got.has_value()) << "lost key " << key;
        EXPECT_EQ(*got, it->second);
      }
    }
    if ((i + 1) % 4096 == 0) {
      adaptor.Tick();
      index.CheckInvariants();
    }
  }
  adaptor.Tick();
  for (const auto& [key, value] : reference) {
    const auto got = index.Find(key);
    ASSERT_TRUE(got.has_value()) << "lost key " << key;
    ASSERT_EQ(*got, value);
  }
  index.CheckInvariants();
  EXPECT_EQ(adaptor.ticks(), 5u);
}

// ---------------------------------------------------------------------
// ShardedIndex rebalance + forced rebuild (the serving-layer actions).
// ---------------------------------------------------------------------

using Engine = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;

std::vector<uint64_t> SequentialKeys(size_t n, uint64_t stride = 37,
                                     uint64_t offset = 11) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = i * stride + offset;
  return keys;
}

TEST(ShardedRebalanceTest, PreservesDataAcrossShardCounts) {
  Engine::Options opt;
  opt.num_shards = 16;
  opt.background_drain = false;
  Engine index(opt);
  const auto keys = SequentialKeys(20000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  index.BulkLoad(keys, values);

  // Buffered writes, overwrites, and tombstones must all survive the
  // table swaps.
  const uint64_t fresh_base = keys.back() + 1;
  for (uint64_t i = 0; i < 500; ++i) index.Insert(fresh_base + i * 13, i);
  for (size_t i = 0; i < 100; ++i) index.Insert(keys[i], 777);
  for (size_t i = 200; i < 300; ++i) EXPECT_TRUE(index.Erase(keys[i]));

  const uint64_t v0 = index.table_version();
  EXPECT_TRUE(index.Rebalance(16));
  EXPECT_NE(index.table_version(), v0);
  EXPECT_EQ(index.num_shards(), 16u);
  EXPECT_TRUE(index.Rebalance(32));
  EXPECT_EQ(index.num_shards(), 32u);
  EXPECT_TRUE(index.Rebalance(8));
  EXPECT_EQ(index.num_shards(), 8u);
  EXPECT_EQ(index.GetStats().rebalances, 3u);

  for (size_t i = 0; i < keys.size(); ++i) {
    const auto got = index.Find(keys[i]);
    if (i >= 200 && i < 300) {
      EXPECT_FALSE(got.has_value()) << "erased key resurrected: " << keys[i];
    } else {
      ASSERT_TRUE(got.has_value()) << "lost key " << keys[i];
      EXPECT_EQ(*got, i < 100 ? 777u : values[i]);
    }
  }
  for (uint64_t i = 0; i < 500; ++i) {
    const auto got = index.Find(fresh_base + i * 13);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(index.Find(keys.back() + 5).has_value());
  index.CheckInvariants();
}

// Counts the shards that received any traffic in the current table.
size_t ShardsTouched(const Engine& index) {
  size_t touched = 0;
  for (const auto& seg : index.TakeShardStats().reads.segments) {
    if (seg.ops > 0) ++touched;
  }
  return touched;
}

TEST(ShardedRebalanceTest, TrafficWeightedBoundariesSpreadTheHotRange) {
  Engine::Options opt;
  opt.num_shards = 16;
  opt.background_drain = false;
  opt.collect_shard_stats = true;
  Engine index(opt);
  const auto keys = SequentialKeys(100000, /*stride=*/1009);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  index.BulkLoad(keys, values);

  // Hammer the coldest sixteenth of the key space: quantile boundaries
  // put all of it in one shard.
  const size_t hot_n = keys.size() / 16;
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t i = 0; i < hot_n; ++i) index.Find(keys[i]);
  }
  const size_t before = ShardsTouched(index);
  EXPECT_LE(before, 2u);

  // A traffic-weighted re-cut concentrates boundaries inside the hot
  // range, so the same workload now spreads across many shards.
  ASSERT_TRUE(index.Rebalance());
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t i = 0; i < hot_n; ++i) index.Find(keys[i]);
  }
  const size_t after = ShardsTouched(index);
  EXPECT_GT(after, before);
  EXPECT_GE(after, 4u);

  // Rebalancing moved data, not values.
  for (size_t i = 0; i < keys.size(); i += 997) {
    const auto got = index.Find(keys[i]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, values[i]);
  }
  index.CheckInvariants();
}

// One scorching key absorbs most traffic quantiles, so the re-cut repeats
// boundaries across runs of shards. Route sends a run's keys to its first
// shard, which must therefore own them: no loaded key may become
// unreachable.
TEST(ShardedRebalanceTest, ScorchingKeyKeepsEveryKeyReachable) {
  Engine::Options opt;
  opt.num_shards = 64;
  opt.background_drain = false;
  opt.collect_shard_stats = true;
  Engine index(opt);
  const auto keys = SequentialKeys(1024);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  index.BulkLoad(keys, values);

  const uint64_t hot = keys[keys.size() / 2];
  for (int i = 0; i < 200000; ++i) index.Find(hot);
  ASSERT_TRUE(index.Rebalance(64));

  size_t lost = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (index.Find(keys[i]) != std::optional<uint64_t>(values[i])) ++lost;
  }
  EXPECT_EQ(lost, 0u);
  index.CheckInvariants();
}

TEST(ShardedRebalanceTest, ForcedShardRebuildFoldsTheDelta) {
  Engine::Options opt;
  opt.num_shards = 4;
  opt.background_drain = false;
  opt.buffer_capacity = 8;
  opt.rebuild_min_delta = size_t{1} << 20;  // Never rebuild organically.
  Engine index(opt);
  const auto keys = SequentialKeys(10000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  index.BulkLoad(keys, values);

  const uint64_t base = keys.back() + 1;
  for (uint64_t i = 0; i < 64; ++i) index.Insert(base + i * 5, i);
  EXPECT_EQ(index.GetStats().rebuilds, 0u);

  const auto stats = index.TakeShardStats();
  size_t target = stats.shards.size();
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    if (stats.shards[s].delta > 0) {
      target = s;
      break;
    }
  }
  ASSERT_LT(target, stats.shards.size()) << "inline drains built no delta";

  index.RequestShardRebuild(target);
  EXPECT_GE(index.GetStats().rebuilds, 1u);
  const auto after = index.TakeShardStats();
  EXPECT_EQ(after.shards[target].delta, 0u);
  EXPECT_GT(after.shards[target].snapshot, 0u);

  // Out-of-range requests are ignored, not fatal.
  index.RequestShardRebuild(9999);

  for (uint64_t i = 0; i < 64; ++i) {
    const auto got = index.Find(base + i * 5);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);
  }
  index.CheckInvariants();
}

TEST(ShardedRebalanceTest, ReadersAndWritersRideThroughRebalances) {
  Engine::Options opt;
  opt.num_shards = 8;
  Engine index(opt);
  const auto keys = SequentialKeys(50000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] * 3;
  index.BulkLoad(keys, values);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = rng.NextBounded(keys.size());
        const auto got = index.Find(keys[i]);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(*got, keys[i] * 3);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const uint64_t fresh_base = keys.back() + 1;
  std::thread writer([&] {
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed) && i < 20000;
         ++i) {
      index.Insert(fresh_base + i, i);
    }
  });

  for (const size_t shards : {16u, 4u, 8u}) {
    EXPECT_TRUE(index.Rebalance(shards));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  writer.join();

  EXPECT_EQ(index.num_shards(), 8u);
  EXPECT_EQ(index.GetStats().rebalances, 3u);
  EXPECT_GT(reads.load(), 0u);
  index.FlushAll();
  index.CheckInvariants();
  for (size_t i = 0; i < keys.size(); i += 503) {
    ASSERT_EQ(index.Find(keys[i]), std::optional<uint64_t>(keys[i] * 3));
  }
}

// ---------------------------------------------------------------------
// ShardedAdaptor: decisions mapped onto serving actions. A scripted fake
// exercises every Act() arm deterministically; a real index closes the
// loop on the skew path.
// ---------------------------------------------------------------------

class FakeShardedIndex {
 public:
  struct ShardStat {
    size_t buffered = 0;
    size_t delta = 0;
    size_t snapshot = 1000;
  };
  struct ShardStatsSnapshot {
    uint64_t table_version = 0;
    ErrorMonitor::Snapshot reads;
    std::vector<ShardStat> shards;
  };

  explicit FakeShardedIndex(size_t num_shards)
      : monitor_(std::make_unique<ErrorMonitor>(num_shards)) {}

  size_t num_shards() const { return monitor_->segments(); }
  ShardStatsSnapshot TakeShardStats() const {
    stats_taken.fetch_add(1);  // One per adaptor tick.
    std::vector<ShardStat> shards(num_shards());
    for (size_t s = 0; s < shards.size() && s < shard_keys.size(); ++s) {
      shards[s].snapshot = shard_keys[s];
    }
    return {table_version_, monitor_->TakeSnapshot(), std::move(shards)};
  }

  bool Rebalance(size_t new_num_shards) {
    rebalance_calls.push_back(new_num_shards);
    ++table_version_;  // Swap restarts the counters.
    monitor_ = std::make_unique<ErrorMonitor>(
        new_num_shards == 0 ? num_shards() : new_num_shards);
    return true;
  }

  void RequestShardRebuild(size_t s) { rebuild_requests.push_back(s); }

  // Records one window of (ops, probe depth) per shard: `ops` reads that
  // each probed `depth` structures.
  void AddWindow(const std::vector<std::pair<uint64_t, double>>& window) {
    for (size_t s = 0; s < window.size() && s < num_shards(); ++s) {
      for (uint64_t i = 0; i < window[s].first; ++i) {
        monitor_->Record(s, window[s].second);
      }
    }
  }

  std::vector<size_t> rebalance_calls;
  std::vector<size_t> rebuild_requests;
  mutable std::atomic<uint64_t> stats_taken{0};
  // Keys held per shard; shards past its end hold 1000 each.
  std::vector<size_t> shard_keys;

 private:
  uint64_t table_version_ = 1;
  std::unique_ptr<ErrorMonitor> monitor_;
};

TEST(ShardedAdaptorTest, DeepProbesGrowTheShardCount) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake);

  fake.AddWindow({{100, 3.0}, {100, 3.0}, {100, 3.0}, {100, 3.0}});
  EXPECT_EQ(adaptor.Tick().action, Action::kNone);  // Healthy baseline.

  // Shard 2's probe depth blows past inflation_factor * target: capacity.
  fake.AddWindow({{100, 3.0}, {100, 3.0}, {100, 20.0}, {100, 3.0}});
  const auto d = adaptor.Tick();
  EXPECT_EQ(d.action, Action::kGrow);
  ASSERT_EQ(fake.rebalance_calls.size(), 1u);
  // A p99 of 20 against a budget of 8 asks for 4x the shards.
  EXPECT_EQ(fake.rebalance_calls[0], 16u);
  EXPECT_EQ(adaptor.actions_taken(), 1u);
}

TEST(ShardedAdaptorTest, GrowJumpsToTheShardCountTheTailAsksFor) {
  FakeShardedIndex fake(2);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake);
  // A p99 of 400 is 50x the budget (inflation_factor 2 * target 4): one
  // re-cut to the smallest power-of-two factor that covers it, 64.
  fake.AddWindow({{200, 400.0}, {200, 400.0}});
  EXPECT_EQ(adaptor.Tick().action, Action::kGrow);
  EXPECT_EQ(fake.rebalance_calls, std::vector<size_t>{128});
}

TEST(ShardedAdaptorTest, ClampedGrowAndShrinkRebuildNothing) {
  ShardedAdaptor<FakeShardedIndex>::Options opt;
  opt.min_shards = 2;
  opt.max_shards = 2;
  FakeShardedIndex fake(2);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake, opt);
  fake.AddWindow({{200, 400.0}, {200, 400.0}});
  EXPECT_EQ(adaptor.Tick().action, Action::kGrow);  // At the cap.
  for (int i = 0; i < 4; ++i) {
    fake.AddWindow({{200, 0.0}, {200, 0.0}});
    adaptor.Tick();
  }
  EXPECT_EQ(adaptor.last_decision().action, Action::kShrink);  // At the floor.
  EXPECT_TRUE(fake.rebalance_calls.empty());
  EXPECT_EQ(adaptor.actions_taken(), 0u);
}

// At the cap a grow still re-cuts in place when most reads land on a
// shard holding more than twice the average key count: the traffic has
// moved onto a range the last cuts made wide. Reads on a narrow shard (a
// hot range the cuts already split) re-cut nothing.
TEST(ShardedAdaptorTest, ClampedGrowFollowsMovedTraffic) {
  ShardedAdaptor<FakeShardedIndex>::Options opt;
  opt.max_shards = 4;
  FakeShardedIndex fake(4);
  fake.shard_keys = {100, 100, 100, 3700};
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake, opt);
  fake.AddWindow({{20, 3.0}, {20, 3.0}, {20, 3.0}, {400, 400.0}});
  EXPECT_EQ(adaptor.Tick().action, Action::kGrow);
  EXPECT_EQ(fake.rebalance_calls, std::vector<size_t>{4});

  fake.shard_keys = {3700, 100, 100, 100};
  fake.AddWindow({{20, 3.0}, {20, 3.0}, {20, 3.0}, {400, 400.0}});
  EXPECT_EQ(adaptor.Tick().action, Action::kGrow);
  EXPECT_EQ(fake.rebalance_calls, std::vector<size_t>{4});  // No second.
}

// A shrink stops above the count the last grow started from, so a grow
// that overshoots settles instead of cycling back through that count.
TEST(ShardedAdaptorTest, ShrinkStopsAboveTheCountTheLastGrowLeft) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake);
  fake.AddWindow({{100, 3.0}, {100, 3.0}, {100, 20.0}, {100, 3.0}});
  EXPECT_EQ(adaptor.Tick().action, Action::kGrow);  // 4 -> 16.
  const auto calm_windows = [&](int windows) {
    for (int i = 0; i < windows; ++i) {
      fake.AddWindow(std::vector<std::pair<uint64_t, double>>(
          fake.num_shards(), {100, 0.0}));
      adaptor.Tick();
    }
  };
  calm_windows(4);  // 16 -> 8.
  calm_windows(8);  // 8 -> 4 would return to the grow's start: refused.
  EXPECT_EQ(adaptor.last_decision().action, Action::kShrink);
  EXPECT_EQ(fake.rebalance_calls, (std::vector<size_t>{16, 8}));
  EXPECT_EQ(fake.num_shards(), 8u);
}

TEST(ShardedAdaptorTest, ProbeDepthDriftRequestsAShardRebuild) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake);

  // Shard 1 degrades from depth 2 to depth 8 — under the kGrow bar
  // (2 * target_error = 8), so the Page-Hinkley detector is what fires.
  for (int i = 0; i < 4; ++i) {
    fake.AddWindow({{100, 2.0}, {100, 2.0}, {100, 2.0}, {100, 2.0}});
    EXPECT_EQ(adaptor.Tick().action, Action::kNone);
  }
  bool retrained = false;
  for (int i = 0; i < 60 && !retrained; ++i) {
    fake.AddWindow({{100, 2.0}, {100, 8.0}, {100, 2.0}, {100, 2.0}});
    retrained = adaptor.Tick().action == Action::kRetrain;
  }
  ASSERT_TRUE(retrained) << "drift never latched";
  ASSERT_EQ(fake.rebuild_requests.size(), 1u);
  EXPECT_EQ(fake.rebuild_requests[0], 1u);
  EXPECT_TRUE(fake.rebalance_calls.empty());
}

TEST(ShardedAdaptorTest, TrafficSkewRebalancesInPlace) {
  FakeShardedIndex fake(8);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake);
  fake.AddWindow({{0, 0.0},
                  {0, 0.0},
                  {0, 0.0},
                  {1000, 3.0},
                  {0, 0.0},
                  {0, 0.0},
                  {0, 0.0},
                  {0, 0.0}});
  const auto d = adaptor.Tick();
  EXPECT_EQ(d.action, Action::kRebalance);
  EXPECT_EQ(d.segment, 3u);
  ASSERT_EQ(fake.rebalance_calls.size(), 1u);
  EXPECT_EQ(fake.rebalance_calls[0], 8u);  // Same count, new boundaries.
}

TEST(ShardedAdaptorTest, SustainedCalmShrinksTheShardCount) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake);
  // Probe depth 0 is far under shrink_headroom * target; default patience
  // is four calm windows.
  for (int i = 0; i < 3; ++i) {
    fake.AddWindow({{100, 0.0}, {100, 0.0}, {100, 0.0}, {100, 0.0}});
    EXPECT_EQ(adaptor.Tick().action, Action::kNone);
  }
  fake.AddWindow({{100, 0.0}, {100, 0.0}, {100, 0.0}, {100, 0.0}});
  EXPECT_EQ(adaptor.Tick().action, Action::kShrink);
  ASSERT_EQ(fake.rebalance_calls.size(), 1u);
  EXPECT_EQ(fake.rebalance_calls[0], 2u);  // Halved.
}

TEST(ShardedAdaptorTest, TableSwapStartsAFreshWindow) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake);
  fake.AddWindow({{1000, 3.0}, {1000, 3.0}, {1000, 3.0}, {1000, 3.0}});
  EXPECT_EQ(adaptor.Tick().action, Action::kNone);

  // An external rebalance restarts the counters below the previous
  // snapshot. A naive delta would underflow into a huge phantom window;
  // the adaptor must detect the swap and treat raw counts as the window.
  fake.Rebalance(4);
  fake.AddWindow({{10, 3.0}, {10, 3.0}, {10, 3.0}, {10, 3.0}});
  const auto d = adaptor.Tick();
  EXPECT_EQ(d.action, Action::kNone);
  EXPECT_STREQ(d.reason, "idle");  // 40 ops: not evidence, not a tantrum.
  EXPECT_EQ(adaptor.ticks(), 2u);
}

// Options whose thread ticks every millisecond.
ShardedAdaptor<FakeShardedIndex>::Options FastTicks() {
  ShardedAdaptor<FakeShardedIndex>::Options opt;
  opt.tick_period = std::chrono::milliseconds(1);
  return opt;
}

// Spins until the fake has served `ticks` adaptor ticks (10 s deadline).
bool WaitForTicks(const FakeShardedIndex& fake, uint64_t ticks) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fake.stats_taken.load() < ticks) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Waits out a few tick periods and checks the fake saw no further tick.
void ExpectNoMoreTicks(const FakeShardedIndex& fake) {
  const uint64_t frozen = fake.stats_taken.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fake.stats_taken.load(), frozen);
}

// The adaptor's own thread is the engine of the loop: after Start it
// ticks every tick_period until Stop.
TEST(ShardedAdaptorTest, EngineDrivesTheAdaptor) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake, FastTicks());
  adaptor.Start();
  EXPECT_TRUE(WaitForTicks(fake, 3));
  adaptor.Stop();
  EXPECT_GE(adaptor.ticks(), 3u);
  EXPECT_EQ(adaptor.ticks(), fake.stats_taken.load());
}

TEST(ShardedAdaptorTest, StopIsABarrier) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake, FastTicks());
  adaptor.Stop();  // Not running: a no-op.
  adaptor.Start();
  ASSERT_TRUE(WaitForTicks(fake, 1));
  adaptor.Stop();
  ExpectNoMoreTicks(fake);
}

TEST(ShardedAdaptorTest, StartAfterStopResumesTicking) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake, FastTicks());
  adaptor.Start();
  ASSERT_TRUE(WaitForTicks(fake, 1));
  adaptor.Stop();
  const uint64_t stopped_at = fake.stats_taken.load();
  adaptor.Start();
  EXPECT_TRUE(WaitForTicks(fake, stopped_at + 2));
  adaptor.Stop();
}

TEST(ShardedAdaptorTest, DestroyingARunningAdaptorJoins) {
  FakeShardedIndex fake(4);
  auto adaptor =
      std::make_unique<ShardedAdaptor<FakeShardedIndex>>(&fake, FastTicks());
  adaptor->Start();
  ASSERT_TRUE(WaitForTicks(fake, 1));
  adaptor.reset();  // Joins the thread; nothing ticks a freed adaptor.
  ExpectNoMoreTicks(fake);
}

TEST(ShardedAdaptorTest, SecondStartIsANoOp) {
  FakeShardedIndex fake(4);
  ShardedAdaptor<FakeShardedIndex> adaptor(&fake, FastTicks());
  adaptor.Start();
  adaptor.Start();  // A second thread would be a second ticker.
  ASSERT_TRUE(WaitForTicks(fake, 1));
  adaptor.Stop();  // One Stop joins the one thread.
  ExpectNoMoreTicks(fake);
}

// A learned inner records its snapshot's observed position error, on the
// scalar and the batched read path alike.
TEST(ShardedAdaptorTest, LearnedInnerRecordsPositionError) {
  using Learned = ShardedIndex<Rmi<uint64_t, uint64_t>>;
  Learned::Options opt;
  opt.num_shards = 1;
  opt.collect_shard_stats = true;
  Learned index(opt);
  const auto keys = GenerateKeys(KeyDistribution::kClustered, 20000, 61);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  index.BulkLoad(keys, values);
  Rmi<uint64_t, uint64_t> standalone;
  standalone.Build(keys, values);

  std::vector<uint64_t> probes;
  for (size_t i = 0; i < keys.size(); i += 7) probes.push_back(keys[i]);
  probes.push_back(keys.back() + 1);  // Absent keys are observed too.
  uint64_t expected = 0;
  for (const uint64_t k : probes) {
    const size_t predicted = standalone.PredictPosition(k);
    const size_t actual = standalone.LowerBound(k);
    expected += predicted > actual ? predicted - actual : actual - predicted;
  }
  ASSERT_GT(expected, 0u);

  for (const uint64_t k : probes) index.Find(k);
  auto reads = index.TakeShardStats().reads;
  ASSERT_EQ(reads.segments.size(), 1u);
  EXPECT_EQ(reads.segments[0].ops, probes.size());
  EXPECT_EQ(reads.segments[0].error_sum, expected);

  std::vector<uint64_t> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  reads = index.TakeShardStats().reads;
  EXPECT_EQ(reads.segments[0].ops, 2 * probes.size());
  EXPECT_EQ(reads.segments[0].error_sum, 2 * expected);
}

TEST(ShardedAdaptorTest, SkewedTrafficOnARealIndexTriggersRebalance) {
  Engine::Options opt;
  opt.num_shards = 16;
  opt.collect_shard_stats = true;
  Engine index(opt);
  const auto keys = SequentialKeys(50000, /*stride=*/101);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  index.BulkLoad(keys, values);
  ShardedAdaptor<Engine> adaptor(&index);

  // All traffic on one sixteenth of the key space: one shard takes ~16x
  // its fair share.
  const size_t hot_n = keys.size() / 16;
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t i = 0; i < hot_n; ++i) index.Find(keys[i]);
  }
  const uint64_t v0 = index.table_version();
  const auto d = adaptor.Tick();
  EXPECT_EQ(d.action, Action::kRebalance);
  EXPECT_EQ(adaptor.actions_taken(), 1u);
  EXPECT_EQ(index.GetStats().rebalances, 1u);
  EXPECT_NE(index.table_version(), v0);

  // After the traffic-weighted re-cut the same workload is no longer
  // skewed enough to fire again.
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t i = 0; i < hot_n; ++i) index.Find(keys[i]);
  }
  const auto d2 = adaptor.Tick();
  EXPECT_NE(d2.action, Action::kRebalance);
  EXPECT_NE(d2.action, Action::kGrow);
  index.CheckInvariants();
}

}  // namespace
}  // namespace lidx
