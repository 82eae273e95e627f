#ifndef LIDX_ADAPT_SERVING_ADAPTER_H_
#define LIDX_ADAPT_SERVING_ADAPTER_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/controller.h"
#include "adapt/error_monitor.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "models/drift.h"

namespace lidx {

// Adaptation bridge for the sharded serving layer: turns ShardedIndex's
// per-shard read monitor into controller signals and controller decisions
// back into serving-layer actions (tutorial §6.3: watch the live errors,
// decide, rebuild in the background). What a shard's "error" is depends on
// its inner index: a learned inner that exposes PredictPosition/LowerBound
// (Rmi) reports its snapshot's observed position error, every other inner
// reports probe depth (read amplification: a healthy shard answers in ~3
// probes, piled-up sealed buffers or a hot delta push the count up).
//
//   signal                         decision     action
//   ------------------------------ ------------ ---------------------------
//   p99 error beyond capacity      kGrow        Rebalance(f x shards),
//                                               f from GrowTarget
//   error drift (staleness)        kRetrain     RequestShardRebuild(shard)
//   traffic skew across shards     kRebalance   Rebalance(same shard count,
//                                               traffic-weighted cuts)
//   sustained calm                 kShrink      Rebalance(shards / 2)
//
// Every shard trains its own models, so for a learned inner the model
// budget is shards x models per shard, and kGrow's traffic-weighted cuts
// spend the grown budget on the hot key range.
//
// A grow or shrink that the shard limits clamp to the current count does
// nothing, except that a clamped grow re-cuts in place once the traffic
// has moved (TrafficMoved). A shrink stops above the count the last grow
// started from, which that grow showed too small; going back would cycle
// (the jump overshoots, calm shrinks twice, the tail asks for the jump).
//
// Tick() runs one sense -> decide -> act cycle. Start() runs it every
// tick_period on the adaptor's own thread until Stop(); tests and benches
// call Tick() directly instead. One ticker at a time: the adaptor's thread
// or a caller, never both. Start and Stop are called from one thread.
template <typename ShardedIndexT>
class ShardedAdaptor {
 public:
  struct Options {
    // The defaults are calibrated in probe-depth units: active + delta +
    // snapshot model + last-mile is the healthy baseline. A learned inner
    // reports positions; pass AdaptController's defaults for it instead.
    AdaptController::Options controller = [] {
      AdaptController::Options c;
      c.target_error = 4.0;
      c.inflation_factor = 2.0;
      return c;
    }();
    // Per-shard drift detection over the window-mean error.
    ModelDriftDetector::Options drift = [] {
      ModelDriftDetector::Options d;
      d.delta = 0.25;
      d.threshold = 32.0;
      d.min_observations = 4;
      return d;
    }();
    size_t min_shards = 1;
    size_t max_shards = 256;
    // The period of Start()'s ticking thread.
    std::chrono::milliseconds tick_period{100};
  };

  explicit ShardedAdaptor(ShardedIndexT* index,
                          const Options& options = Options())
      : index_(index),
        options_(options),
        controller_(options.controller),
        bank_(index->num_shards(), options.drift) {}

  ~ShardedAdaptor() { Stop(); }

  ShardedAdaptor(const ShardedAdaptor&) = delete;
  ShardedAdaptor& operator=(const ShardedAdaptor&) = delete;

  // Starts a thread that calls Tick() every tick_period. A no-op while
  // the thread runs; after Stop() it starts a new one.
  void Start() {
    MutexLock lock(mu_);
    if (running_) return;
    running_ = true;
    thread_ = std::thread([this] { TickLoop(); });
  }

  // Wakes the thread and joins it: no tick runs after Stop() returns.
  // A no-op when the thread is not running; the destructor calls it.
  void Stop() {
    {
      MutexLock lock(mu_);
      if (!running_) return;
      running_ = false;
      wake_.NotifyAll();
    }
    thread_.join();
  }

  // One sense -> decide -> act cycle; returns the decision taken.
  AdaptDecision Tick() {
    ShardStatsSnapshot cur = index_->TakeShardStats();
    const size_t n = cur.reads.segments.size();
    // A table swap (rebalance) restarts the counters and may change the
    // shard count; the old window and detectors describe segments that no
    // longer exist. Start a fresh window: the post-swap counters *are*
    // the deltas.
    const bool continuous =
        prev_valid_ && prev_.table_version == cur.table_version;
    if (!continuous) bank_ = DriftDetectorBank(n, options_.drift);
    const ErrorMonitor::Snapshot window =
        continuous ? cur.reads.DeltaSince(prev_.reads) : cur.reads;
    std::vector<SegmentSignal> signals(n);
    for (size_t s = 0; s < n; ++s) {
      const ErrorMonitor::SegmentSnapshot& seg = window.segments[s];
      SegmentSignal& sig = signals[s];
      sig.ops = seg.ops;
      if (seg.ops > 0) {
        sig.mean_error = seg.MeanError();
        sig.tail_error = seg.QuantileError(0.99);
        sig.drifted = bank_.Observe(s, sig.mean_error);
      } else {
        sig.drifted = bank_.drifted(s);
      }
    }
    AdaptDecision d = controller_.Decide(signals);
    Act(d, window, cur);
    prev_ = std::move(cur);
    prev_valid_ = true;
    last_decision_ = d;
    ++ticks_;
    return d;
  }

  // Read these while no tick runs: after Stop(), or between direct Ticks.
  const AdaptDecision& last_decision() const { return last_decision_; }
  uint64_t ticks() const { return ticks_; }
  uint64_t actions_taken() const { return actions_taken_; }

 private:
  using ShardStatsSnapshot = typename ShardedIndexT::ShardStatsSnapshot;

  // Ticks outside mu_, so a tick's Rebalance nests no lock of ours; Stop's
  // join waits out an in-flight tick. A spurious wakeup only ticks early.
  void TickLoop() {
    for (;;) {
      {
        MutexLock lock(mu_);
        if (running_) wake_.WaitFor(mu_, options_.tick_period);
        if (!running_) return;
      }
      Tick();
    }
  }

  // The shard count a kGrow asks for: the smallest power-of-two factor
  // f >= 2 whose f-times budget covers the observed tail, clamped to
  // max_shards, so one re-cut reaches it.
  size_t GrowTarget(const AdaptDecision& d, size_t num_shards) const {
    const double budget = options_.controller.inflation_factor *
                          options_.controller.target_error;
    size_t f = 2;
    while (static_cast<double>(f) * budget < d.evidence &&
           num_shards * f < options_.max_shards) {
      f *= 2;
    }
    return std::min(options_.max_shards, num_shards * f);
  }

  // Whether half or more of the window's reads land on shards holding
  // over twice the average key count. Traffic-weighted cuts leave such
  // wide shards only on ranges that were cold when the cuts were made.
  static bool TrafficMoved(const ErrorMonitor::Snapshot& window,
                           const auto& shards) {
    const auto keys_of = [](const auto& shard) {
      return shard.snapshot + shard.delta + shard.buffered;
    };
    size_t keys = 0;
    for (const auto& shard : shards) keys += keys_of(shard);
    uint64_t reads = 0;
    uint64_t wide_reads = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      reads += window.segments[s].ops;
      if (keys_of(shards[s]) * shards.size() > 2 * keys) {
        wide_reads += window.segments[s].ops;
      }
    }
    return reads > 0 && 2 * wide_reads >= reads;
  }

  void Act(const AdaptDecision& d, const ErrorMonitor::Snapshot& window,
           const ShardStatsSnapshot& cur) {
    const size_t num_shards = window.segments.size();
    switch (d.action) {
      case AdaptDecision::Action::kGrow: {
        const size_t target = GrowTarget(d, num_shards);
        if (target != num_shards) {
          if (ApplyRebalance(target)) grown_from_ = num_shards;
        } else if (TrafficMoved(window, cur.shards)) {
          ApplyRebalance(num_shards);
        }
        break;
      }
      case AdaptDecision::Action::kShrink: {
        const size_t target = std::max(options_.min_shards, num_shards / 2);
        if (target < num_shards && target > grown_from_) ApplyRebalance(target);
        break;
      }
      case AdaptDecision::Action::kRebalance:
        ApplyRebalance(num_shards);
        break;
      case AdaptDecision::Action::kRetrain:
        index_->RequestShardRebuild(d.segment);
        bank_.Reset(d.segment);
        ++actions_taken_;
        break;
      case AdaptDecision::Action::kNone:
        break;
    }
  }

  bool ApplyRebalance(size_t new_num_shards) {
    // Rebalance is single-flight inside the index; a false return means
    // another rebalance is running and this window's evidence is stale
    // anyway. The table-version change starts a fresh window and fresh
    // drift detectors on the next tick.
    if (!index_->Rebalance(new_num_shards)) return false;
    ++actions_taken_;
    return true;
  }

  ShardedIndexT* index_;
  Options options_;
  AdaptController controller_;
  DriftDetectorBank bank_;
  ShardStatsSnapshot prev_;
  bool prev_valid_ = false;
  AdaptDecision last_decision_;
  uint64_t ticks_ = 0;
  uint64_t actions_taken_ = 0;
  size_t grown_from_ = 0;  // The shard count the last grow started from.

  Mutex mu_;
  CondVar wake_;
  bool running_ LIDX_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace lidx

#endif  // LIDX_ADAPT_SERVING_ADAPTER_H_
