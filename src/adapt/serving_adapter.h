#ifndef LIDX_ADAPT_SERVING_ADAPTER_H_
#define LIDX_ADAPT_SERVING_ADAPTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "adapt/controller.h"
#include "adapt/engine.h"
#include "adapt/error_monitor.h"
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
//   p99 error beyond capacity      kGrow        Rebalance(2x shards)
//   error drift (staleness)        kRetrain     RequestShardRebuild(shard)
//   traffic skew across shards     kRebalance   Rebalance(same shard count,
//                                               traffic-weighted cuts)
//   sustained calm                 kShrink      Rebalance(shards / 2)
//
// Every shard trains its own models, so for a learned inner the model
// budget is shards x models per shard, and kGrow's traffic-weighted cuts
// spend the doubled budget on the hot key range.
//
// Tick() runs one sense -> decide -> act cycle. It is not thread-safe by
// itself; the AdaptationEngine serializes ticks (register via
// RegisterWith), which is the intended way to run it.
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
  };

  explicit ShardedAdaptor(ShardedIndexT* index,
                          const Options& options = Options())
      : index_(index),
        options_(options),
        controller_(options.controller),
        bank_(index->num_shards(), options.drift) {}

  ShardedAdaptor(const ShardedAdaptor&) = delete;
  ShardedAdaptor& operator=(const ShardedAdaptor&) = delete;

  // Registers this adaptor's Tick with the engine for the adaptor's
  // lifetime. A second call drops the first registration. The engine must
  // outlive the adaptor (declare it first); it aborts if it does not.
  void RegisterWith(AdaptationEngine* engine) {
    registration_ = engine->Register("sharded-adaptor", [this] { Tick(); });
  }

  // One sense -> decide -> act cycle; returns the decision taken.
  AdaptDecision Tick() {
    typename ShardedIndexT::ShardStatsSnapshot cur = index_->TakeShardStats();
    const size_t n = cur.reads.segments.size();
    // A table swap (rebalance) restarts the counters and may change the
    // shard count; the old window and detectors describe segments that no
    // longer exist. Start a fresh window: the post-swap counters *are*
    // the deltas.
    const bool continuous =
        prev_valid_ && prev_.table_version == cur.table_version;
    if (!continuous && bank_.size() != std::max<size_t>(n, 1)) {
      bank_ = DriftDetectorBank(n, options_.drift);
    } else if (!continuous) {
      bank_.ResetAll();
    }
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
    prev_ = std::move(cur);
    prev_valid_ = true;

    AdaptDecision d = controller_.Decide(signals);
    Act(d, n);
    last_decision_ = d;
    ++ticks_;
    return d;
  }

  const AdaptDecision& last_decision() const { return last_decision_; }
  uint64_t ticks() const { return ticks_; }
  uint64_t actions_taken() const { return actions_taken_; }

 private:
  void Act(const AdaptDecision& d, size_t num_shards) {
    switch (d.action) {
      case AdaptDecision::Action::kGrow:
        ApplyRebalance(std::min(options_.max_shards, num_shards * 2));
        break;
      case AdaptDecision::Action::kShrink:
        ApplyRebalance(std::max(options_.min_shards, num_shards / 2));
        break;
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

  void ApplyRebalance(size_t new_num_shards) {
    // Rebalance is single-flight inside the index; a false return means
    // another rebalance is running and this window's evidence is stale
    // anyway. The table-version change resets our window on the next
    // tick.
    if (index_->Rebalance(new_num_shards)) {
      bank_.ResetAll();
      ++actions_taken_;
    }
  }

  ShardedIndexT* index_;
  Options options_;
  AdaptController controller_;
  DriftDetectorBank bank_;
  typename ShardedIndexT::ShardStatsSnapshot prev_;
  bool prev_valid_ = false;
  AdaptDecision last_decision_;
  uint64_t ticks_ = 0;
  uint64_t actions_taken_ = 0;
  // Last member: destroyed first, so no tick runs into a half-destroyed
  // adaptor.
  AdaptationEngine::Registration registration_;
};

}  // namespace lidx

#endif  // LIDX_ADAPT_SERVING_ADAPTER_H_
