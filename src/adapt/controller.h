#ifndef LIDX_ADAPT_CONTROLLER_H_
#define LIDX_ADAPT_CONTROLLER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "models/drift.h"

namespace lidx {

// Decide layer of the adaptation subsystem. The controller is a pure,
// deterministic policy: it consumes one *window* of per-segment signals
// (produced by diffing ErrorMonitor snapshots) and emits a single action.
// It holds no references to any index — clients translate the action into
// their own mechanism (retrain, grow model budget, shard rebalance), which
// keeps the policy unit-testable without standing up an index.
//
// Signal classification (see docs/ADAPTATION.md for the full table):
//   error inflation  tail error far beyond the target      -> kGrow
//   drift            Page-Hinkley fired on a segment       -> kRetrain
//   skew             one segment takes most of the traffic -> kRebalance
//   sustained calm   errors well under target for a while  -> kShrink

// One window of observations for one segment.
struct SegmentSignal {
  uint64_t ops = 0;          // lookups observed this window
  double mean_error = 0.0;   // mean observed error
  double tail_error = 0.0;   // high-quantile observed error
  bool drifted = false;      // per-segment drift detector latched
};

struct AdaptDecision {
  enum class Action {
    kNone,       // healthy (or not enough evidence yet)
    kRetrain,    // re-fit at the current capacity
    kGrow,       // capacity is too small for the observed errors
    kShrink,     // capacity is larger than the workload needs
    kRebalance,  // traffic is skewed across segments; re-cut boundaries
  };

  Action action = Action::kNone;
  size_t segment = 0;        // the segment that triggered the action
  double evidence = 0.0;     // the measurement behind the decision
  const char* reason = "idle";
};

inline const char* AdaptActionName(AdaptDecision::Action a) {
  switch (a) {
    case AdaptDecision::Action::kNone: return "none";
    case AdaptDecision::Action::kRetrain: return "retrain";
    case AdaptDecision::Action::kGrow: return "grow";
    case AdaptDecision::Action::kShrink: return "shrink";
    case AdaptDecision::Action::kRebalance: return "rebalance";
  }
  return "unknown";
}

class AdaptController {
 public:
  struct Options {
    // The error budget per lookup the client is willing to pay (positions
    // for a learned model, probe depth for a layered store).
    double target_error = 32.0;
    // Tail error beyond inflation_factor * target_error means the current
    // capacity cannot represent the distribution: grow instead of retrain.
    double inflation_factor = 4.0;
    // Mean error below shrink_headroom * target_error counts as a calm
    // window; shrink_patience consecutive calm windows trigger kShrink.
    double shrink_headroom = 0.125;
    size_t shrink_patience = 4;
    // Hottest segment taking more than skew_ratio times its fair share of
    // a window's traffic counts as skew.
    double skew_ratio = 4.0;
    // Windows with fewer total ops than this carry no evidence.
    uint64_t min_window_ops = 256;
    bool allow_rebalance = true;
    bool allow_shrink = true;
  };

  // Two constructors instead of a default argument: `= Options()` in a
  // non-template class would need the nested NSDMIs before the enclosing
  // class is complete.
  AdaptController() : AdaptController(Options()) {}
  explicit AdaptController(const Options& options) : options_(options) {}

  // Classifies one window. Not thread-safe: the decide layer runs on one
  // tick at a time (the client's one-ticker contract).
  AdaptDecision Decide(const std::vector<SegmentSignal>& segments) {
    AdaptDecision d;
    uint64_t total_ops = 0;
    uint64_t max_ops = 0;
    size_t hottest = 0;
    size_t worst = 0;
    double worst_tail = -1.0;
    bool any_drift = false;
    size_t drift_seg = 0;
    double weighted_mean = 0.0;
    for (size_t i = 0; i < segments.size(); ++i) {
      const SegmentSignal& s = segments[i];
      total_ops += s.ops;
      weighted_mean += s.mean_error * static_cast<double>(s.ops);
      if (s.ops > max_ops) {
        max_ops = s.ops;
        hottest = i;
      }
      if (s.ops > 0 && s.tail_error > worst_tail) {
        worst_tail = s.tail_error;
        worst = i;
      }
      if (s.drifted && !any_drift) {
        any_drift = true;
        drift_seg = i;
      }
    }
    if (total_ops < options_.min_window_ops) {
      calm_windows_ = 0;
      return d;  // kNone: no evidence this window
    }
    weighted_mean /= static_cast<double>(total_ops);

    // Priority order: capacity problems first (retraining at the same
    // capacity cannot fix them), then drift, then placement, then the
    // opportunistic shrink.
    if (worst_tail > options_.inflation_factor * options_.target_error) {
      calm_windows_ = 0;
      d.action = AdaptDecision::Action::kGrow;
      d.segment = worst;
      d.evidence = worst_tail;
      d.reason = "tail error beyond capacity";
      return d;
    }
    if (any_drift) {
      calm_windows_ = 0;
      d.action = AdaptDecision::Action::kRetrain;
      d.segment = drift_seg;
      d.evidence = segments[drift_seg].mean_error;
      d.reason = "drift detector latched";
      return d;
    }
    if (options_.allow_rebalance && segments.size() > 1) {
      const double fair =
          static_cast<double>(total_ops) /
          static_cast<double>(segments.size());
      const double ratio = static_cast<double>(max_ops) / fair;
      if (ratio > options_.skew_ratio) {
        calm_windows_ = 0;
        d.action = AdaptDecision::Action::kRebalance;
        d.segment = hottest;
        d.evidence = ratio;
        d.reason = "traffic skew";
        return d;
      }
    }
    if (options_.allow_shrink &&
        weighted_mean < options_.shrink_headroom * options_.target_error) {
      if (++calm_windows_ >= options_.shrink_patience) {
        calm_windows_ = 0;
        d.action = AdaptDecision::Action::kShrink;
        d.segment = worst;
        d.evidence = weighted_mean;
        d.reason = "sustained calm";
        return d;
      }
    } else {
      calm_windows_ = 0;
    }
    d.reason = "healthy";
    return d;
  }

  const Options& options() const { return options_; }
  size_t calm_windows() const { return calm_windows_; }

 private:
  Options options_;
  size_t calm_windows_ = 0;
};

// A bank of per-segment Page-Hinkley detectors, fed once per window with
// that window's mean error for the segment. Per-segment instances localise
// drift: a shift confined to one key region fires only that region's
// detector, so the controller knows *where* to act. Not thread-safe (same
// single-tick contract as AdaptController).
class DriftDetectorBank {
 public:
  DriftDetectorBank(size_t segments,
                    const ModelDriftDetector::Options& options)
      : detectors_(segments == 0 ? 1 : segments,
                   ModelDriftDetector(options)) {}

  size_t size() const { return detectors_.size(); }

  // Feeds one window-mean observation; returns whether the segment's
  // detector has latched drift.
  bool Observe(size_t segment, double mean_error) {
    LIDX_DCHECK(segment < detectors_.size());
    detectors_[segment].Observe(mean_error);
    return detectors_[segment].drifted();
  }

  bool drifted(size_t segment) const {
    LIDX_DCHECK(segment < detectors_.size());
    return detectors_[segment].drifted();
  }

  bool AnyDrifted() const {
    for (const auto& det : detectors_) {
      if (det.drifted()) return true;
    }
    return false;
  }

  void Reset(size_t segment) {
    LIDX_DCHECK(segment < detectors_.size());
    detectors_[segment].Reset();
  }

  const ModelDriftDetector& detector(size_t segment) const {
    LIDX_DCHECK(segment < detectors_.size());
    return detectors_[segment];
  }

 private:
  std::vector<ModelDriftDetector> detectors_;
};

}  // namespace lidx

#endif  // LIDX_ADAPT_CONTROLLER_H_
