#ifndef LIDX_PERFBENCH_HARNESS_H_
#define LIDX_PERFBENCH_HARNESS_H_

// Shared machinery of the end-to-end benchmark: arguments, the generated
// dataset, the closed-loop timeline, latency histograms, in-memory spans
// and the result report. Workloads live in serve.cc and tiered.cc.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "oracle.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Where run-time files go: page files, span dumps. Relative to the working
// directory, which is the repository root; the whole tree is ignored by git.
inline constexpr const char* kRunDir = ".bench_build/perfbench-run";

// Loaded keys and the pool fresh inserts draw from. Both come from one
// lognormal key set, every third key peeled off into the pool, so inserts
// land between loaded keys (the hard case for learned models).
struct Dataset {
  std::vector<uint64_t> loaded;
  std::vector<uint64_t> values;  // ValueOf(loaded[i]).
  std::vector<uint64_t> pool;
};
Dataset MakeDataset(size_t n_loaded, uint64_t seed);

uint64_t Mix64(uint64_t x);

// One client's fresh insert keys: its own slice of the pool, shuffled by
// the seed and handed out without replacement, so each insert adds a key
// the index does not hold yet. The slices of different clients are
// disjoint. Next() is nullopt once the slice is used up. Only the owning
// client calls Next(); any thread may read drawn().
class FreshKeys {
 public:
  FreshKeys(const std::vector<uint64_t>& pool, size_t client, size_t clients,
            uint64_t seed);
  std::optional<uint64_t> Next() {
    const size_t i = next_.load(std::memory_order_relaxed);
    if (i == keys_.size()) return std::nullopt;
    next_.store(i + 1, std::memory_order_relaxed);
    return keys_[i];
  }
  size_t drawn() const { return next_.load(std::memory_order_relaxed); }

 private:
  std::vector<uint64_t> keys_;
  std::atomic<size_t> next_{0};
};

// Picks ranks in [0, n): uniform (zipf_theta 0) or Zipfian. A scrambled
// Zipfian (YCSB's) hashes the Zipf rank, so hot keys are spread over the
// key space and the shards; unscrambled, rank r is the r-th smallest key.
class RankPicker {
 public:
  RankPicker(size_t n, double zipf_theta, bool scrambled, uint64_t seed);
  size_t Next();

 private:
  size_t n_;
  bool scrambled_;
  lidx::Rng rng_;
  std::unique_ptr<lidx::ZipfGenerator> zipf_;
};

// Log-linear latency histogram: exact below 128 ns, then 64 sub-buckets
// per power of two (under 1.6% wide). Quantiles interpolate by rank inside
// the bucket.
class Histogram {
 public:
  Histogram();
  void Add(uint64_t ns) {
    ++buckets_[Bucket(ns)];
    ++count_;
    if (ns > max_ns_) max_ns_ = ns;
  }
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  uint64_t max_ns() const { return max_ns_; }
  double Quantile(double q) const;  // In ns; 0 when empty.

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kExact = 128;
  static size_t Bucket(uint64_t ns) {
    if (ns < kExact) return static_cast<size_t>(ns);
    const int e = 63 - __builtin_clzll(ns);
    const uint64_t sub = (ns >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return kExact + static_cast<size_t>(e - 7) * (1u << kSubBits) + sub;
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t max_ns_ = 0;
};

enum OpKind { kRead = 0, kWrite = 1, kScan = 2, kNumKinds = 3 };
const char* KindName(int kind);

// One client's latencies and op count within one window.
struct WindowLog {
  Histogram hist[kNumKinds];
  uint64_t ops = 0;
};

// Logs one op's latency into window w (nothing during warm-up).
inline void LogOp(std::vector<WindowLog>* windows, int w, int kind,
                  uint64_t ns) {
  if (w < 0) return;
  (*windows)[w].hist[kind].Add(ns);
  ++(*windows)[w].ops;
}

// Closed-loop schedule: a warm-up whose ops are checked but not timed, then
// `windows` equal windows. End-to-end figures are medians over windows, so
// one window disturbed by a merge or a noisy neighbour does not move them.
// In a traced run the odd windows record spans and the even ones do not;
// their throughput ratio is the tracing overhead.
struct Timeline {
  static constexpr int kWindows = 20;
  Clock::time_point start;
  double warmup_s = 0.5;
  double window_s = 1.0;
  bool trace = false;

  Timeline(double seconds, bool traced);
  // -1 during warm-up; kWindows once the run is over.
  int WindowOf(Clock::time_point t) const;
  bool Traced(int window) const { return trace && window >= 0 && window % 2; }
  Clock::time_point TimedStart() const;
  Clock::time_point End() const;
};

inline uint64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// Mean cost of one steady_clock read, which every measured span contains
// once; reported as its own part of the read breakdowns.
double ClockReadNs();

double Median(std::vector<double> v);
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

// Spans kept in memory and written out when the run ends. A span covers
// one public call the benchmark makes (or a phase such as set-up); spans of
// one op share its op id, and replayed child calls point at the traced op
// as parent. Counter deltas read at the span's boundaries ride along.
struct SpanCounter {
  const char* name;
  int64_t delta;
};

class Tracer {
 public:
  explicit Tracer(uint64_t thread)
      : next_id_((thread + 1) << 40) {}

  // Records a span; returns its id (0 is "no parent").
  uint64_t Record(const char* name, uint64_t op, uint64_t parent,
                  Clock::time_point start, Clock::time_point end,
                  std::initializer_list<SpanCounter> counters = {});
  void Write(FILE* out, Clock::time_point origin) const;

 private:
  // Bounded so a long traced run stays small; ids keep counting past it.
  static constexpr size_t kMaxSpans = 20'000;
  struct Span {
    const char* name;
    uint64_t op;
    uint64_t id;
    uint64_t parent;
    Clock::time_point start;
    Clock::time_point end;
    uint32_t counters_begin;
    uint32_t counters_end;
  };
  uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<SpanCounter> counters_;
};

// Writes every tracer's spans as JSON lines under kRunDir; returns the
// path, or "" when the file cannot be opened.
std::string WriteTrace(const Args& args, Clock::time_point origin,
                       const std::vector<const Tracer*>& tracers);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What a workload hands back to main: both metric sets (main prints the
// one the run's mode asks for), the oracle tally and human-readable lines.
struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  Tally tally;
  std::vector<std::string> notes;
};

// Per-window summary of a set of clients: throughput, and quantiles for
// the chosen op kinds (windows without such ops are left out of those).
struct WindowStats {
  std::vector<double> ops_per_s;
  std::vector<double> p50_ns;
  std::vector<double> p99_ns;
};
WindowStats SummarizeWindows(const std::vector<std::vector<WindowLog>>& logs,
                             const Timeline& tl, std::vector<int> kinds,
                             bool traced_windows);
// Merge of one op kind across clients and the chosen windows.
Histogram MergeKind(const std::vector<std::vector<WindowLog>>& logs,
                    const Timeline& tl, int kind, bool traced_windows);
// One "read n=123 p50=0.25us p99=0.9us p999=1.2us max=30us" line per op
// kind that ran, from the untraced windows.
void AddLatencyNotes(const std::vector<std::vector<WindowLog>>& logs,
                     const Timeline& tl, std::vector<std::string>* notes);
// "<label>: v1 v2 ..." for the notes.
std::string DescribeSeries(const char* label, const std::vector<double>& v);
// The per-layer metrics every traced run has: trace.overhead_frac,
// trace.clock_ns and op.<kind>_{p50,p99}_us from the untraced windows.
// Returns the cost of one clock read.
double AddTraceMetrics(const std::vector<std::vector<WindowLog>>& logs,
                       const Timeline& tl, std::vector<Metric>* m);

Outcome RunServe(const Args& args);
Outcome RunTiered(const Args& args);

}  // namespace perfbench

#endif  // LIDX_PERFBENCH_HARNESS_H_
