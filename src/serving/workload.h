#ifndef LIDX_SERVING_WORKLOAD_H_
#define LIDX_SERVING_WORKLOAD_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "datasets/workload.h"

namespace lidx::serving {

// Multi-threaded YCSB-style workload driver (methodology of *Updatable
// Learned Indexes Meet Disk-Resident DBMS* and *Are Updatable Learned
// Indexes Ready?*, PAPERS.md): the standard A-F mixes, Zipfian or uniform
// key choice, per-operation latency tails. Shared by bench_e13 and
// bench_e21 so their numbers are directly comparable.
//
// YCSB core mixes:
//   A  update-heavy   50% read / 50% update
//   B  read-mostly    95% read /  5% update
//   C  read-only     100% read
//   D  read-latest    95% read /  5% insert
//   E  short-scans    95% scan /  5% insert
//   F  read-modify-w  50% read / 50% read-modify-write
enum class YcsbMix : uint8_t { kA, kB, kC, kD, kE, kF };

inline const char* YcsbMixName(YcsbMix mix) {
  switch (mix) {
    case YcsbMix::kA: return "A";
    case YcsbMix::kB: return "B";
    case YcsbMix::kC: return "C";
    case YcsbMix::kD: return "D";
    case YcsbMix::kE: return "E";
    case YcsbMix::kF: return "F";
  }
  return "?";
}

// Maps a YCSB mix onto the repo's MixedWorkloadSpec. Updates are modelled
// as upserts of existing keys; mix F additionally performs the read half
// of each read-modify-write in the driver (see RunYcsb).
inline MixedWorkloadSpec YcsbSpec(YcsbMix mix, double zipf_theta,
                                  uint32_t max_scan_length) {
  MixedWorkloadSpec spec;
  spec.read_fraction = 0.0;
  spec.insert_fraction = 0.0;
  spec.update_fraction = 0.0;
  spec.scan_fraction = 0.0;
  spec.erase_fraction = 0.0;
  spec.zipf_theta = zipf_theta;
  spec.max_scan_length = max_scan_length;
  switch (mix) {
    case YcsbMix::kA:
      spec.read_fraction = 0.5;
      spec.update_fraction = 0.5;
      break;
    case YcsbMix::kB:
      spec.read_fraction = 0.95;
      spec.update_fraction = 0.05;
      break;
    case YcsbMix::kC:
      spec.read_fraction = 1.0;
      break;
    case YcsbMix::kD:
      spec.read_fraction = 0.95;
      spec.insert_fraction = 0.05;
      break;
    case YcsbMix::kE:
      spec.scan_fraction = 0.95;
      spec.insert_fraction = 0.05;
      break;
    case YcsbMix::kF:
      spec.read_fraction = 0.5;
      spec.update_fraction = 0.5;  // Driver turns these into RMW.
      break;
  }
  return spec;
}

struct WorkloadOptions {
  YcsbMix mix = YcsbMix::kC;
  // 0 = uniform key choice over loaded keys; YCSB's default skew is 0.99.
  double zipf_theta = 0.0;
  uint32_t max_scan_length = 100;
  size_t n_threads = 1;
  size_t ops_per_thread = 100000;
  uint64_t seed = 42;
  // Per-operation latency capture costs two clock reads per op (~40ns);
  // disable for pure-throughput runs.
  bool record_latencies = true;
};

struct LatencyStats {
  size_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;
};

struct WorkloadResult {
  double seconds = 0.0;
  size_t total_ops = 0;
  double mops = 0.0;  // Aggregate throughput across all threads.
  LatencyStats read;
  LatencyStats insert;  // kInsert and kUpdate both land here (upserts).
  LatencyStats scan;
  LatencyStats erase;
  uint64_t found = 0;  // Successful point reads (sanity signal).
};

namespace workload_detail {

inline LatencyStats Summarize(std::vector<double>* ns) {
  LatencyStats stats;
  stats.count = ns->size();
  if (ns->empty()) return stats;
  double sum = 0.0;
  double max = 0.0;
  for (const double v : *ns) {
    sum += v;
    max = std::max(max, v);
  }
  stats.mean_ns = sum / static_cast<double>(ns->size());
  stats.max_ns = max;
  const auto pct = [&](double p) {
    const size_t rank = static_cast<size_t>(
        p / 100.0 * static_cast<double>(ns->size() - 1) + 0.5);
    std::nth_element(ns->begin(), ns->begin() + rank, ns->end());
    return (*ns)[rank];
  };
  stats.p50_ns = pct(50.0);
  stats.p99_ns = pct(99.0);
  stats.p999_ns = pct(99.9);
  return stats;
}

template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

}  // namespace workload_detail

// Runs one (mix, thread-count) configuration against `index`, which must
// provide Find/Insert/Erase/RangeScan (ShardedIndex and GlobalLockIndex<...>
// qualify). Each thread executes a pre-generated operation stream —
// generation is outside the timed region — and inserts consume a disjoint
// slice of `insert_pool` per thread, so no two threads ever write the same
// fresh key. `existing` are the loaded keys (used for read/update/erase/scan
// key choice and to size scan ranges).
template <typename Index>
WorkloadResult RunYcsb(Index* index, const std::vector<uint64_t>& existing,
                       const std::vector<uint64_t>& insert_pool,
                       const WorkloadOptions& options) {
  LIDX_CHECK(options.n_threads >= 1);
  const MixedWorkloadSpec spec =
      YcsbSpec(options.mix, options.zipf_theta, options.max_scan_length);
  const bool rmw = options.mix == YcsbMix::kF;

  // Pre-generate per-thread operation streams with disjoint insert pools.
  const size_t n_threads = options.n_threads;
  std::vector<std::vector<Operation>> streams(n_threads);
  {
    const size_t pool_chunk = insert_pool.size() / std::max<size_t>(1, n_threads);
    for (size_t t = 0; t < n_threads; ++t) {
      std::vector<uint64_t> pool_slice(
          insert_pool.begin() + t * pool_chunk,
          insert_pool.begin() + (t + 1) * pool_chunk);
      streams[t] = GenerateMixedWorkload(spec, options.ops_per_thread, existing,
                                         pool_slice,
                                         options.seed + 7919 * (t + 1));
    }
  }

  // Scan length is specified in records; convert to a key range using the
  // average key gap of the loaded data.
  uint64_t avg_gap = 1;
  if (existing.size() >= 2) {
    avg_gap = std::max<uint64_t>(
        1, (existing.back() - existing.front()) / (existing.size() - 1));
  }

  struct ThreadLog {
    std::vector<double> read_ns;
    std::vector<double> insert_ns;
    std::vector<double> scan_ns;
    std::vector<double> erase_ns;
    uint64_t found = 0;
  };
  std::vector<ThreadLog> logs(n_threads);

  std::atomic<bool> start{false};
  auto worker = [&](size_t t) {
    const std::vector<Operation>& ops = streams[t];
    ThreadLog& log = logs[t];
    if (options.record_latencies) {
      log.read_ns.reserve(ops.size());
      log.insert_ns.reserve(ops.size() / 2 + 1);
    }
    std::vector<std::pair<uint64_t, uint64_t>> scan_buf;
    while (!start.load(std::memory_order_acquire)) {
      // Spin: all threads enter the timed region together.
    }
    for (const Operation& op : ops) {
      Timer op_timer;
      switch (op.type) {
        case OpType::kRead: {
          const std::optional<uint64_t> v = index->Find(op.key);
          workload_detail::DoNotOptimize(v);
          log.found += v.has_value() ? 1 : 0;
          if (options.record_latencies) {
            log.read_ns.push_back(static_cast<double>(op_timer.ElapsedNanos()));
          }
          break;
        }
        case OpType::kUpdate: {
          if (rmw) {
            // Read-modify-write: the new value depends on the read.
            const std::optional<uint64_t> v = index->Find(op.key);
            index->Insert(op.key, v.value_or(0) + 1);
          } else {
            index->Insert(op.key, op.key ^ 0x9E3779B9u);
          }
          if (options.record_latencies) {
            log.insert_ns.push_back(
                static_cast<double>(op_timer.ElapsedNanos()));
          }
          break;
        }
        case OpType::kInsert: {
          index->Insert(op.key, op.key ^ 0x9E3779B9u);
          if (options.record_latencies) {
            log.insert_ns.push_back(
                static_cast<double>(op_timer.ElapsedNanos()));
          }
          break;
        }
        case OpType::kScan: {
          scan_buf.clear();
          const uint64_t span =
              avg_gap * std::max<uint32_t>(1, op.scan_length);
          const uint64_t hi = op.key > UINT64_MAX - span ? UINT64_MAX
                                                         : op.key + span;
          index->RangeScan(op.key, hi, &scan_buf);
          workload_detail::DoNotOptimize(scan_buf.size());
          if (options.record_latencies) {
            log.scan_ns.push_back(static_cast<double>(op_timer.ElapsedNanos()));
          }
          break;
        }
        case OpType::kErase: {
          const bool erased = index->Erase(op.key);
          workload_detail::DoNotOptimize(erased);
          if (options.record_latencies) {
            log.erase_ns.push_back(
                static_cast<double>(op_timer.ElapsedNanos()));
          }
          break;
        }
      }
    }
  };

  Timer timer;
  WorkloadResult result;
  if (n_threads == 1) {
    start.store(true, std::memory_order_release);
    timer = Timer();
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (size_t t = 0; t < n_threads; ++t) threads.emplace_back(worker, t);
    timer = Timer();
    start.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
  }
  result.seconds = timer.ElapsedSeconds();
  result.total_ops = options.ops_per_thread * n_threads;
  result.mops =
      static_cast<double>(result.total_ops) / result.seconds / 1e6;

  std::vector<double> read_ns, insert_ns, scan_ns, erase_ns;
  for (ThreadLog& log : logs) {
    result.found += log.found;
    read_ns.insert(read_ns.end(), log.read_ns.begin(), log.read_ns.end());
    insert_ns.insert(insert_ns.end(), log.insert_ns.begin(),
                     log.insert_ns.end());
    scan_ns.insert(scan_ns.end(), log.scan_ns.begin(), log.scan_ns.end());
    erase_ns.insert(erase_ns.end(), log.erase_ns.begin(), log.erase_ns.end());
  }
  result.read = workload_detail::Summarize(&read_ns);
  result.insert = workload_detail::Summarize(&insert_ns);
  result.scan = workload_detail::Summarize(&scan_ns);
  result.erase = workload_detail::Summarize(&erase_ns);
  return result;
}

// Baseline wrapper: any single-threaded index behind one global mutex.
// The null hypothesis every sharded/concurrent design is measured against.
template <typename Index, typename Key = uint64_t, typename Value = uint64_t>
class GlobalLockIndex {
 public:
  template <typename... Args>
  explicit GlobalLockIndex(Args&&... args)
      : index_(std::forward<Args>(args)...) {}

  // Unlocked access for single-threaded setup (bulk load before the driver
  // starts its worker threads). Allowlisted in docs/STATIC_ANALYSIS.md.
  Index& underlying() LIDX_NO_THREAD_SAFETY_ANALYSIS { return index_; }

  std::optional<Value> Find(const Key& key) const {
    MutexLock lock(mu_);
    return index_.Find(key);
  }
  void Insert(const Key& key, const Value& value) {
    MutexLock lock(mu_);
    index_.Insert(key, value);
  }
  bool Erase(const Key& key) {
    MutexLock lock(mu_);
    return index_.Erase(key);
  }
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    MutexLock lock(mu_);
    index_.RangeScan(lo, hi, out);
  }

 private:
  mutable Mutex mu_;
  Index index_ LIDX_GUARDED_BY(mu_);
};

}  // namespace lidx::serving

#endif  // LIDX_SERVING_WORKLOAD_H_
