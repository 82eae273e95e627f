#ifndef LIDX_BENCH_BENCH_UTIL_H_
#define LIDX_BENCH_BENCH_UTIL_H_

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "datasets/generators.h"

namespace lidx::bench {

// ----- Shared dataset generation -----
//
// Every 1-D bench needs the same thing: sorted unique keys from a named
// distribution plus a value array. Centralised here so experiments agree on
// what "1M lognormal keys" means and new benches (E18) don't re-grow their
// own copy of the loop.

enum class ValueScheme {
  kRank,   // values[i] = i (rank values; the common lookup-bench choice).
  kHashed  // values[i] = keys[i] ^ 0x9E3779B9 (checkable from the key alone).
};

struct Dataset1D {
  std::vector<uint64_t> keys;    // Sorted, unique.
  std::vector<uint64_t> values;  // Parallel to keys.
};

inline Dataset1D MakeDataset1D(KeyDistribution dist, size_t n, uint64_t seed,
                               ValueScheme scheme = ValueScheme::kRank) {
  Dataset1D data;
  data.keys = GenerateKeys(dist, n, seed);
  data.values.resize(data.keys.size());
  for (size_t i = 0; i < data.keys.size(); ++i) {
    data.values[i] = scheme == ValueScheme::kRank
                         ? i
                         : (data.keys[i] ^ 0x9E3779B9u);
  }
  return data;
}

// Key/value pairs for indexes that bulk-load from std::pair vectors.
inline std::vector<std::pair<uint64_t, uint64_t>> ToPairs(
    const Dataset1D& data) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs(data.keys.size());
  for (size_t i = 0; i < data.keys.size(); ++i) {
    pairs[i] = {data.keys[i], data.values[i]};
  }
  return pairs;
}

// p in [0, 100] over a copy-free nth_element pass; `samples` is reordered.
inline double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(samples->size() - 1) + 0.5);
  std::nth_element(samples->begin(), samples->begin() + rank, samples->end());
  return (*samples)[rank];
}

// Milliseconds consumed by `fn` (single shot; used for build times).
inline double MeasureMs(const std::function<void()>& fn) {
  Timer timer;
  fn();
  return timer.ElapsedSeconds() * 1e3;
}

// Timed passes per row in the query benches that take a median.
inline constexpr size_t kTimedPasses = 5;

// Median over kTimedPasses passes of the per-query time of
// `query(queries[i])` over the whole query set, in microseconds: one
// descheduled pass cannot move the row the way a single timed pass can.
template <typename Query, typename QueryFn>
double MedianUsPerQuery(const std::vector<Query>& queries, QueryFn&& query) {
  std::vector<double> us;
  for (size_t pass = 0; pass < kTimedPasses; ++pass) {
    uint64_t sink = 0;
    Timer timer;
    for (const Query& q : queries) sink += query(q).size();
    us.push_back(timer.ElapsedSeconds() * 1e6 /
                 static_cast<double>(queries.size()));
    DoNotOptimize(sink);
  }
  return Percentile(&us, 50.0);
}

// Average nanoseconds per iteration of `fn(i)` over `n` iterations.
// One warmup pass over min(n, warmup) iterations.
template <typename Fn>
double MeasureNsPerOp(size_t n, Fn&& fn, size_t warmup = 1000) {
  const size_t w = warmup < n ? warmup : n;
  for (size_t i = 0; i < w; ++i) fn(i);
  Timer timer;
  for (size_t i = 0; i < n; ++i) fn(i);
  return static_cast<double>(timer.ElapsedNanos()) / static_cast<double>(n);
}

// Multi-threaded throughput driver for batched lookups. Splits
// [0, total_ops) evenly across `num_threads` workers; each worker walks
// its slice in `batch_size` chunks calling fn(begin, len), where fn is
// expected to process lookups [begin, begin + len) (e.g. by calling an
// index's LookupBatch on a shared query array and writing to a disjoint
// slice of a shared output array). fn must be safe to call concurrently —
// read-only index access with disjoint outputs qualifies. Returns
// aggregate millions of operations per second. One untimed warmup batch
// per worker slice touches the code path before the clock starts.
template <typename Fn>
double MeasureThroughputMops(size_t num_threads, size_t batch_size,
                             size_t total_ops, Fn&& fn) {
  if (num_threads == 0 || batch_size == 0 || total_ops == 0) return 0.0;
  auto slice = [&](size_t t) {
    const size_t begin = t * total_ops / num_threads;
    const size_t end = (t + 1) * total_ops / num_threads;
    return std::pair<size_t, size_t>(begin, end);
  };
  for (size_t t = 0; t < num_threads; ++t) {
    const auto [begin, end] = slice(t);
    if (begin < end) fn(begin, std::min(batch_size, end - begin));
  }
  Timer timer;
  if (num_threads == 1) {
    // Avoid thread spawn/join noise in the single-thread rows.
    const auto [begin, end] = slice(0);
    for (size_t i = begin; i < end; i += batch_size) {
      fn(i, std::min(batch_size, end - i));
    }
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      workers.emplace_back([&, t] {
        const auto [begin, end] = slice(t);
        for (size_t i = begin; i < end; i += batch_size) {
          fn(i, std::min(batch_size, end - i));
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(total_ops) / seconds / 1e6;
}

// On-disk footprint of a page file (st_size), for bytes-per-key rows in
// the disk benches. Returns 0 if the file does not exist.
inline size_t FileSizeBytes(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<size_t>(st.st_size);
}

// The space metric the compression benches gate on: on-disk bytes per
// indexed key.
inline double BytesPerKey(size_t file_bytes, size_t num_keys) {
  if (num_keys == 0) return 0.0;
  return static_cast<double>(file_bytes) / static_cast<double>(num_keys);
}

// Optional positional count argument `argv[index]`; `fallback` when absent.
inline size_t ArgCount(int argc, char** argv, int index, size_t fallback) {
  return argc > index
             ? static_cast<size_t>(std::strtoull(argv[index], nullptr, 10))
             : fallback;
}

// ----- Answer checks -----
//
// The multi-D benches check every answer of every index against a reference
// before they report, and exit non-zero on a wrong one, so a fast row can
// never come from a wrong answer.

// Answers of `query` over `queries` whose id set differs from the sorted
// `truth` for that query (ids may come back in any order).
template <typename Query, typename QueryFn>
size_t CountMismatches(const std::vector<Query>& queries,
                       const std::vector<std::vector<uint32_t>>& truth,
                       QueryFn query) {
  size_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<uint32_t> got = query(queries[i]);
    std::sort(got.begin(), got.end());
    mismatches += got != truth[i];
  }
  return mismatches;
}

// The sorted ids of the points equal to each query: the reference every
// FindExact answer is checked against.
inline std::vector<std::vector<uint32_t>> ExactTruth(
    const std::vector<Point2D>& points, const std::vector<Point2D>& queries) {
  std::vector<uint32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::tie(points[a].x, points[a].y, a) <
           std::tie(points[b].x, points[b].y, b);
  });
  const auto before = [&](uint32_t id, const Point2D& q) {
    return std::tie(points[id].x, points[id].y) < std::tie(q.x, q.y);
  };
  std::vector<std::vector<uint32_t>> truth(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (auto it = std::lower_bound(order.begin(), order.end(), queries[i],
                                    before);
         it != order.end() && points[*it] == queries[i]; ++it) {
      truth[i].push_back(*it);
    }
  }
  return truth;
}

// Prints the mismatch total; exits 1 if any answer was wrong.
inline void ExitOnMismatches(const std::string& experiment,
                             size_t mismatches) {
  std::printf("%s: %zu mismatched answers\n", experiment.c_str(),
              mismatches);
  if (mismatches != 0) std::exit(1);
}

// Standard header every bench binary prints, so outputs are self-describing
// when concatenated into bench_output.txt.
inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("\n==============================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Claim under test: %s\n", claim.c_str());
  std::printf("==============================================\n");
}

// ----- Machine-readable results -----
//
// ReportJson writes BENCH_<name>.json next to the binary so CI can upload
// benchmark numbers as artifacts and diff them across commits without
// scraping the human-oriented tables.

struct JsonField {
  std::string key;
  std::string rendered;  // Already-valid JSON value text.

  static JsonField Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.6g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return {key, buf};
  }
  static JsonField Num(const std::string& key, size_t v) {
    return {key, std::to_string(v)};
  }
  static JsonField Str(const std::string& key, const std::string& v) {
    std::string out = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return {key, out};
  }
};

using JsonRow = std::vector<JsonField>;

inline void ReportJson(const std::string& name,
                       const std::vector<JsonRow>& rows,
                       const std::vector<JsonField>& meta = {}) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ReportJson: cannot open %s\n", path.c_str());
    return;
  }
  const auto write_object = [&](const std::vector<JsonField>& fields,
                                const char* indent) {
    std::fprintf(f, "{");
    for (size_t i = 0; i < fields.size(); ++i) {
      std::fprintf(f, "%s%s\"%s\": %s", i == 0 ? "" : ",", indent,
                   fields[i].key.c_str(), fields[i].rendered.c_str());
    }
    std::fprintf(f, "%s}", fields.empty() ? "" : " ");
  };
  std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"meta\": ", name.c_str());
  write_object(meta, " ");
  std::fprintf(f, ",\n  \"rows\": [\n");
  for (size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(f, "    ");
    write_object(rows[r], " ");
    std::fprintf(f, "%s\n", r + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

}  // namespace lidx::bench

#endif  // LIDX_BENCH_BENCH_UTIL_H_
