#include "harness.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "datasets/generators.h"

namespace perfbench {

Dataset MakeDataset(size_t n_loaded, uint64_t seed) {
  const size_t n_pool = n_loaded / 2;
  const std::vector<uint64_t> all = lidx::GenerateKeys(
      lidx::KeyDistribution::kLognormal, n_loaded + n_pool, seed);
  Dataset data;
  data.loaded.reserve(n_loaded);
  data.values.reserve(n_loaded);
  data.pool.reserve(n_pool);
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 3 == 2 && data.pool.size() < n_pool) {
      data.pool.push_back(all[i]);
    } else {
      data.loaded.push_back(all[i]);
      data.values.push_back(ValueOf(all[i]));
    }
  }
  return data;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

FreshKeys::FreshKeys(const std::vector<uint64_t>& pool, size_t client,
                     size_t clients, uint64_t seed) {
  for (size_t i = client; i < pool.size(); i += clients) {
    keys_.push_back(pool[i]);
  }
  lidx::Rng rng(seed);
  for (size_t i = keys_.size(); i > 1; --i) {
    std::swap(keys_[i - 1], keys_[rng.NextBounded(i)]);
  }
}

RankPicker::RankPicker(size_t n, double zipf_theta, bool scrambled,
                       uint64_t seed)
    : n_(n), scrambled_(scrambled), rng_(seed) {
  if (zipf_theta > 0.0) {
    zipf_ = std::make_unique<lidx::ZipfGenerator>(n, zipf_theta, Mix64(seed));
  }
}

size_t RankPicker::Next() {
  if (zipf_ == nullptr) return static_cast<size_t>(rng_.NextBounded(n_));
  const uint64_t rank = std::min<uint64_t>(zipf_->Next(), n_ - 1);
  return static_cast<size_t>(scrambled_ ? Mix64(rank) % n_ : rank);
}

Histogram::Histogram()
    : buckets_(kExact + (64 - 7) * (size_t{1} << kSubBits), 0) {}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const double n = static_cast<double>(buckets_[b]);
    if (n == 0.0 || before + n <= rank) {
      before += n;
      continue;
    }
    double lower;
    double width;
    if (b < kExact) {
      lower = static_cast<double>(b);
      width = 1.0;
    } else {
      const size_t e = 7 + (b - kExact) / (size_t{1} << kSubBits);
      const size_t sub = (b - kExact) % (size_t{1} << kSubBits);
      lower = std::ldexp(static_cast<double>((size_t{1} << kSubBits) + sub),
                         static_cast<int>(e) - kSubBits);
      width = std::ldexp(1.0, static_cast<int>(e) - kSubBits);
    }
    return lower + width * (rank - before + 0.5) / n;
  }
  return static_cast<double>(max_ns_);
}

const char* KindName(int kind) {
  switch (kind) {
    case kRead: return "read";
    case kWrite: return "write";
    case kScan: return "scan";
  }
  return "?";
}

Timeline::Timeline(double seconds, bool traced)
    : start(Clock::now()),
      window_s(seconds / kWindows),
      trace(traced) {}

int Timeline::WindowOf(Clock::time_point t) const {
  const double s = Seconds(start, t) - warmup_s;
  if (s < 0.0) return -1;
  return std::min(kWindows, static_cast<int>(s / window_s));
}

Clock::time_point Timeline::TimedStart() const {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(warmup_s));
}

Clock::time_point Timeline::End() const {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(warmup_s +
                                                   window_s * kWindows));
}

double ClockReadNs() {
  constexpr int kReads = 200'000;
  const Clock::time_point begin = Clock::now();
  Clock::time_point t = begin;
  for (int i = 0; i < kReads; ++i) t = Clock::now();
  return static_cast<double>(Nanos(begin, t)) / kReads;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

uint64_t Tracer::Record(const char* name, uint64_t op, uint64_t parent,
                        Clock::time_point start, Clock::time_point end,
                        std::initializer_list<SpanCounter> counters) {
  const uint64_t id = next_id_++;
  if (spans_.size() < kMaxSpans) {
    const uint32_t begin = static_cast<uint32_t>(counters_.size());
    for (const SpanCounter& c : counters) {
      if (c.delta != 0) counters_.push_back(c);
    }
    spans_.push_back(Span{name, op == 0 ? id : op, id, parent, start, end,
                          begin, static_cast<uint32_t>(counters_.size())});
  }
  return id;
}

void Tracer::Write(FILE* out, Clock::time_point origin) const {
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"op\":%llu,\"id\":%llu,\"parent\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"counters\":{",
                 s.name, static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>((s.start - origin).count()),
                 static_cast<long long>((s.end - origin).count()));
    for (uint32_t c = s.counters_begin; c < s.counters_end; ++c) {
      std::fprintf(out, "%s\"%s\":%lld", c == s.counters_begin ? "" : ",",
                   counters_[c].name,
                   static_cast<long long>(counters_[c].delta));
    }
    std::fprintf(out, "}}\n");
  }
}

std::string WriteTrace(const Args& args, Clock::time_point origin,
                       const std::vector<const Tracer*>& tracers) {
  std::error_code ec;
  std::filesystem::create_directories(kRunDir, ec);
  const std::string path = std::string(kRunDir) + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return "";
  for (const Tracer* t : tracers) t->Write(out, origin);
  std::fclose(out);
  return path;
}

namespace {

bool Counted(const Timeline& tl, int w, bool traced_windows) {
  return !tl.trace || tl.Traced(w) == traced_windows;
}

}  // namespace

WindowStats SummarizeWindows(const std::vector<std::vector<WindowLog>>& logs,
                             const Timeline& tl, std::vector<int> kinds,
                             bool traced_windows) {
  WindowStats out;
  for (int w = 0; w < Timeline::kWindows; ++w) {
    if (!Counted(tl, w, traced_windows)) continue;
    Histogram h;
    uint64_t ops = 0;
    for (const std::vector<WindowLog>& client : logs) {
      ops += client[w].ops;
      for (const int k : kinds) h.Merge(client[w].hist[k]);
    }
    out.ops_per_s.push_back(static_cast<double>(ops) / tl.window_s);
    // A window a merge-all stalled end to end has no latency to report.
    if (h.count() == 0) continue;
    out.p50_ns.push_back(h.Quantile(0.50));
    out.p99_ns.push_back(h.Quantile(0.99));
  }
  return out;
}

Histogram MergeKind(const std::vector<std::vector<WindowLog>>& logs,
                    const Timeline& tl, int kind, bool traced_windows) {
  Histogram h;
  for (int w = 0; w < Timeline::kWindows; ++w) {
    if (!Counted(tl, w, traced_windows)) continue;
    for (const std::vector<WindowLog>& client : logs) {
      h.Merge(client[w].hist[kind]);
    }
  }
  return h;
}

void AddLatencyNotes(const std::vector<std::vector<WindowLog>>& logs,
                     const Timeline& tl, std::vector<std::string>* notes) {
  for (int k = 0; k < kNumKinds; ++k) {
    const Histogram h = MergeKind(logs, tl, k, false);
    if (h.count() == 0) continue;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-6s n=%llu p50=%.3fus p99=%.3fus p999=%.3fus max=%.1fus",
                  KindName(k), static_cast<unsigned long long>(h.count()),
                  h.Quantile(0.50) / 1e3, h.Quantile(0.99) / 1e3,
                  h.Quantile(0.999) / 1e3,
                  static_cast<double>(h.max_ns()) / 1e3);
    notes->push_back(line);
  }
}

double AddTraceMetrics(const std::vector<std::vector<WindowLog>>& logs,
                       const Timeline& tl, std::vector<Metric>* m) {
  const std::vector<int> all = {kRead, kWrite, kScan};
  const double untraced = Median(SummarizeWindows(logs, tl, all, false).ops_per_s);
  const double traced = Median(SummarizeWindows(logs, tl, all, true).ops_per_s);
  m->push_back({"trace.overhead_frac", 1.0 - Ratio(traced, untraced), "ratio"});
  const double clock_ns = ClockReadNs();
  m->push_back({"trace.clock_ns", clock_ns, "ns"});
  for (int k = 0; k < kNumKinds; ++k) {
    const Histogram h = MergeKind(logs, tl, k, false);
    const std::string base = std::string("op.") + KindName(k);
    m->push_back({base + "_p50_us", h.Quantile(0.50) / 1e3, "us"});
    m->push_back({base + "_p99_us", h.Quantile(0.99) / 1e3, "us"});
  }
  return clock_ns;
}

std::string DescribeSeries(const char* label, const std::vector<double>& v) {
  std::string out = label;
  out += ":";
  for (const double x : v) {
    char num[32];
    std::snprintf(num, sizeof(num), " %.4g", x);
    out += num;
  }
  return out;
}

}  // namespace perfbench
