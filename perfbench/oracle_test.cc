// The answer oracle must count every corrupted answer as failed: a wrong
// value, a missing or invented key, disorder, a row outside the range.
// Exits non-zero on the first expectation that does not hold.

#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "oracle.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

using Rows = std::vector<std::pair<uint64_t, uint64_t>>;

Rows RowsOf(const std::vector<uint64_t>& keys) {
  Rows rows;
  for (const uint64_t k : keys) rows.emplace_back(k, perfbench::ValueOf(k));
  return rows;
}

}  // namespace

int main() {
  using perfbench::Oracle;
  using perfbench::Tally;
  using perfbench::ValueOf;
  const std::vector<uint64_t> loaded = {10, 20, 30, 40, 50};
  const std::vector<uint64_t> pool = {15, 25, 35};
  const Oracle oracle(&loaded, &pool);
  const auto scan = [&oracle](uint64_t lo, uint64_t hi, const Rows& rows) {
    return oracle.CheckScan(lo, hi, oracle.LoadedRank(lo), rows);
  };

  // Reads.
  Expect(Oracle::CheckPresent(20, ValueOf(20)), "right value accepted");
  Expect(!Oracle::CheckPresent(20, ValueOf(20) + 1), "wrong value rejected");
  Expect(!Oracle::CheckPresent(20, std::nullopt), "missing key rejected");

  // Scans.
  Expect(scan(20, 40, RowsOf({20, 30, 40})), "exact scan");
  Expect(scan(20, 40, RowsOf({20, 25, 30, 35, 40})),
         "scan with inserted keys");
  Expect(scan(11, 19, RowsOf({})), "empty range");
  Expect(scan(11, 19, RowsOf({15})), "only an inserted key");
  Expect(!scan(20, 40, RowsOf({20, 40})), "loaded key skipped");
  Expect(!scan(20, 40, RowsOf({20, 30})), "loaded tail dropped");
  Expect(!scan(20, 40, RowsOf({20, 30, 33, 40})),
         "invented key rejected");
  Expect(!scan(20, 40, RowsOf({30, 20, 40})), "disorder rejected");
  Expect(!scan(20, 40, RowsOf({20, 30, 30, 40})),
         "duplicate rejected");
  Expect(!scan(20, 40, RowsOf({10, 20, 30, 40})),
         "row below range rejected");
  Expect(!scan(20, 40, RowsOf({20, 30, 40, 50})),
         "row above range rejected");
  Rows corrupt = RowsOf({20, 30, 40});
  corrupt[1].second ^= 1;
  Expect(!scan(20, 40, corrupt), "corrupted value rejected");

  // The tally counts each rejected answer as a failed op.
  Tally tally;
  tally.Record(Oracle::CheckPresent(10, ValueOf(10)));
  tally.Record(Oracle::CheckPresent(10, ValueOf(11)));
  tally.Record(scan(20, 40, corrupt));
  Tally other;
  other.Record(true);
  tally.Merge(other);
  Expect(tally.attempted == 4 && tally.failed == 2, "tally counts failures");

  if (failures == 0) std::printf("oracle_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
