#ifndef LIDX_TESTS_SIMD_LEVELS_H_
#define LIDX_TESTS_SIMD_LEVELS_H_

#include <vector>

#include "common/simd.h"

// Test helpers for the scalar-vs-SIMD A/B: the dispatch level is the only
// runtime switch, so equivalence tests run one built structure at every
// level this binary can execute.

namespace lidx {

// Every dispatch level this binary + CPU can actually run (ClampLevel is a
// no-op exactly for those), always including the scalar fallback first.
inline std::vector<simd::Level> RunnableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  for (simd::Level cand : {simd::Level::kSse2, simd::Level::kAvx2,
                           simd::Level::kNeon}) {
    if (simd::ClampLevel(cand) == cand) levels.push_back(cand);
  }
  return levels;
}

// Restores the process-wide dispatch level on scope exit, so a failing test
// cannot leak a forced level into later tests.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveLevel()) {}
  ~LevelGuard() { simd::SetLevel(saved_); }

  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level saved_;
};

}  // namespace lidx

#endif  // LIDX_TESTS_SIMD_LEVELS_H_
