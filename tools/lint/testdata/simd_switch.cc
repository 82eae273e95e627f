// Fixture for the simd-switch rule: a per-object scalar/SIMD switch (a
// `use_simd` parameter, a `bool simd` option field, a `set_simd` setter)
// anywhere but common/simd.h must be flagged. Never compiled — data for
// `lidx_lint --self-test` only.

struct Options {
  unsigned long epsilon = 64;
  bool simd = true;  // lidx-lint-expect: simd-switch
};

unsigned long Search(const unsigned long* data, unsigned long n,
                     bool use_simd) {  // lidx-lint-expect: simd-switch
  return use_simd ? n : 0;  // lidx-lint-expect: simd-switch
}

class Tree {
 public:
  void set_simd(bool on) { simd_ = on; }  // lidx-lint-expect: simd-switch

 private:
  bool simd_ = true;  // lidx-lint-expect: simd-switch
};

// Negative: the dispatch predicate and level are the sanctioned switch,
// and a cached read of the predicate is not an option.
unsigned long Dispatch(const unsigned long* data, unsigned long n) {
  const bool vectorized = simd::Vectorized();
  if (simd::ActiveLevel() == simd::Level::kScalar) return 0;
  return vectorized ? n : 1;
}

// Negative: identifiers that merely contain the words, comments and
// strings ("use_simd") are not switches.
bool simd_ready = false;
bool is_simd = false;
unsigned long reuse_simd_buffer = 0;

// Suppression: an explicit, reasoned opt-out silences the rule.
// lidx-lint: allow(simd-switch): fixture for the suppression syntax.
void Legacy(bool use_simd);
