// lidx-lint — repo-specific lexical checks for the lidx codebase.
//
// Eight rules encode invariants of this repo that generic tooling cannot
// know (docs/STATIC_ANALYSIS.md has the full catalog with rationale):
//
//   raw-io             pread/pwrite must not appear outside
//                      storage/file_manager.h and storage/async_io.h —
//                      FileManager is the syscall boundary for page I/O
//                      and async_io.h defines the retrying positional
//                      helpers it routes through.
//   raw-uring          io_uring_* / IORING_* identifiers (the raw ring
//                      protocol: setup/enter/register syscalls, SQE/CQE
//                      structs, opcode flags) are confined to
//                      storage/async_io.h — everything else talks to
//                      AsyncReadEngine, never to the ring.
//   cast-io            serialization must stage object bytes through the
//                      serialize.h memcpy helpers; a reinterpret_cast fed
//                      straight into a read/write call is type-punned I/O.
//   raw-unpack         the byte/bit-offset decode idiom (`x >> 3` and
//                      `x & 7` in one statement) is confined to
//                      storage/page_codec.h and common/simd.h — everyone
//                      else decodes packed pages through
//                      DataPageView::DecodeInto/DecodeKeys or
//                      simd::UnpackBits, never by hand.
//   pageref-escape     BufferPool::PageRef is a pin guard; returning one,
//                      storing one in a member, or collecting them in a
//                      container outlives the pin discipline.
//   pool-blocking-get  Submit(...).get() on the shared ThreadPool blocks a
//                      caller that may itself occupy a pool thread —
//                      classic same-pool-wait deadlock under saturation.
//   epoch-guard        fields marked `// lidx: epoch-protected` may only
//                      be .load()ed or .Acquire()d (ShadowCell's reader
//                      accessor) inside a region that establishes
//                      protection (EpochManager::Pin()/Guard, a MutexLock,
//                      or a LIDX_REQUIRES contract).
//   simd-switch        no per-object scalar/SIMD switch: a `use_simd`
//                      parameter, a `bool simd` option field or a
//                      `set_simd` setter anywhere but common/simd.h. The
//                      dispatch level (simd::SetLevel, LIDX_SIMD) is the
//                      one runtime A/B; call sites branch on
//                      simd::Vectorized().
//
// Deliberately a *lexical* checker (comments and string literals are
// stripped, braces are matched, nothing is type-resolved): it builds with
// any C++17 compiler, needs no compilation database, and the rules are
// pattern-shaped enough that token-level matching is reliable. The price
// is approximation, paid for with an explicit suppression syntax:
//
//   // lidx-lint: allow(<rule>): <reason>
//
// suppresses <rule> on that line and the two lines after it. Fixtures
// under testdata/ mark intended findings with
//
//   ... offending code ...  // lidx-lint-expect: <rule>
//
// and `lidx_lint --self-test testdata` verifies every expectation fires,
// nothing unexpected fires, and every rule is exercised at least once.
//
// Usage:
//   lidx_lint <file-or-dir>...             lint (recurses into dirs)
//   lidx_lint --self-test <file-or-dir>... fixture mode (see above)

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

const char* const kAllRules[] = {"raw-io", "raw-uring", "cast-io",
                                 "raw-unpack", "pageref-escape",
                                 "pool-blocking-get", "epoch-guard",
                                 "simd-switch"};

struct Finding {
  std::string file;
  size_t line = 0;  // 1-based.
  std::string rule;
  std::string message;
};

struct Expectation {
  size_t line = 0;
  std::string rule;
  bool matched = false;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True iff `text` has `word` starting at `pos` with identifier boundaries
// on both sides.
bool WordAt(const std::string& text, size_t pos, const std::string& word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsIdentChar(text[pos - 1])) return false;
  const size_t end = pos + word.size();
  if (end < text.size() && IsIdentChar(text[end])) return false;
  return true;
}

size_t SkipSpace(const std::string& text, size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

// One parsed source file: raw text, a "clean" copy with comments, string
// and char literals, and preprocessor lines blanked (newlines preserved so
// offsets and line numbers agree), per-offset line numbers, matched brace
// pairs, and the lint directives harvested from comments before blanking.
class Source {
 public:
  static bool Load(const fs::path& path, Source* out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out->path_ = path.generic_string();
    out->raw_ = buf.str();
    out->Analyze();
    return true;
  }

  const std::string& path() const { return path_; }
  const std::string& clean() const { return clean_; }
  std::string Basename() const { return fs::path(path_).filename().string(); }

  size_t LineOf(size_t offset) const {
    // line_start_ is sorted; the line is the last start <= offset.
    const auto it = std::upper_bound(line_start_.begin(), line_start_.end(),
                                     offset);
    return static_cast<size_t>(it - line_start_.begin());
  }

  size_t LineCount() const { return line_start_.size(); }

  // Raw text of 1-based line `n` (no trailing newline).
  std::string RawLine(size_t n) const {
    if (n == 0 || n > line_start_.size()) return "";
    const size_t begin = line_start_[n - 1];
    size_t end = raw_.find('\n', begin);
    if (end == std::string::npos) end = raw_.size();
    return raw_.substr(begin, end - begin);
  }

  // `// lidx-lint: allow(<rule>)` on line L suppresses L..L+2.
  bool Suppressed(const std::string& rule, size_t line) const {
    for (size_t l = (line > 2 ? line - 2 : 1); l <= line; ++l) {
      const auto it = allows_.find(l);
      if (it != allows_.end() && it->second.count(rule) > 0) return true;
    }
    return false;
  }

  const std::vector<Expectation>& expectations() const { return expects_; }
  std::vector<Expectation>* mutable_expectations() { return &expects_; }

  // Field names marked `// lidx: epoch-protected` in this file.
  const std::vector<std::string>& epoch_fields() const {
    return epoch_fields_;
  }

  // Innermost-to-outermost brace regions enclosing `offset`; each value is
  // the offset of the opening '{'.
  std::vector<size_t> EnclosingOpens(size_t offset) const {
    std::vector<size_t> result;
    for (const auto& [open, close] : brace_pairs_) {
      if (open < offset && offset < close) result.push_back(open);
    }
    std::sort(result.rbegin(), result.rend());  // innermost first
    return result;
  }

 private:
  void Analyze() {
    line_start_.push_back(0);
    for (size_t i = 0; i < raw_.size(); ++i) {
      if (raw_[i] == '\n' && i + 1 < raw_.size()) line_start_.push_back(i + 1);
    }
    HarvestDirectives();
    BuildClean();
    MatchBraces();
  }

  void HarvestDirectives() {
    for (size_t n = 1; n <= line_start_.size(); ++n) {
      const std::string line = RawLine(n);
      ParseDirective(line, n, "lidx-lint: allow(", /*is_allow=*/true);
      ParseDirective(line, n, "lidx-lint-expect: ", /*is_allow=*/false);
      const size_t mark = line.find("// lidx: epoch-protected");
      if (mark != std::string::npos) {
        const std::string name = FieldNameOf(line.substr(0, mark));
        if (!name.empty()) epoch_fields_.push_back(name);
      }
    }
  }

  void ParseDirective(const std::string& line, size_t n,
                      const std::string& intro, bool is_allow) {
    size_t pos = line.find(intro);
    while (pos != std::string::npos) {
      size_t start = pos + intro.size();
      size_t end = start;
      while (end < line.size() && (IsIdentChar(line[end]) || line[end] == '-')) {
        ++end;
      }
      const std::string rule = line.substr(start, end - start);
      if (!rule.empty()) {
        if (is_allow) {
          allows_[n].insert(rule);
        } else {
          expects_.push_back(Expectation{n, rule, false});
        }
      }
      pos = line.find(intro, end);
    }
  }

  // Declared field name of e.g. `std::atomic<State*> state{nullptr};` —
  // the identifier directly before the initializer or semicolon.
  static std::string FieldNameOf(std::string decl) {
    while (!decl.empty() &&
           std::isspace(static_cast<unsigned char>(decl.back())) != 0) {
      decl.pop_back();
    }
    // Drop a trailing `;`, then a {...} or = ... initializer.
    if (!decl.empty() && decl.back() == ';') decl.pop_back();
    const size_t brace = decl.rfind('{');
    if (brace != std::string::npos) decl.resize(brace);
    const size_t eq = decl.rfind('=');
    if (eq != std::string::npos) decl.resize(eq);
    size_t end = decl.size();
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(decl[end - 1])) != 0) {
      --end;
    }
    size_t start = end;
    while (start > 0 && IsIdentChar(decl[start - 1])) --start;
    return decl.substr(start, end - start);
  }

  void BuildClean() {
    clean_ = raw_;
    enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
    State state = State::kCode;
    bool line_is_preproc = false;
    bool line_seen_code = false;
    for (size_t i = 0; i < clean_.size(); ++i) {
      const char c = raw_[i];
      const char next = i + 1 < raw_.size() ? raw_[i + 1] : '\0';
      if (c == '\n') {
        if (state == State::kLineComment) state = State::kCode;
        line_is_preproc = false;
        line_seen_code = false;
        continue;
      }
      switch (state) {
        case State::kCode:
          if (!line_seen_code &&
              std::isspace(static_cast<unsigned char>(c)) == 0) {
            line_seen_code = true;
            if (c == '#') line_is_preproc = true;
          }
          if (line_is_preproc) {
            clean_[i] = ' ';
            break;
          }
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            clean_[i] = ' ';
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            clean_[i] = ' ';
          } else if (c == '"') {
            state = State::kString;
            clean_[i] = ' ';
          } else if (c == '\'') {
            state = State::kChar;
            clean_[i] = ' ';
          }
          break;
        case State::kLineComment:
          clean_[i] = ' ';
          break;
        case State::kBlockComment:
          clean_[i] = ' ';
          if (c == '*' && next == '/') {
            clean_[i + 1] = ' ';
            ++i;
            state = State::kCode;
          }
          break;
        case State::kString:
        case State::kChar:
          clean_[i] = ' ';
          if (c == '\\') {
            if (i + 1 < clean_.size() && raw_[i + 1] != '\n') {
              clean_[i + 1] = ' ';
              ++i;
            }
          } else if ((state == State::kString && c == '"') ||
                     (state == State::kChar && c == '\'')) {
            state = State::kCode;
          }
          break;
      }
    }
  }

  void MatchBraces() {
    std::vector<size_t> stack;
    for (size_t i = 0; i < clean_.size(); ++i) {
      if (clean_[i] == '{') {
        stack.push_back(i);
      } else if (clean_[i] == '}' && !stack.empty()) {
        brace_pairs_.emplace_back(stack.back(), i);
        stack.pop_back();
      }
    }
  }

  std::string path_;
  std::string raw_;
  std::string clean_;
  std::vector<size_t> line_start_;
  std::vector<std::pair<size_t, size_t>> brace_pairs_;
  std::map<size_t, std::set<std::string>> allows_;
  std::vector<Expectation> expects_;
  std::vector<std::string> epoch_fields_;
};

void Report(const Source& src, size_t offset, const char* rule,
            const std::string& message, std::vector<Finding>* out) {
  const size_t line = src.LineOf(offset);
  if (src.Suppressed(rule, line)) return;
  out->push_back(Finding{src.path(), line, rule, message});
}

// ---- raw-io ---------------------------------------------------------------

void CheckRawIo(const Source& src, std::vector<Finding>* out) {
  // The two syscall boundaries: FileManager owns page I/O, async_io.h
  // defines the retrying PReadFull/PWriteFull helpers it routes through.
  if (src.Basename() == "file_manager.h" || src.Basename() == "async_io.h") {
    return;
  }
  const std::string& text = src.clean();
  for (const char* fn : {"pread", "pwrite"}) {
    const std::string name(fn);
    for (size_t pos = text.find(name); pos != std::string::npos;
         pos = text.find(name, pos + 1)) {
      if (!WordAt(text, pos, name)) continue;
      const size_t after = SkipSpace(text, pos + name.size());
      if (after >= text.size() || text[after] != '(') continue;
      Report(src, pos, "raw-io",
             "raw " + name + "() call outside storage/file_manager.h and "
             "storage/async_io.h — route I/O through FileManager or an "
             "AsyncReadEngine",
             out);
    }
  }
}

// ---- raw-uring ------------------------------------------------------------

void CheckRawUring(const Source& src, std::vector<Finding>* out) {
  if (src.Basename() == "async_io.h") return;  // The ring lives here.
  const std::string& text = src.clean();
  // Any identifier containing io_uring_ or IORING_ is part of the raw ring
  // protocol: the setup/enter/register syscalls (__NR_io_uring_*), the
  // SQE/CQE/params structs (io_uring_sqe, ...), and the flag/opcode
  // namespace (IORING_OP_*, IORING_ENTER_*). The portable spelling for
  // everything outside async_io.h is AsyncReadEngine / IoBackend.
  for (const char* stem : {"io_uring_", "IORING_"}) {
    const std::string name(stem);
    for (size_t pos = text.find(name); pos != std::string::npos;
         pos = text.find(name, pos + 1)) {
      // Expand to the identifier containing the stem and report it once:
      // a match whose identifier prefix already holds the stem (the
      // io_uring_ inside __NR_io_uring_setup, say) was reported when the
      // earlier occurrence expanded to the same identifier.
      size_t begin = pos;
      while (begin > 0 && IsIdentChar(text[begin - 1])) --begin;
      if (begin != pos &&
          text.substr(begin, pos - begin).find(name) != std::string::npos) {
        continue;
      }
      Report(src, begin, "raw-uring",
             "raw io_uring identifier outside storage/async_io.h — the "
             "ring protocol is an implementation detail of "
             "IoUringReadEngine; use AsyncReadEngine / IoBackend",
             out);
    }
  }
}

// ---- cast-io --------------------------------------------------------------

// True iff the statement slice contains an I/O call: fread/fwrite/
// pread/pwrite, or a .read(/.write(/->read(/->write( member call.
bool HasIoCall(const std::string& stmt) {
  for (const char* fn : {"fread", "fwrite", "pread", "pwrite"}) {
    const std::string name(fn);
    for (size_t pos = stmt.find(name); pos != std::string::npos;
         pos = stmt.find(name, pos + 1)) {
      if (WordAt(stmt, pos, name)) return true;
    }
  }
  for (const char* fn : {"read", "write"}) {
    const std::string name(fn);
    for (size_t pos = stmt.find(name); pos != std::string::npos;
         pos = stmt.find(name, pos + 1)) {
      if (!WordAt(stmt, pos, name)) continue;
      const bool member =
          (pos >= 1 && stmt[pos - 1] == '.') ||
          (pos >= 2 && stmt[pos - 2] == '-' && stmt[pos - 1] == '>');
      if (!member) continue;
      const size_t after = SkipSpace(stmt, pos + name.size());
      if (after < stmt.size() && stmt[after] == '(') return true;
    }
  }
  return false;
}

void CheckCastIo(const Source& src, std::vector<Finding>* out) {
  const std::string& text = src.clean();
  const std::string kw = "reinterpret_cast";
  for (size_t pos = text.find(kw); pos != std::string::npos;
       pos = text.find(kw, pos + 1)) {
    if (!WordAt(text, pos, kw)) continue;
    // Statement bounds: between the surrounding ; { } delimiters.
    size_t begin = text.find_last_of(";{}", pos);
    begin = (begin == std::string::npos) ? 0 : begin + 1;
    size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    if (HasIoCall(text.substr(begin, end - begin))) {
      Report(src, pos, "cast-io",
             "reinterpret_cast feeding an I/O call — stage bytes through "
             "the serialize.h memcpy helpers (WritePod/ReadPod/...)",
             out);
    }
  }
}

// ---- raw-unpack -----------------------------------------------------------

// Position of operator `op` followed (modulo whitespace) by the bare
// integer literal `digit` within text[begin, end), or npos. Compound
// operators (&&, &=, >>=) and longer literals (30, 0x7, 7f) do not match;
// an integer suffix (7u, 7UL) does.
size_t FindOpDigit(const std::string& text, size_t begin, size_t end,
                   const std::string& op, char digit) {
  for (size_t pos = text.find(op, begin);
       pos != std::string::npos && pos < end; pos = text.find(op, pos + 1)) {
    if (pos > 0 && text[pos - 1] == op[0]) continue;  // `&&` second char.
    size_t after = pos + op.size();
    if (after < text.size() &&
        (text[after] == op[0] || text[after] == '=')) {
      continue;  // Compound operator: &&, &=, >>=.
    }
    after = SkipSpace(text, after);
    if (after >= end || text[after] != digit) continue;
    if (after > 0 && IsIdentChar(text[after - 1])) continue;  // 0x7, id3.
    size_t tail = after + 1;
    while (tail < text.size() &&
           (text[tail] == 'u' || text[tail] == 'U' || text[tail] == 'l' ||
            text[tail] == 'L')) {
      ++tail;
    }
    if (tail < text.size() &&
        (IsIdentChar(text[tail]) || text[tail] == '.')) {
      continue;  // Longer literal: 30, 7f, 3.5.
    }
    return pos;
  }
  return std::string::npos;
}

void CheckRawUnpack(const Source& src, std::vector<Finding>* out) {
  // `offset >> 3` to find the byte plus `offset & 7` for the bit within it
  // is the signature of hand-rolled bit-stream access. That idiom lives in
  // exactly two places: the page codec's packers and the SIMD unpack
  // kernels. Everywhere else decodes through their public entry points.
  if (src.Basename() == "page_codec.h" || src.Basename() == "simd.h") return;
  const std::string& text = src.clean();
  for (size_t pos = 0; pos < text.size();) {
    const size_t shift = FindOpDigit(text, pos, text.size(), ">>", '3');
    if (shift == std::string::npos) break;
    // Statement bounds: between the surrounding ; { } delimiters.
    size_t begin = text.find_last_of(";{}", shift);
    begin = (begin == std::string::npos) ? 0 : begin + 1;
    size_t end = text.find_first_of(";{}", shift);
    if (end == std::string::npos) end = text.size();
    if (FindOpDigit(text, begin, end, "&", '7') != std::string::npos) {
      Report(src, shift, "raw-unpack",
             "bit-stream decode idiom (>> 3 with & 7) outside "
             "storage/page_codec.h and common/simd.h — decode through "
             "DataPageView::DecodeInto/DecodeKeys or simd::UnpackBits",
             out);
    }
    pos = (end == text.size()) ? end : end + 1;
  }
}

// ---- pageref-escape -------------------------------------------------------

void CheckPageRefEscape(const Source& src, std::vector<Finding>* out) {
  if (src.Basename() == "buffer_pool.h") return;  // Defines PageRef itself.
  const std::string& text = src.clean();
  const std::string kw = "PageRef";
  for (size_t pos = text.find(kw); pos != std::string::npos;
       pos = text.find(kw, pos + 1)) {
    if (!WordAt(text, pos, kw)) continue;
    // Container of PageRef: `vector<...PageRef` etc. on the same line.
    const size_t line_begin = text.rfind('\n', pos) + 1;  // npos+1 == 0
    const std::string before = text.substr(line_begin, pos - line_begin);
    for (const char* tpl : {"vector", "deque", "list", "queue", "map",
                            "unordered_map", "optional", "array", "pair"}) {
      const size_t t = before.rfind(std::string(tpl) + "<");
      // `<` after the template name with no closing `>` before PageRef.
      if (t != std::string::npos &&
          before.find('>', t) == std::string::npos) {
        Report(src, pos, "pageref-escape",
               "container of PageRef — a pin guard must stay a "
               "function-local, not an element of a stored collection",
               out);
        break;
      }
    }
    // What follows the type name?
    size_t p = SkipSpace(text, pos + kw.size());
    if (p >= text.size()) continue;
    if (text[p] == '&') continue;  // Reference param/local: scope-bounded.
    if (!IsIdentChar(text[p])) continue;
    size_t id_end = p;
    while (id_end < text.size() && IsIdentChar(text[id_end])) ++id_end;
    const std::string ident = text.substr(p, id_end - p);
    const size_t after = SkipSpace(text, id_end);
    const char c = after < text.size() ? text[after] : '\0';
    if (c == '(') {
      Report(src, pos, "pageref-escape",
             "function returns PageRef by value — only BufferPool::Pin may "
             "mint refs; callers keep them local to the pin scope",
             out);
    } else if ((c == ';' || c == '{') && !ident.empty() &&
               ident.back() == '_') {
      Report(src, pos, "pageref-escape",
             "PageRef stored as a member field — the pin would outlive its "
             "function scope",
             out);
    }
  }
}

// ---- pool-blocking-get ----------------------------------------------------

void CheckPoolBlockingGet(const Source& src, std::vector<Finding>* out) {
  const std::string& text = src.clean();
  const std::string kw = "Submit";
  for (size_t pos = text.find(kw); pos != std::string::npos;
       pos = text.find(kw, pos + 1)) {
    if (!WordAt(text, pos, kw)) continue;
    size_t p = SkipSpace(text, pos + kw.size());
    if (p >= text.size() || text[p] != '(') continue;
    // Match the argument parens.
    int depth = 0;
    while (p < text.size()) {
      if (text[p] == '(') ++depth;
      if (text[p] == ')' && --depth == 0) break;
      ++p;
    }
    if (p >= text.size()) continue;
    size_t q = SkipSpace(text, p + 1);
    if (q >= text.size() || text[q] != '.') continue;
    q = SkipSpace(text, q + 1);
    if (!WordAt(text, q, "get")) continue;
    const size_t r = SkipSpace(text, q + 3);
    if (r >= text.size() || text[r] != '(') continue;
    Report(src, pos, "pool-blocking-get",
           "Submit(...).get() blocks on a pool future — deadlocks when "
           "every worker is itself waiting; restructure so pool-reachable "
           "code never joins pool work inline",
           out);
  }
}

// ---- epoch-guard ----------------------------------------------------------

// Markers whose presence between a region's start and the load proves the
// load is protected: an epoch pin, a scoped/annotated lock, or a
// LIDX_REQUIRES contract on the enclosing function.
bool RegionHasGuard(const std::string& text, size_t begin, size_t end) {
  for (const char* marker : {"Pin(", "Guard", "MutexLock", "lock(",
                             "LIDX_REQUIRES", "AssertPinned(",
                             "AssertProtected("}) {
    const size_t pos = text.find(marker, begin);
    if (pos != std::string::npos && pos < end) return true;
  }
  return false;
}

void CheckEpochGuard(const Source& src, std::vector<Finding>* out) {
  const std::string& text = src.clean();
  for (const std::string& field : src.epoch_fields()) {
    for (size_t pos = text.find(field); pos != std::string::npos;
         pos = text.find(field, pos + 1)) {
      if (!WordAt(text, pos, field)) continue;
      size_t p = SkipSpace(text, pos + field.size());
      if (p >= text.size() || text[p] != '.') continue;
      p = SkipSpace(text, p + 1);
      // Reader accessors: atomic .load() and ShadowCell .Acquire(). The
      // writer ops (.exchange/.store/.Publish) are covered by REQUIRES.
      size_t method_len = 0;
      if (WordAt(text, p, "load")) {
        method_len = 4;
      } else if (WordAt(text, p, "Acquire")) {
        method_len = 7;
      } else {
        continue;
      }
      const size_t after = SkipSpace(text, p + method_len);
      if (after >= text.size() || text[after] != '(') continue;
      // Safe iff any enclosing brace region (function body, loop body, ...)
      // establishes a guard before the load. Each region's scan starts at
      // the previous ; { or } so the function signature — where
      // LIDX_REQUIRES lives — is included.
      bool guarded = false;
      for (const size_t open : src.EnclosingOpens(pos)) {
        size_t begin = text.find_last_of(";{}", open == 0 ? 0 : open - 1);
        begin = (begin == std::string::npos) ? 0 : begin + 1;
        if (RegionHasGuard(text, begin, pos)) {
          guarded = true;
          break;
        }
      }
      if (!guarded) {
        Report(src, pos, "epoch-guard",
               "epoch-protected field `" + field + "` read outside any "
               "Pin()/Guard/MutexLock/LIDX_REQUIRES region — the pointee "
               "may be reclaimed under the reader",
               out);
      }
    }
  }
}

// ---- simd-switch ----------------------------------------------------------

void CheckSimdSwitch(const Source& src, std::vector<Finding>* out) {
  if (src.Basename() == "simd.h") return;  // Owns the dispatch level.
  const std::string& text = src.clean();
  const std::string message =
      "per-object SIMD switch — the dispatch level (simd::SetLevel, "
      "LIDX_SIMD) is the only runtime A/B; branch on simd::Vectorized()";
  for (const char* name : {"use_simd", "use_simd_", "set_simd"}) {
    const std::string word(name);
    for (size_t pos = text.find(word); pos != std::string::npos;
         pos = text.find(word, pos + 1)) {
      if (WordAt(text, pos, word)) {
        Report(src, pos, "simd-switch", message, out);
      }
    }
  }
  // A bool declared as `simd` or `simd_`: an option field, member or
  // parameter.
  const std::string kw = "bool";
  for (size_t pos = text.find(kw); pos != std::string::npos;
       pos = text.find(kw, pos + 1)) {
    if (!WordAt(text, pos, kw)) continue;
    const size_t p = SkipSpace(text, pos + kw.size());
    if (WordAt(text, p, "simd") || WordAt(text, p, "simd_")) {
      Report(src, p, "simd-switch", message, out);
    }
  }
}

// ---- driver ---------------------------------------------------------------

void LintFile(Source* src, std::vector<Finding>* out) {
  CheckRawIo(*src, out);
  CheckRawUring(*src, out);
  CheckCastIo(*src, out);
  CheckRawUnpack(*src, out);
  CheckPageRefEscape(*src, out);
  CheckPoolBlockingGet(*src, out);
  CheckEpochGuard(*src, out);
  CheckSimdSwitch(*src, out);
}

bool LintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".hpp" || ext == ".cpp";
}

bool CollectFiles(const std::vector<std::string>& paths,
                  std::vector<fs::path>* out) {
  for (const std::string& arg : paths) {
    const fs::path p(arg);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && LintableExtension(entry.path())) {
          out->push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      out->push_back(p);
    } else {
      std::fprintf(stderr, "lidx-lint: no such file or directory: %s\n",
                   arg.c_str());
      return false;
    }
  }
  std::sort(out->begin(), out->end());
  return true;
}

int RunLint(const std::vector<fs::path>& files) {
  std::vector<Finding> findings;
  for (const fs::path& f : files) {
    Source src;
    if (!Source::Load(f, &src)) {
      std::fprintf(stderr, "lidx-lint: cannot read %s\n",
                   f.generic_string().c_str());
      return 2;
    }
    LintFile(&src, &findings);
  }
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "lidx-lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  std::printf("lidx-lint: %zu file(s) clean\n", files.size());
  return 0;
}

int RunSelfTest(const std::vector<fs::path>& files) {
  size_t failures = 0;
  std::set<std::string> exercised;
  for (const fs::path& f : files) {
    Source src;
    if (!Source::Load(f, &src)) {
      std::fprintf(stderr, "lidx-lint: cannot read %s\n",
                   f.generic_string().c_str());
      return 2;
    }
    std::vector<Finding> findings;
    LintFile(&src, &findings);
    // Every finding must be expected; every expectation must fire.
    for (const Finding& fd : findings) {
      bool matched = false;
      for (Expectation& e : *src.mutable_expectations()) {
        if (!e.matched && e.line == fd.line && e.rule == fd.rule) {
          e.matched = true;
          matched = true;
          exercised.insert(fd.rule);
          break;
        }
      }
      if (!matched) {
        std::fprintf(stderr, "self-test FAIL %s:%zu: unexpected [%s] %s\n",
                     fd.file.c_str(), fd.line, fd.rule.c_str(),
                     fd.message.c_str());
        ++failures;
      }
    }
    for (const Expectation& e : src.expectations()) {
      if (!e.matched) {
        std::fprintf(stderr,
                     "self-test FAIL %s:%zu: expected [%s] did not fire\n",
                     src.path().c_str(), e.line, e.rule.c_str());
        ++failures;
      }
    }
  }
  for (const char* rule : kAllRules) {
    if (exercised.count(rule) == 0) {
      std::fprintf(stderr,
                   "self-test FAIL: rule [%s] has no firing fixture\n", rule);
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "lidx-lint self-test: %zu failure(s)\n", failures);
    return 1;
  }
  std::printf("lidx-lint self-test: all expectations matched, %zu rules "
              "exercised\n",
              std::size(kAllRules));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: lidx_lint [--self-test] <file-or-dir>...\n");
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: lidx_lint [--self-test] <file-or-dir>...\n");
    return 2;
  }
  std::vector<fs::path> files;
  if (!CollectFiles(paths, &files)) return 2;
  return self_test ? RunSelfTest(files) : RunLint(files);
}
