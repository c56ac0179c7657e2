// qc-lint fixture: no-alloc-under-latch and no-blocking-under-latch.
// Never compiled — the QC_* trailers below are parsed textually by qc_lint.py,
// exactly as they appear in the real engine headers.
#include <mutex>
#include <string>
#include <utility>
#include <vector>

struct Sketch {
  // Directly annotated: the whole body runs latch-held.
  void install() QC_REQUIRES(latch_) {
    retired_.push_back(nullptr);         // qc-lint-expect: no-alloc-under-latch
    scratch_.resize(64);                 // qc-lint-expect: no-alloc-under-latch
    auto* b = new int[8];                // qc-lint-expect: no-alloc-under-latch
    helper(b);
    std::lock_guard<std::mutex> g(mu_);  // qc-lint-expect: no-blocking-under-latch
    file_sink_.lock();                   // qc-lint-expect: no-blocking-under-latch
    drain();                             // qc-lint-expect: no-blocking-under-latch
  }

  // Not annotated, but plainly called from install(): reachability makes the
  // whole body count as latch-held.
  void helper(int* b) {
    stash_.push_back(b);                 // qc-lint-expect: no-alloc-under-latch
  }

  // A latch-acquiring entry point: allocation inside is legal (it happens
  // before/after its own latched window), and reachability must not leak
  // into it — the install() call above is flagged at the call site instead.
  void drain() QC_EXCLUDES(latch_) {
    buffer_.reserve(128);
  }

  // Scoped guard: only the guard's brace scope is latched.
  void snapshot() {
    prep_.reserve(64);  // before the guard: fine
    {
      const LatchGuard guard(*this);
      values_.push_back(1);              // qc-lint-expect: no-alloc-under-latch
    }
    after_.push_back(2);  // after the guard scope closes: fine
  }

  // Allocating declarations: an owning container with an initializer
  // allocates just as push_back does.  Default construction, references and
  // pointers allocate nothing.
  void write_payload() {
    const LatchGuard guard(*this);
    std::vector<int> copy(values_);      // qc-lint-expect: no-alloc-under-latch
    std::vector<int> assigned = values_; // qc-lint-expect: no-alloc-under-latch
    std::string pad(64, 'x');            // qc-lint-expect: no-alloc-under-latch
    std::vector<std::pair<int, long>> pairs{{1, 2L}};  // qc-lint-expect: no-alloc-under-latch
    std::vector<int> empty;
    std::vector<int> braced{};
    const std::vector<int>& ref = values_;
    const std::vector<int>* ptr = &values_;
    use(copy, assigned, pad, pairs, empty, braced, ref, ptr);
  }

  // Designed exception, audited and justified at the site.
  void refill_free_list() QC_REQUIRES(latch_) {
    // qc-lint-allow(no-alloc-under-latch): bounded by the free-list cap;
    // capacity is warmed by the first scans, never grows on the hot path.
    free_blocks_.push_back(nullptr);
  }

  std::vector<int*> retired_, stash_, free_blocks_;
  std::vector<int> scratch_, buffer_, prep_, values_, after_;
  std::mutex mu_;
  std::mutex file_sink_;
};
