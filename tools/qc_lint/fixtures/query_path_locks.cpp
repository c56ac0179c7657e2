// qc-lint fixture: no-lock-on-query-path.
// Never compiled — parsed textually by qc_lint.py.  A refresh never waits on
// a writer: nothing reachable from a Querier member or from the unlatched
// LadderImage loader (the constructor that takes a pin slot) may take the
// sketch's mutex, its install latch or an install-queue wait.
struct Sketch {
  class Querier {
   public:
    void refresh() noexcept { refresh_impl(false); }

   private:
    void refresh_impl(bool full) noexcept {
      copy_tail(buf_ver_);
      settle();
      const LadderImage image(*sketch_, lease_.slot(), tm_);
      reference(image, full);
    }

    // Positive: a copy_tail-shaped mutex in a refresh.
    void copy_tail(std::uint64_t& ver) noexcept {
      const sync::MutexLock lock(sketch_->tail_mu_);  // qc-lint-expect: no-lock-on-query-path
      ver = sketch_->tail_version_.load(std::memory_order_relaxed);
    }
  };

  // Positive: a latch reached through a helper of the querier.
  void settle() { wait_for_installs(); }
  void wait_for_installs() {
    while (!try_acquire_latch()) {  // qc-lint-expect: no-lock-on-query-path
      backoff_.spin();
    }
    release_latch();
  }

  class LadderImage {
   public:
    // Negative: the latched image constructor (serialize, merge_into).
    explicit LadderImage(const Sketch& s) {
      const LatchGuard guard(s);
      load(s, nullptr, s.tritmap_.load(std::memory_order_relaxed));
    }

    // The unlatched loader is a query-path root: what its loader reaches
    // counts too.
    LadderImage(const Sketch& s, IbrSlot* slot, Tritmap tm) { load(s, slot, tm); }

   private:
    void load(const Sketch& s, IbrSlot* slot, Tritmap tm) {
      announce(s, slot);
      tm_ = tm;
    }
  };

  // Positive: a latch reached from the unlatched loader.
  void announce(const Sketch& s, IbrSlot* slot) {
    acquire_latch();  // qc-lint-expect: no-lock-on-query-path
    slot->announced.store(s.epoch_.load(std::memory_order_seq_cst), std::memory_order_seq_cst);
  }

  // Negatives: the writer paths.
  void push_tail(const double* items, std::uint64_t n) QC_EXCLUDES(latch_) {
    const sync::MutexLock lock(tail_mu_);
    const LatchGuard guard(*this);
    install(items, n);
  }

  void flush_chunk() QC_EXCLUDES(latch_) { drain_until(acquire_cell()); }
};
