// qc-lint fixture: ladder-read-through-image.
// Never compiled — parsed textually by qc_lint.py.  Off the install latch,
// ladder slot and tail pointers are read only by LadderImage's members; any
// other reader would need its own pin, load order and seq validation.  A
// tail writer may also read the tail pointer under tail_mu_.
struct Sketch {
  // Positives: a querier-style load loop with its own pin and re-check.
  void stage_levels(Tritmap tm) {
    const IbrPin pin(*this, slot_);
    const std::uint64_t seq = install_seq_.load(std::memory_order_acquire);
    for (std::uint32_t level = 1; level < tm.num_levels(); ++level) {
      for (std::uint32_t slot = 0; slot < tm.trit(level); ++slot) {
        const LevelBlock* b =
            s.slot_block(level, slot).load(std::memory_order_seq_cst);  // qc-lint-expect: ladder-read-through-image
        copy(b);
      }
    }
    validate(seq);
  }

  std::uint64_t count_published() const {
    std::uint64_t n = 0;
    for (std::uint32_t level = 1; level < kLevels; ++level) {
      if (slot_block(level, 0).load(std::memory_order_acquire) != nullptr) n += 1;  // qc-lint-expect: ladder-read-through-image
    }
    return n;
  }

  // A read before the guard is outside the latched region.
  void trim() {
    LevelBlock* early = this->slot_block(1, 0).load(std::memory_order_relaxed);  // qc-lint-expect: ladder-read-through-image
    const LatchGuard guard(*this);
    LevelBlock* old = slot_block(1, 1).load(std::memory_order_relaxed);
    retire(early, old);
  }

  // Tail pointer: an unpinned reader, and one that reads before taking
  // tail_mu_.
  std::uint64_t tail_items() const {
    return tail_.load(std::memory_order_acquire)->items.size();  // qc-lint-expect: ladder-read-through-image
  }

  void push_tail_early(const double* items, std::size_t n) {
    const LevelBlock* cur = tail_.load(std::memory_order_relaxed);  // qc-lint-expect: ladder-read-through-image
    const sync::MutexLock lock(tail_mu_);
    merge(cur, items, n);
  }

  // Negatives: a latched writer, a read under a LatchGuard, a tail writer
  // under tail_mu_, the destructor, and the image loader.
  void publish_slot(std::uint32_t level, std::uint32_t slot, LevelBlock* nb)
      QC_REQUIRES(latch_) {
    auto& ref = slot_block(level, slot);
    ref.store(nb, std::memory_order_seq_cst);
  }

  void rebuild(Sketch* sk) {
    const LatchGuard guard(*sk);
    sk->slot_block(1, 0).store(fresh(), std::memory_order_relaxed);
    retire(sk->tail_.load(std::memory_order_relaxed));
  }

  void push_tail(const double* items, std::size_t n) {
    const sync::MutexLock lock(tail_mu_);
    merge(tail_.load(std::memory_order_relaxed), items, n);
  }

  void merge_tail(const double* items, std::size_t n) QC_REQUIRES(tail_mu_) {
    merge(tail_.load(std::memory_order_relaxed), items, n);
  }

  ~Sketch() { delete tail_.load(std::memory_order_relaxed); }

  class LadderImage {
   public:
    explicit LadderImage(const Sketch& s) {
      const LatchGuard guard(s);
      load(s, s.tritmap_.load(std::memory_order_relaxed));
    }

   private:
    void load(const Sketch& s, Tritmap tm) {
      tail_ = s.tail_.load(std::memory_order_seq_cst);
      for (std::uint32_t level = 1; level < tm.num_levels(); ++level) {
        for (std::uint32_t i = 0; i < tm.trit(level); ++i) {
          runs_[level * 2 + i] = s.slot_block(level, i).load(std::memory_order_seq_cst);
        }
      }
    }
  };
};
