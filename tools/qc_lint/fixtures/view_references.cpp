// qc-lint fixture: ref-under-image.
// Never compiled — parsed textually by qc_lint.py.  A query view references
// a level block by raising its reader count; the reference is safe from
// reclamation only if it is taken while a LadderImage's pin is held, so it
// may only be taken where a LadderImage is in hand.
struct Sketch {
  // Positives: a reference taken from a bare block pointer, one taken
  // under a plain IbrPin (a pin, but no validated image), and one taken
  // through a pointer member after the image is gone.
  void keep_block(const LevelBlock* b) {
    b->readers.fetch_add(1, std::memory_order_seq_cst);  // qc-lint-expect: ref-under-image
  }

  void refresh_with_own_pin(std::uint32_t level) {
    const IbrPin pin(*this, slot_);
    const LevelBlock* b = cached_[level];
    b->readers.fetch_add(1, std::memory_order_seq_cst);  // qc-lint-expect: ref-under-image
  }

  void retake(LevelCache& c) {
    for (std::uint32_t slot = 0; slot < c.trit; ++slot) {
      c.blocks[slot]->readers.fetch_add(1, std::memory_order_relaxed);  // qc-lint-expect: ref-under-image
    }
  }

  // Negatives: the refresh's staging step takes the image as a parameter,
  // a function that declares the image takes references under it, and
  // releases, scans and other counters are not references.
  void stage_levels(const LadderImage& image, bool force_full) noexcept {
    for (std::uint32_t slot = 0; slot < image.tritmap().trit(1); ++slot) {
      const LevelBlock* b = image.block(1, slot);
      b->readers.fetch_add(1, std::memory_order_seq_cst);
      stage_[1].blocks[slot] = b;
    }
  }

  void refresh_once() {
    const LadderImage image(*this, slot_, tritmap_.load(std::memory_order_acquire));
    image.block(1, 0)->readers.fetch_add(1, std::memory_order_seq_cst);
  }

  static void release(LevelCache& c) noexcept {
    c.blocks[0]->readers.fetch_sub(1, std::memory_order_release);
  }

  bool reclaimable(const LevelBlock* b) const {
    return b->readers.load(std::memory_order_seq_cst) == 0;
  }

  void count_write(Block* b) { b->writers.fetch_add(1, std::memory_order_relaxed); }
};
