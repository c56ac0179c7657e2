// qc-lint fixture: no-wait-while-pinned.
// Never compiled — parsed textually by qc_lint.py.  An IbrPin or a
// LadderImage announces a reclamation pin; an install throttled at
// ibr_retire_cap waits for every pin, so nothing may wait on the sketch
// from the declaration to the end of its scope.
struct Sketch {
  // Direct waits after the pin.
  void refresh_waits_directly() {
    const IbrPin pin(*this, slot_);
    copy_levels();                       // does not wait: fine
    const sync::MutexLock lock(tail_mu_);  // qc-lint-expect: no-wait-while-pinned
    const LatchGuard guard(*this);       // qc-lint-expect: no-wait-while-pinned
    acquire_latch();                     // qc-lint-expect: no-wait-while-pinned
    drain_until(pos_);                   // qc-lint-expect: no-wait-while-pinned
    const auto cell = acquire_cell();    // qc-lint-expect: no-wait-while-pinned
    target_.drain_installs();            // qc-lint-expect: no-wait-while-pinned
    use(cell);
  }

  // A wait reached through the call graph: refresh -> stage_tail ->
  // MutexLock, and one level deeper through quiesce_tail.
  void refresh_through_helpers() {
    const IbrPin pin(*this, slot_);
    for (int attempt = 0; attempt < 8; ++attempt) {
      copy_levels();
      stage_tail();                      // qc-lint-expect: no-wait-while-pinned
    }
    this->flush_all();                   // qc-lint-expect: no-wait-while-pinned
  }

  // An image is a pin too.
  void serialize_under_image() {
    const LadderImage image(*this);
    write_runs(image);
    const sync::MutexLock lock(tail_mu_);  // qc-lint-expect: no-wait-while-pinned
  }

  // Negatives: the image is dropped before tail_mu_ (write_payload), the
  // pin scope closes before the waits (merge_into, the scoped refresh),
  // and waits before the pin are not this rule's concern.
  void write_payload() {
    {
      const LadderImage image(*this);
      write_runs(image);
    }
    const sync::MutexLock lock(tail_mu_);
    write_tail();
  }

  void merge_into(Sketch& target) {
    stage_tail();
    {
      const LadderImage image(*this);
      copy_runs(image);
    }
    for (int i = 0; i < runs_; ++i) target.install_run(i);
    drain_installs();
  }

  void refresh_scoped() {
    for (int attempt = 0; attempt < 8; ++attempt) {
      {
        const IbrPin pin(*this, slot_);
        copy_levels();
      }
      stage_tail();
    }
  }

  void stage_tail() {
    const sync::MutexLock lock(tail_mu_);
    copy_tail();
  }

  void quiesce_tail() { stage_tail(); }
  void flush_all() { quiesce_tail(); }

  void copy_levels() { copy_runs(levels_); }
};
