// qc-lint fixture: reopen-after-claim.
// Never compiled — parsed textually by qc_lint.py.  A batch owner may reopen
// its gather ordinal only after it has claimed its install cell: the batch
// must sit in one of the two at every moment, or the relaxation bound does
// not hold.
struct Sketch {
  // Positives: the pre-claim reopen, a reopen with no claim at all, and a
  // reopen through a pointer that precedes the claim.
  void reopen_then_claim(Gather& gb, std::uint64_t ord) {
    gb.ordinal.store(ord + 1, std::memory_order_release);  // qc-lint-expect: reopen-after-claim
    const std::uint64_t pos = acquire_cell();
    fill(pos);
  }

  void reopen_unclaimed(Gather& gb, std::uint64_t ord) {
    merge_into_scratch(gb);
    gb.ordinal.store(ord + 1, std::memory_order_release);  // qc-lint-expect: reopen-after-claim
  }

  void reopen_through_pointer(Gather* gb, std::uint64_t ord) {
    gb->ordinal.store(ord + 1, std::memory_order_release);  // qc-lint-expect: reopen-after-claim
    fill(acquire_cell());
  }

  // Negatives: claim, copy, reopen, merge (the reopen inside the staging
  // callback still follows the claim), quiesce's residue fetch_add, and
  // loads or other counters' stores.
  void flush_owner(Gather& gb, std::uint64_t ord) {
    const std::uint64_t pos = acquire_cell();
    merger.merge_staged(b, cell(pos), [&](std::span<T> stage) {
      copy(stage, gb);
      gb.ordinal.store(ord + 1, std::memory_order_release);
    });
  }

  void route_residue(Gather& gb) {
    push_tail(gb.slots.data(), residue(gb));
    gb.ordinal.fetch_add(1, std::memory_order_release);
  }

  bool open(const Gather& gb, std::uint64_t ord) const {
    return gb.ordinal.load(std::memory_order_acquire) == ord;
  }

  void publish(std::uint64_t pos) { cell(pos).seq.store(pos + 1, std::memory_order_release); }
};
