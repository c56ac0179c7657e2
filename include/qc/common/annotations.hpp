// Clang Thread Safety Analysis annotations, plus the annotated lock wrappers
// the analysis needs to see through libstdc++ primitives.
//
// The engine's concurrency contract is mostly invisible to the compiler:
// "nothing allocates or blocks while the install latch is held", "tail_ is
// only touched under tail_mu_", "only the propagator thread rebuilds the
// FCDS ladder".  These macros make that contract machine-checked wherever
// Clang is the compiler (-Wthread-safety is enabled automatically for Clang
// builds, and CI compiles with -Werror), and compile to nothing under GCC —
// the annotations are documentation there, never a semantic change.
//
// ## The capability model used across qc
//
//   * install latch (core/quancurrent.hpp) — `sync::LatchFlag latch_` is a
//     QC_CAPABILITY.  `acquire_latch()` / `try_acquire_latch()` /
//     `release_latch()` carry QC_ACQUIRE / QC_TRY_ACQUIRE / QC_RELEASE, and
//     `LatchGuard` is the QC_SCOPED_CAPABILITY RAII form.  Everything the
//     latch serializes — block allocation/retirement, the free list, the
//     stash, the cascade scratch buffer, the RNG, IBR epoch advancement —
//     is QC_GUARDED_BY(latch_), and every function on that path is
//     QC_REQUIRES(latch_).  Public entry points that acquire the latch
//     internally (install, drain, merge, serialize, quiesce) are
//     QC_EXCLUDES(latch_): calling them while holding the latch would
//     deadlock in `drain_until` or double-acquire in `LatchGuard`.
//
//   * tail_mu_ (core/quancurrent.hpp) — a `sync::Mutex` serializing the
//     tail writers and guarding their merge scratch.  The published tail
//     block (`tail_`) and its size mirror (`tail_size_`) are atomics the
//     install latch stores, intentionally unguarded by tail_mu_.
//
//   * FCDS propagator role (baselines/fcds.hpp) — a `sync::Role` phantom
//     capability.  The ladder state (base buffer, levels, mergers, RNG) is
//     QC_GUARDED_BY(propagator_role_) and the rebuild/publish path is
//     QC_REQUIRES(propagator_role_), so "only the propagator flips the
//     snapshot" — the invariant whose violation was the PR 8 flip race —
//     is a compile error under Clang, not a TSan-schedule-permitting bug.
//
// `std::mutex` from libstdc++ carries no capability attribute, so naming it
// in QC_GUARDED_BY would trip -Wthread-safety-attributes.  `sync::Mutex` /
// `sync::MutexLock` below are zero-cost annotated wrappers (the usual
// pattern, cf. abseil's Mutex); use them for any mutex that guards data.
#pragma once

#include <atomic>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define QC_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef QC_THREAD_ANNOTATION
#define QC_THREAD_ANNOTATION(x)  // no-op: GCC/MSVC see plain declarations
#endif

// A type that acts as a lock/role; variables of the type name the capability.
#define QC_CAPABILITY(name) QC_THREAD_ANNOTATION(capability(name))
// RAII type whose constructor acquires and destructor releases a capability.
#define QC_SCOPED_CAPABILITY QC_THREAD_ANNOTATION(scoped_lockable)
// Data member readable/writable only while holding the named capability.
#define QC_GUARDED_BY(x) QC_THREAD_ANNOTATION(guarded_by(x))
// Pointer member whose *pointee* is guarded by the named capability.
#define QC_PT_GUARDED_BY(x) QC_THREAD_ANNOTATION(pt_guarded_by(x))
// Function precondition: capability held on entry (and still held on exit).
#define QC_REQUIRES(...) QC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// Function acquires the capability; it was not held on entry.
#define QC_ACQUIRE(...) QC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
// Function releases the capability; it was held on entry.
#define QC_RELEASE(...) QC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// Function acquires the capability iff it returns `result`.
#define QC_TRY_ACQUIRE(result, ...) \
  QC_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))
// Function precondition: capability NOT held (acquiring inside would deadlock).
#define QC_EXCLUDES(...) QC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Caller asserts the capability is held without the analysis seeing how.
#define QC_ASSERT_CAPABILITY(x) QC_THREAD_ANNOTATION(assert_capability(x))
// Returns a reference to the named capability (for lock accessors).
#define QC_RETURN_CAPABILITY(x) QC_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch: skip analysis of this function body (constructors touching
// guarded members before publication, role-assumption shims).
#define QC_NO_THREAD_SAFETY_ANALYSIS QC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace qc::sync {

// std::mutex with the capability attribute the analysis needs.  Same size,
// same codegen: every method is a single inlined forward.
class QC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QC_ACQUIRE() { mu_.lock(); }
  void unlock() QC_RELEASE() { mu_.unlock(); }
  bool try_lock() QC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// std::lock_guard is invisible to the analysis (libstdc++ ships it without
// annotations), so guarded-data access under it would still warn.  MutexLock
// is the annotated equivalent.
class QC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) QC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() QC_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// An atomic_flag that doubles as a capability, for spin latches whose
// acquire/release protocol lives in hand-written helpers (the install
// latch).  The flag itself stays exposed: the owning class annotates its
// own acquire/release functions against the LatchFlag member.
class QC_CAPABILITY("latch") LatchFlag {
 public:
  std::atomic_flag flag = ATOMIC_FLAG_INIT;
};

// A phantom capability modelling a thread role rather than a lock: no
// runtime state at all, but data QC_GUARDED_BY a Role member can only be
// touched by functions that QC_REQUIRES it, and only the function that
// `assume()`d the role satisfies that.  Used for "propagator-only" state in
// the FCDS baseline.
class QC_CAPABILITY("role") Role {
 public:
  // The analysis cannot see how a role is obtained (it is a fact about
  // which thread is running, not about a lock), so the shims assert the
  // transition and skip their own analysis.
  void assume() QC_ACQUIRE() QC_NO_THREAD_SAFETY_ANALYSIS {}
  void release() QC_RELEASE() QC_NO_THREAD_SAFETY_ANALYSIS {}
};

}  // namespace qc::sync
