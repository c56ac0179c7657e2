// In-memory span tracing for the traced benchmark run.
//
// Each benchmark thread owns a ThreadTrace: spans (name, start, end, parent
// span, thread) recorded around the public calls the benchmark makes into
// the library.  Nothing is written while the run measures; the spans are
// aggregated when it ends.
//
// Self time of a span is its duration minus the part of its interval that
// its child spans cover (children may overlap each other; the covered part
// is the measure of their union, clipped to the parent).  For each thread,
// the self times of all its spans plus the time no root span covers add up
// to the thread's wall time; check_accounting() measures how far that
// identity is off.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int32_t parent = -1;  // index in the same thread's span list, -1 = root
  std::uint32_t thread = 0;
};

class ThreadTrace {
 public:
  ThreadTrace(std::uint32_t thread, std::size_t capacity) : thread_(thread) {
    spans_.reserve(capacity);
    stack_.reserve(16);
  }

  // Opens a span; returns its index, or -1 when the buffer is full (the
  // span is then counted as dropped and its children attach to the parent).
  std::int32_t open(const char* name, std::uint64_t now) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      stack_.push_back(-1);
      return -1;
    }
    const std::int32_t parent = current();
    spans_.push_back({name, now, now, parent, thread_});
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int32_t idx, std::uint64_t now) {
    stack_.pop_back();
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end = now;
  }

  void rename(std::int32_t idx, const char* name) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].name = name;
  }

  void set_wall(std::uint64_t start, std::uint64_t end) {
    wall_start_ = start;
    wall_end_ = end;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t wall_start() const { return wall_start_; }
  std::uint64_t wall_end() const { return wall_end_; }
  std::uint64_t dropped() const { return dropped_; }

  // Builds a trace from explicit spans (tests and offline analysis).
  static ThreadTrace from_spans(std::vector<Span> spans, std::uint64_t wall_start,
                                std::uint64_t wall_end) {
    ThreadTrace t(spans.empty() ? 0 : spans.front().thread, 0);
    t.spans_ = std::move(spans);
    t.set_wall(wall_start, wall_end);
    return t;
  }

 private:
  std::int32_t current() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (*it >= 0) return *it;
    }
    return -1;
  }

  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t wall_start_ = 0;
  std::uint64_t wall_end_ = 0;
  std::uint64_t dropped_ = 0;
};

// Length of the union of [lo, hi) intervals, each clipped to [clip_lo, clip_hi).
inline std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                             std::uint64_t clip_lo, std::uint64_t clip_hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur_lo = 0;
  std::uint64_t cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, clip_lo);
    hi = std::min(hi, clip_hi);
    if (lo >= hi) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

// Self time of every span of one thread, indexed like its span list.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end - spans[i].start;
    self[i] = dur - covered(std::move(kids[i]), spans[i].start, spans[i].end);
  }
  return self;
}

// Time in the thread's wall interval that no root span covers.
inline std::uint64_t unspanned(const ThreadTrace& t) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
  for (const Span& s : t.spans()) {
    if (s.parent < 0) roots.push_back({s.start, s.end});
  }
  return (t.wall_end() - t.wall_start()) -
         covered(std::move(roots), t.wall_start(), t.wall_end());
}

// |sum(self) + unspanned - wall| / wall for one thread.
inline double accounting_error(const ThreadTrace& t) {
  const std::uint64_t wall = t.wall_end() - t.wall_start();
  if (wall == 0) return 0.0;
  std::uint64_t sum = unspanned(t);
  for (const std::uint64_t s : self_times(t.spans())) sum += s;
  const double diff = static_cast<double>(sum) - static_cast<double>(wall);
  return (diff < 0 ? -diff : diff) / static_cast<double>(wall);
}

// Per-layer totals across threads: span count, summed duration and self
// time, and every span's duration (for percentiles).
struct LayerTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<std::uint64_t> durations;
};

inline std::map<std::string, LayerTotals> aggregate(const std::vector<const ThreadTrace*>& traces) {
  std::map<std::string, LayerTotals> out;
  for (const ThreadTrace* t : traces) {
    const auto self = self_times(t->spans());
    for (std::size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      LayerTotals& l = out[s.name];
      ++l.count;
      l.total_ns += s.end - s.start;
      l.self_ns += self[i];
      l.durations.push_back(s.end - s.start);
    }
  }
  return out;
}

}  // namespace perfbench
