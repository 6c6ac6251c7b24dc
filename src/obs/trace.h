#ifndef BOLTON_OBS_TRACE_H_
#define BOLTON_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/perf_counters.h"
#include "obs/telemetry.h"
#include "util/status.h"

namespace bolton {
namespace obs {

/// Trace spans: RAII scoped timers with parent/child nesting.
///
/// A ScopedSpan records one timed interval; spans opened while another span
/// is live on the same thread become its children, so a run produces a tree
/// (engine.run → engine.epoch → engine.scan → …). Hot inner phases
/// (per-batch gradient/projection/noise work) are aggregated through
/// PhaseAccumulator instead of emitting one span per batch.
///
/// Off by default; a disabled span construction is a relaxed load + branch.

/// One finished (or aggregated) timed interval.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;         // unique per process, 1-based
  uint64_t parent_id = 0;  // 0 = root
  int depth = 0;
  uint64_t start_ns = 0;  // MonotonicNanos at open (flush time for phases)
  uint64_t duration_ns = 0;
  uint64_t count = 1;  // intervals aggregated into this record
  uint64_t thread_id = 0;
  /// Human-readable name of the recording thread ("main", "psgd-shard-3";
  /// see SetCurrentThreadName in util/thread_name.h) so JSONL and
  /// Chrome-trace output read without a tid lookup table.
  std::string thread_name;
  /// Hardware-counter delta over the span, when a CounterScope was
  /// attached (obs/perf_counters.h); has_counters gates the export.
  bool has_counters = false;
  PerfCounterDelta counters;
};

/// Collects finished spans; thread-safe appends, JSONL export.
class TraceRecorder {
 public:
  static TraceRecorder& Default();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(SpanRecord record);

  std::vector<SpanRecord> Snapshot() const;
  size_t size() const;
  void Clear();

  /// One JSON object per span, in completion order.
  std::string ToJsonl() const;
  Status WriteJsonl(const std::string& path) const;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

namespace internal {
/// Per-thread innermost-open-span bookkeeping for parent/child linking,
/// plus a fixed-capacity mirror of the open-span stack for the crash
/// handler: the names are string literals and the arrays are plain
/// thread-local storage, so the handler can walk its own thread's stack
/// with async-signal-safe loads (spans nested deeper than kMaxStack are
/// timed normally but omitted from the mirror).
struct ThreadSpanState {
  static constexpr int kMaxStack = 16;
  uint64_t current_id = 0;
  int depth = 0;
  uint64_t stack_ids[kMaxStack] = {0};
  const char* stack_names[kMaxStack] = {nullptr};
};
ThreadSpanState& ThreadState();

/// The calling thread's innermost open span id (0 when none); installed
/// into the logger as its span-id provider so every LogEvent carries it.
uint64_t CurrentSpanIdForLog();
}  // namespace internal

/// Times the enclosing scope. `name` must outlive the span (string
/// literals).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when tracing is disabled.
  uint64_t id() const { return id_; }

  /// Attaches a perf-counter delta (normally via CounterScope, whose
  /// destructor runs before the span's) to the record this span will
  /// emit. A no-op on an inactive (tracing-disabled) span.
  void AttachCounters(const PerfCounterDelta& delta) {
    if (!active_) return;
    counters_ = delta;
    has_counters_ = true;
  }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ = 0;
  int depth_ = 0;
  bool active_ = false;
  bool has_counters_ = false;
  PerfCounterDelta counters_;
};

/// Accumulates many short same-named intervals (e.g. the gradient phase of
/// every batch in a pass) into one aggregated span, emitted on Flush() or
/// destruction as a child of the thread's current span. Single-thread use.
class PhaseAccumulator {
 public:
  explicit PhaseAccumulator(const char* name) : name_(name) {}
  ~PhaseAccumulator() { Flush(); }

  PhaseAccumulator(const PhaseAccumulator&) = delete;
  PhaseAccumulator& operator=(const PhaseAccumulator&) = delete;

  void Add(uint64_t ns) {
    total_ns_ += ns;
    ++count_;
  }

  /// Emits the aggregate (if any intervals were recorded) and resets.
  void Flush();

 private:
  const char* name_;
  uint64_t total_ns_ = 0;
  uint64_t count_ = 0;
};

/// Times one interval into a PhaseAccumulator; a no-op (branch on a relaxed
/// atomic) while tracing is disabled.
class PhaseTimer {
 public:
  explicit PhaseTimer(PhaseAccumulator* accumulator)
      : accumulator_(TraceRecorder::Default().enabled() ? accumulator
                                                        : nullptr),
        start_(accumulator_ != nullptr ? MonotonicNanos() : 0) {}
  ~PhaseTimer() {
    if (accumulator_ != nullptr) accumulator_->Add(MonotonicNanos() - start_);
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  PhaseAccumulator* accumulator_;
  uint64_t start_;
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_TRACE_H_
