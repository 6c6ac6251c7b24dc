#ifndef BOLTON_OBS_FLIGHT_RECORDER_H_
#define BOLTON_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.h"
#include "util/logging.h"

namespace bolton {
namespace obs {

/// Always-on in-memory flight recorder: fixed-capacity rings of the most
/// recent log events and completed trace spans, and a periodic metrics
/// snapshot. Unlike the opt-in telemetry pillars this runs in every
/// process, because its whole purpose is the run nobody planned to debug —
/// the crash handler (obs/postmortem.h) dumps the rings into the
/// postmortem, and the obs HTTP server serves them live at /logz, /spans
/// and /flightrecorder. The span ring is the only store of completed
/// spans; TraceRecorder::Snapshot() reads it too.
///
/// Both rings are one SeqlockRing: the drop-not-block idiom of
/// util/sample_ring.h adapted to a wrapping ring, readable from a signal
/// handler (WriteRawTo() below does exactly that).

/// Append/drop accounting for one ring. `appended` counts every event
/// offered (old entries are overwritten once it exceeds `capacity`);
/// `dropped` counts events lost to writer-writer slot contention.
struct RingStats {
  uint64_t capacity = 0;
  uint64_t appended = 0;
  uint64_t dropped = 0;
};

namespace internal {

/// A trivially copyable value held as atomic words. Store() packs it with
/// release stores, so a reader that sees any word of a write also sees the
/// generation bump that preceded it; Load() does only acquire loads and a
/// copy into caller memory, so it is async-signal-safe.
template <typename T>
class AtomicPod {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  void Store(const T& value) {
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    for (size_t w = 0; w < kWords; ++w) {
      words_[w].store(words[w], std::memory_order_release);
    }
  }

  void Load(T* out) const {
    uint64_t words[kWords];
    for (size_t w = 0; w < kWords; ++w) {
      words[w] = words_[w].load(std::memory_order_acquire);
    }
    std::memcpy(out, words, sizeof(T));
  }

 private:
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;
  std::atomic<uint64_t> words_[kWords] = {};
};

/// kSlots slots of T addressed by a monotonically increasing sequence
/// number. Writers claim a slot by sequence number and take its generation
/// from even to odd with one CAS; a writer that loses the CAS drops its
/// entry (counted) instead of blocking. Every slot field is atomic, so
/// readers never data-race with writers: a torn slot fails the generation
/// recheck and is skipped.
template <typename T, size_t kSlots>
class SeqlockRing {
 public:
  /// Claims the next sequence number and publishes `value` in its slot, or
  /// counts a drop when another writer still holds that slot.
  void Append(const T& value) {
    const uint64_t seq = appended_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq % kSlots];
    uint64_t gen = slot.gen.load(std::memory_order_relaxed);
    if ((gen & 1) != 0 ||
        !slot.gen.compare_exchange_strong(gen, gen + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot.seq.store(seq, std::memory_order_relaxed);
    slot.value.Store(value);
    slot.gen.store(gen + 2, std::memory_order_release);
  }

  /// Calls visit(seq, value) for every retained entry whose sequence
  /// number is at least `since`, oldest first. A slot being written or
  /// lapped mid-read is skipped, never waited on. Atomic loads and stack
  /// copies only: async-signal-safe whenever `visit` is.
  template <typename Visit>
  void ForEach(uint64_t since, Visit&& visit) const {
    const uint64_t end = appended_.load(std::memory_order_acquire);
    uint64_t seq = end > kSlots ? end - kSlots : 0;
    if (seq < since) seq = since;
    for (; seq < end; ++seq) {
      const Slot& slot = slots_[seq % kSlots];
      const uint64_t gen = slot.gen.load(std::memory_order_acquire);
      if ((gen & 1) != 0) continue;
      T value{};
      slot.value.Load(&value);
      if (slot.gen.load(std::memory_order_relaxed) != gen ||
          slot.seq.load(std::memory_order_relaxed) != seq) {
        continue;  // torn or lapped
      }
      visit(seq, value);
    }
  }

  RingStats Stats() const {
    return RingStats{kSlots, appended_.load(std::memory_order_relaxed),
                     dropped_.load(std::memory_order_relaxed)};
  }

 private:
  struct Slot {
    std::atomic<uint64_t> gen{0};  // odd = write in progress
    std::atomic<uint64_t> seq{0};
    AtomicPod<T> value;
  };
  Slot slots_[kSlots];
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace internal

/// A retained log event, copied out of the ring (strings owned).
struct RecordedLogEvent {
  uint64_t seq = 0;
  uint64_t mono_ns = 0;
  LogLevel level = LogLevel::kInfo;
  uint64_t thread_id = 0;
  uint64_t span_id = 0;
  int line = 0;
  std::string thread_name;  // "" when the thread was never named
  std::string file;
  std::string message;
};

/// One metric from the latest snapshot. kind is 'c' (counter, value is an
/// integral count) or 'g' (gauge).
struct RecordedMetric {
  std::string name;
  char kind = 'g';
  double value = 0.0;
};

class FlightRecorder : public LogSink {
 public:
  static constexpr size_t kLogSlots = 256;
  /// Room for one traced sharded training run (about ten spans per shard)
  /// or the last ~70 requests of a serve daemon (14 spans per /v1/train).
  static constexpr size_t kSpanSlots = 1024;
  static constexpr size_t kMetricEntries = 64;
  /// Auto-snapshot the metrics registry at most this often, piggybacked on
  /// the log write path (no poller thread).
  static constexpr uint64_t kMetricSnapshotPeriodNs = 1000000000ull;

  /// The process-wide recorder. First use constructs it and registers it
  /// as a log sink, so merely touching Default() arms the ring.
  static FlightRecorder& Default();

  /// LogSink: copies the event into the log ring and occasionally refreshes
  /// the metrics snapshot. Called under the logger's dispatch lock.
  void Write(const LogEvent& event) override;

  /// Copies a completed span into the span ring (called by
  /// TraceRecorder::Record for every finished span). Names are truncated
  /// to 47 characters and thread names to 23.
  void RecordSpan(const SpanRecord& record);

  /// Snapshots the default metrics registry (counters and gauges; the
  /// first kMetricEntries of each) into the double-buffered slot now.
  /// The postmortem writer calls this before rendering so the report
  /// carries fresh values.
  void SnapshotMetricsNow();

  /// The most recent retained events at or above `min_level`, oldest
  /// first, at most `max`. Lock-free readers: an event being overwritten
  /// mid-read is skipped, not blocked on.
  std::vector<RecordedLogEvent> RecentLogs(size_t max,
                                           LogLevel min_level) const;
  /// The retained spans whose ring sequence number is at least `since`
  /// (see SpanRingStats().appended), in completion order.
  std::vector<SpanRecord> RecentSpans(uint64_t since = 0) const;
  std::vector<RecordedMetric> LatestMetrics() const;
  /// MonotonicNanos timestamp of the latest metrics snapshot, 0 if none.
  uint64_t LatestMetricsTimestampNs() const;

  RingStats LogRingStats() const { return log_ring_.Stats(); }
  RingStats SpanRingStats() const { return span_ring_.Stats(); }

  /// Dumps the rings to `fd` as plain ASCII lines ("fllog ...",
  /// "flspan ...", "flmetric ..." with the value's IEEE bits in decimal,
  /// "flstats ..."). Uses only atomic loads,
  /// stack buffers, and write(2) — async-signal-safe, which is the whole
  /// point: the crash handler calls this with the process in an arbitrary
  /// state. The postmortem finalizer parses the lines back.
  void WriteRawTo(int fd) const;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder() = default;

  struct LogEntry {
    uint64_t mono_ns;
    uint64_t thread_id;
    uint64_t span_id;
    LogLevel level;
    int line;
    char thread_name[24] = {};
    char file[40] = {};
    char message[192] = {};
  };

  struct SpanEntry {
    uint64_t id;
    uint64_t parent_id;
    uint64_t start_ns;
    uint64_t duration_ns;
    uint64_t count;
    uint64_t thread_id;
    int depth;
    bool has_counters;
    PerfCounterDelta counters;
    char name[48] = {};
    char thread_name[24] = {};
  };

  struct MetricEntry {
    char name[48] = {};
    char kind;  // 'c' or 'g', 0 = empty
    double value;
  };
  struct MetricBuffer {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> mono_ns{0};
    internal::AtomicPod<MetricEntry> entries[kMetricEntries];
  };

  internal::SeqlockRing<LogEntry, kLogSlots> log_ring_;
  internal::SeqlockRing<SpanEntry, kSpanSlots> span_ring_;

  MetricBuffer metric_buffers_[2];
  std::atomic<uint32_t> active_metric_buffer_{0};
  std::atomic<uint64_t> last_snapshot_ns_{0};
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_FLIGHT_RECORDER_H_
