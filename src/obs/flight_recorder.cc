#include "obs/flight_recorder.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace bolton {
namespace obs {

namespace {

/// write(2) with short-write/EINTR handling; the only output primitive in
/// WriteRawTo, so the whole dump stays async-signal-safe.
void RawWrite(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
}

/// Minimal hand-rolled formatters: snprintf is not async-signal-safe.
size_t FormatUint(uint64_t v, char* out) {
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) out[i] = digits[n - 1 - i];
  return n;
}

/// Builds one output line in a stack buffer; silently truncates rather
/// than overflowing (diagnostics must never make things worse).
class LineBuilder {
 public:
  void Text(const char* s) {
    while (*s != '\0' && len_ < sizeof(buf_) - 1) buf_[len_++] = *s++;
  }
  /// A whitespace-free token: spaces/tabs become '_', "" becomes "-".
  void Token(const char* s) {
    if (*s == '\0') {
      Text("-");
      return;
    }
    while (*s != '\0' && len_ < sizeof(buf_) - 1) {
      const char c = *s++;
      buf_[len_++] = (c == ' ' || c == '\t') ? '_' : c;
    }
  }
  /// Free text at end of line: newlines become spaces.
  void Message(const char* s) {
    while (*s != '\0' && len_ < sizeof(buf_) - 1) {
      const char c = *s++;
      buf_[len_++] = (c == '\n' || c == '\r') ? ' ' : c;
    }
  }
  void Uint(uint64_t v) {
    if (len_ + 20 < sizeof(buf_)) len_ += FormatUint(v, buf_ + len_);
  }
  void Flush(int fd) {
    if (len_ < sizeof(buf_)) buf_[len_] = '\n';
    RawWrite(fd, buf_, len_ + 1);
    len_ = 0;
  }

 private:
  char buf_[512];
  size_t len_ = 0;
};

/// Copies `text` into a fixed field, truncated to N - 1 characters and
/// always NUL-terminated.
template <size_t N>
void CopyText(char (&out)[N], const char* text) {
  size_t i = 0;
  for (; i + 1 < N && text[i] != '\0'; ++i) out[i] = text[i];
  out[i] = '\0';
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

FlightRecorder& FlightRecorder::Default() {
  // Leaked, and self-registering: touching Default() is all a process has
  // to do to get crash-time log retention.
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder();
    AddLogSink(r);
    return r;
  }();
  return *recorder;
}

void FlightRecorder::Write(const LogEvent& event) {
  LogEntry entry{.mono_ns = event.mono_ns, .thread_id = event.thread_id,
                 .span_id = event.span_id, .level = event.level,
                 .line = event.line};
  CopyText(entry.thread_name, event.thread_name);
  CopyText(entry.file, event.file);
  // The event's message pointer is only valid for this call; the ring's
  // copy (truncated to the slot width) is what survives.
  CopyText(entry.message, event.message);
  log_ring_.Append(entry);

  // Piggyback the periodic metrics snapshot on the log path: no poller
  // thread, and a process that logs at all keeps its snapshot fresh to
  // within kMetricSnapshotPeriodNs.
  const uint64_t now = MonotonicNanos();
  const uint64_t last = last_snapshot_ns_.load(std::memory_order_relaxed);
  if (last == 0 || now - last >= kMetricSnapshotPeriodNs) {
    uint64_t expected = last;
    if (last_snapshot_ns_.compare_exchange_strong(
            expected, now | 1, std::memory_order_relaxed,
            std::memory_order_relaxed)) {
      SnapshotMetricsNow();
    }
  }
}

void FlightRecorder::RecordSpan(const SpanRecord& record) {
  SpanEntry entry{.id = record.id, .parent_id = record.parent_id,
                  .start_ns = record.start_ns,
                  .duration_ns = record.duration_ns, .count = record.count,
                  .thread_id = record.thread_id, .depth = record.depth,
                  .has_counters = record.has_counters,
                  .counters = record.counters};
  CopyText(entry.name, record.name.c_str());
  CopyText(entry.thread_name, record.thread_name.c_str());
  span_ring_.Append(entry);
}

void FlightRecorder::SnapshotMetricsNow() {
  const MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  const uint32_t next =
      1u - active_metric_buffer_.load(std::memory_order_relaxed);
  MetricBuffer& buf = metric_buffers_[next];
  uint64_t n = 0;
  MetricEntry entry{};
  for (const auto& [name, value] : snapshot.counters) {
    if (n >= kMetricEntries) break;
    CopyText(entry.name, name.c_str());
    entry.kind = 'c';
    entry.value = static_cast<double>(value);
    buf.entries[n++].Store(entry);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (n >= kMetricEntries) break;
    CopyText(entry.name, name.c_str());
    entry.kind = 'g';
    entry.value = value;
    buf.entries[n++].Store(entry);
  }
  buf.count.store(n, std::memory_order_relaxed);
  buf.mono_ns.store(MonotonicNanos(), std::memory_order_relaxed);
  active_metric_buffer_.store(next, std::memory_order_release);
}

std::vector<RecordedLogEvent> FlightRecorder::RecentLogs(
    size_t max, LogLevel min_level) const {
  std::vector<RecordedLogEvent> out;
  log_ring_.ForEach(0, [&](uint64_t seq, const LogEntry& entry) {
    if (entry.level < min_level) return;
    out.push_back({seq, entry.mono_ns, entry.level, entry.thread_id,
                   entry.span_id, entry.line, entry.thread_name, entry.file,
                   entry.message});
  });
  if (out.size() > max) out.erase(out.begin(), out.end() - max);
  return out;
}

std::vector<SpanRecord> FlightRecorder::RecentSpans(uint64_t since) const {
  std::vector<SpanRecord> out;
  span_ring_.ForEach(since, [&out](uint64_t, const SpanEntry& entry) {
    out.push_back({entry.name, entry.id, entry.parent_id, entry.depth,
                   entry.start_ns, entry.duration_ns, entry.count,
                   entry.thread_id, entry.thread_name, entry.has_counters,
                   entry.counters});
  });
  return out;
}

std::vector<RecordedMetric> FlightRecorder::LatestMetrics() const {
  const MetricBuffer& buf =
      metric_buffers_[active_metric_buffer_.load(std::memory_order_acquire)];
  const uint64_t n = buf.count.load(std::memory_order_relaxed);
  std::vector<RecordedMetric> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n && i < kMetricEntries; ++i) {
    MetricEntry entry{};
    buf.entries[i].Load(&entry);
    out.push_back({entry.name, entry.kind, entry.value});
  }
  return out;
}

uint64_t FlightRecorder::LatestMetricsTimestampNs() const {
  const MetricBuffer& buf =
      metric_buffers_[active_metric_buffer_.load(std::memory_order_acquire)];
  return buf.mono_ns.load(std::memory_order_relaxed);
}

void FlightRecorder::WriteRawTo(int fd) const {
  LineBuilder line;
  auto stats_line = [&](const char* ring, const RingStats& stats) {
    line.Text(ring);
    line.Uint(stats.capacity);
    line.Text(" ");
    line.Uint(stats.appended);
    line.Text(" ");
    line.Uint(stats.dropped);
    line.Flush(fd);
  };
  stats_line("flstats logs ", log_ring_.Stats());
  stats_line("flstats spans ", span_ring_.Stats());

  log_ring_.ForEach(0, [&](uint64_t seq, const LogEntry& entry) {
    line.Text("fllog ");
    for (const uint64_t v : {seq, entry.mono_ns}) {
      line.Uint(v);
      line.Text(" ");
    }
    line.Text(LogLevelTag(entry.level));
    for (const uint64_t v : {entry.thread_id, entry.span_id,
                             static_cast<uint64_t>(entry.line)}) {
      line.Text(" ");
      line.Uint(v);
    }
    line.Text(" ");
    line.Token(entry.thread_name);
    line.Text(" ");
    line.Token(entry.file);
    line.Text(" |");
    line.Message(entry.message);
    line.Flush(fd);
  });

  // Field order is the postmortem finalizer's: 15 numbers, then the
  // thread name and span name tokens.
  span_ring_.ForEach(0, [&](uint64_t, const SpanEntry& entry) {
    const PerfCounterDelta& c = entry.counters;
    line.Text("flspan");
    for (const uint64_t v :
         {entry.id, entry.parent_id, static_cast<uint64_t>(entry.depth),
          entry.start_ns, entry.duration_ns, entry.count, entry.thread_id,
          static_cast<uint64_t>(entry.has_counters),
          static_cast<uint64_t>(c.available), c.cycles, c.instructions,
          c.cache_references, c.cache_misses, c.branch_misses,
          c.task_clock_ns}) {
      line.Text(" ");
      line.Uint(v);
    }
    line.Text(" ");
    line.Token(entry.thread_name);
    line.Text(" ");
    line.Token(entry.name);
    line.Flush(fd);
  });

  const MetricBuffer& buf =
      metric_buffers_[active_metric_buffer_.load(std::memory_order_acquire)];
  const uint64_t n = buf.count.load(std::memory_order_relaxed);
  if (n > 0) {
    line.Text("flmetricts ");
    line.Uint(buf.mono_ns.load(std::memory_order_relaxed));
    line.Flush(fd);
  }
  for (uint64_t i = 0; i < n && i < kMetricEntries; ++i) {
    MetricEntry entry{};
    buf.entries[i].Load(&entry);
    if (entry.kind == 0) continue;
    line.Text("flmetric ");
    const char kind_text[2] = {entry.kind, '\0'};
    line.Text(kind_text);
    line.Text(" ");
    line.Uint(DoubleBits(entry.value));
    line.Text(" ");
    line.Token(entry.name);
    line.Flush(fd);
  }
}

}  // namespace obs
}  // namespace bolton
