#include "obs/trace.h"

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_name.h"

namespace bolton {
namespace obs {

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* recorder = [] {
    // Give the logger its span-id provider here so any process that traces
    // also correlates log lines to spans, without util/ knowing about obs/.
    bolton::internal::SetLogSpanIdProvider(&internal::CurrentSpanIdForLog);
    return new TraceRecorder();
  }();
  return *recorder;
}

void TraceRecorder::Record(const SpanRecord& record) {
  FlightRecorder::Default().RecordSpan(record);
  if (!streaming_.load(std::memory_order_relaxed)) return;
  std::string line = RenderSpanJson(record);
  line += '\n';
  std::lock_guard<std::mutex> lock(stream_mu_);
  if (stream_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), stream_);
  ++streamed_;
}

std::vector<SpanRecord> TraceRecorder::Snapshot() const {
  return FlightRecorder::Default().RecentSpans(
      watermark_.load(std::memory_order_relaxed));
}

void TraceRecorder::Clear() {
  watermark_.store(FlightRecorder::Default().SpanRingStats().appended,
                   std::memory_order_relaxed);
}

Status TraceRecorder::StreamJsonlTo(const std::string& path) {
  (void)CloseStream();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  std::lock_guard<std::mutex> lock(stream_mu_);
  stream_ = f;
  streamed_ = 0;
  streaming_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Result<uint64_t> TraceRecorder::CloseStream() {
  std::lock_guard<std::mutex> lock(stream_mu_);
  streaming_.store(false, std::memory_order_relaxed);
  if (stream_ == nullptr) return uint64_t{0};
  const bool written = std::ferror(stream_) == 0;
  const bool closed = std::fclose(stream_) == 0;
  stream_ = nullptr;
  if (!written || !closed) return Status::Internal("trace stream: short write");
  return streamed_;
}

namespace internal {
ThreadSpanState& ThreadState() {
  thread_local ThreadSpanState state;
  return state;
}

uint64_t CurrentSpanIdForLog() { return ThreadState().current_id; }
}  // namespace internal

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  TraceRecorder& recorder = TraceRecorder::Default();
  if (!recorder.enabled()) return;
  internal::ThreadSpanState& tls = internal::ThreadState();
  parent_ = tls.current_id;
  depth_ = tls.depth;
  id_ = recorder.NextSpanId();
  tls.current_id = id_;
  tls.depth = depth_ + 1;
  if (depth_ < internal::ThreadSpanState::kMaxStack) {
    tls.stack_ids[depth_] = id_;
    tls.stack_names[depth_] = name_;
  }
  active_ = true;
  start_ = MonotonicNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const uint64_t end = MonotonicNanos();
  internal::ThreadSpanState& tls = internal::ThreadState();
  tls.current_id = parent_;
  tls.depth = depth_;
  if (depth_ < internal::ThreadSpanState::kMaxStack) {
    tls.stack_ids[depth_] = 0;
    tls.stack_names[depth_] = nullptr;
  }
  SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent_id = parent_;
  record.depth = depth_;
  record.start_ns = start_;
  record.duration_ns = end - start_;
  record.thread_id = CurrentThreadSmallId();
  record.thread_name = CurrentThreadName();
  if (has_counters_) {
    record.has_counters = true;
    record.counters = counters_;
  }
  TraceRecorder::Default().Record(record);
}

void PhaseAccumulator::Flush() {
  if (count_ == 0) return;
  TraceRecorder& recorder = TraceRecorder::Default();
  if (recorder.enabled()) {
    const internal::ThreadSpanState& tls = internal::ThreadState();
    SpanRecord record;
    record.name = name_;
    record.id = recorder.NextSpanId();
    record.parent_id = tls.current_id;
    record.depth = tls.depth;
    record.start_ns = MonotonicNanos();
    record.duration_ns = total_ns_;
    record.count = count_;
    record.thread_id = CurrentThreadSmallId();
    record.thread_name = CurrentThreadName();
    recorder.Record(record);
  }
  total_ns_ = 0;
  count_ = 0;
}

}  // namespace obs
}  // namespace bolton
