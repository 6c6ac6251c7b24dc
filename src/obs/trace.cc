#include "obs/trace.h"

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "util/logging.h"
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

void TraceRecorder::Record(SpanRecord record) {
  // Completed spans also land in the flight recorder's recent-span ring so
  // a crash report can show what the process was doing just before dying.
  FlightRecorder::Default().RecordSpan(record);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string TraceRecorder::ToJsonl() const {
  return RenderSpansJsonl(Snapshot());
}

Status TraceRecorder::WriteJsonl(const std::string& path) const {
  return internal::WriteStringToFile(path, ToJsonl());
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
  TraceRecorder::Default().Record(std::move(record));
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
    recorder.Record(std::move(record));
  }
  total_ns_ = 0;
  count_ = 0;
}

}  // namespace obs
}  // namespace bolton
