#ifndef BOLTON_UTIL_THREAD_NAME_H_
#define BOLTON_UTIL_THREAD_NAME_H_

#include <cstdint>
#include <string>

namespace bolton {

/// Process-wide thread identity, shared by the logger (util/logging.h) and
/// the telemetry pillars (obs/trace.h, obs/postmortem.h) so a thread is
/// called "psgd-shard-3" in stderr log lines, JSONL events, trace spans,
/// and crash postmortems alike — one naming authority instead of one id
/// counter per subsystem.

/// Names the calling thread. Also forwards to pthread_setname_np (truncated
/// to the kernel's 15-char limit) so the name shows up in /proc, debuggers,
/// and Perfetto tracks.
void SetCurrentThreadName(const std::string& name);

/// The name set via SetCurrentThreadName, else the kernel thread name from
/// pthread_getname_np, else "thread". Never empty.
std::string CurrentThreadName();

/// A small stable integer for the calling thread (1, 2, ... in first-use
/// order); the "t4" fallback label for threads that were never named.
uint64_t CurrentThreadSmallId();

namespace internal {

/// The explicitly set name as a NUL-terminated C string, "" when the thread
/// was never named. Points at a fixed-size thread-local buffer, so reading
/// it is async-signal-safe on the owning thread — the crash handler uses
/// this to label the crashing thread without touching std::string.
const char* CurrentThreadNameCStr();

}  // namespace internal

}  // namespace bolton

#endif  // BOLTON_UTIL_THREAD_NAME_H_
