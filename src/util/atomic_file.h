#ifndef BOLTON_UTIL_ATOMIC_FILE_H_
#define BOLTON_UTIL_ATOMIC_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace bolton {

/// Crash-safe whole-file replacement: write `content` to `tmp_path`
/// (created 0600), fsync, rename over `path`, then fsync `dir` so the
/// rename itself is durable. After a crash at any point the destination
/// holds either the old contents or the new, never a mix. Shared by the
/// checkpoint writer and the serve budget store.
Status AtomicWriteFile(const std::string& tmp_path, const std::string& path,
                       const std::string& dir, const std::string& content);

/// Reads a whole file into a string. NotFound when the path does not
/// exist (distinguishes "no state yet" from real I/O failures).
Result<std::string> ReadFileToString(const std::string& path);

/// The 64-bit FNV-1a offset basis.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;

/// 64-bit FNV-1a of `bytes`, starting from `basis`.
uint64_t Fnv1a(std::string_view bytes, uint64_t basis = kFnv1aOffsetBasis);

/// The trailer of the checksummed state files (checkpoints, the serve
/// budget): appends "checksum <16 hex digits>\n" carrying the FNV-1a of
/// every byte already in `*content`, which must end in '\n'.
void AppendChecksumTrailer(std::string* content);

/// Checks the trailer AppendChecksumTrailer wrote and returns the body
/// before it (a view into `content`, ending in '\n'). InvalidArgument,
/// naming "checksum", when the trailer is missing or does not match — a
/// corrupt or truncated file. `basis` reads files hashed from another
/// starting value.
Result<std::string_view> VerifyChecksumTrailer(
    std::string_view content, uint64_t basis = kFnv1aOffsetBasis);

}  // namespace bolton

#endif  // BOLTON_UTIL_ATOMIC_FILE_H_
