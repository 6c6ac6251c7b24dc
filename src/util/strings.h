#ifndef BOLTON_UTIL_STRINGS_H_
#define BOLTON_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace bolton {

/// Splits `text` on `sep`, keeping empty fields. Splitting "" yields {""}.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Parses a double / int with full-token validation (rejects trailing junk).
Result<double> ParseDouble(std::string_view text);
Result<int64_t> ParseInt(std::string_view text);
/// Parses an unsigned decimal over the full uint64 range with full-token
/// validation; rejects any sign, and OutOfRange above 2^64 - 1.
Result<uint64_t> ParseUint64(std::string_view text);

/// The token codec of the space-separated state files (checkpoints, the
/// serve budget): "-" stands for the empty string and embedded whitespace
/// becomes '_', so a token never splits. DecodeToken inverts it for every
/// string without whitespace.
std::string EncodeToken(std::string_view s);
std::string DecodeToken(std::string_view token);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes `s` for embedding inside a double-quoted JSON string. Lives in
/// util (not obs) so the structured-log JSONL sink can use it too.
std::string JsonEscape(const std::string& s);

}  // namespace bolton

#endif  // BOLTON_UTIL_STRINGS_H_
