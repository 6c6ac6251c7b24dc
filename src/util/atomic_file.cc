#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/strings.h"

namespace bolton {

namespace {

Status ErrnoIOError(const std::string& what, const std::string& path) {
  return Status::IOError(StrFormat("%s %s: %s", what.c_str(), path.c_str(),
                                   std::strerror(errno)));
}

std::string ChecksumLine(std::string_view body, uint64_t basis) {
  return StrFormat("checksum %016llx",
                   static_cast<unsigned long long>(Fnv1a(body, basis)));
}

}  // namespace

Status AtomicWriteFile(const std::string& tmp_path, const std::string& path,
                       const std::string& dir, const std::string& content) {
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0600);
  if (fd < 0) return ErrnoIOError("cannot open", tmp_path);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = ErrnoIOError("write failed for", tmp_path);
      ::close(fd);
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status status = ErrnoIOError("fsync failed for", tmp_path);
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) return ErrnoIOError("close failed for", tmp_path);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return ErrnoIOError("rename failed for", path);
  }
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    // Durability of the rename itself; best-effort on filesystems that
    // reject directory fsync.
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound(StrFormat("no such file: %s", path.c_str()));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return ErrnoIOError("cannot open", path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) return ErrnoIOError("read failed for", path);
  return content;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t basis) {
  uint64_t h = basis;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void AppendChecksumTrailer(std::string* content) {
  *content += ChecksumLine(*content, kFnv1aOffsetBasis);
  *content += "\n";
}

Result<std::string_view> VerifyChecksumTrailer(std::string_view content,
                                               uint64_t basis) {
  const size_t checksum_at = content.rfind("\nchecksum ");
  if (checksum_at == std::string_view::npos) {
    return Status::InvalidArgument("missing checksum line");
  }
  const std::string_view body = content.substr(0, checksum_at + 1);
  if (StripWhitespace(content.substr(body.size())) !=
      ChecksumLine(body, basis)) {
    return Status::InvalidArgument(
        "checksum mismatch (corrupt or truncated file)");
  }
  return body;
}

}  // namespace bolton
