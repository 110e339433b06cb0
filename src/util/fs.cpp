#include "util/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>

namespace clear::util {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in), {});
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, std::uint64_t offset, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    offset += static_cast<std::uint64_t>(r);
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_file_atomic(const std::string& path,
                       const std::function<bool(int fd)>& fill,
                       std::string* error) {
  // rename() would replace a FIFO or device node with a regular file (and,
  // run as root, clobber /dev/null): refuse up front.
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    if (error) *error = "refusing to replace " + path + ": not a regular file";
    return false;
  }
  // Every step is checked; the first failure and its errno are reported.
  const char* failed = nullptr;
  int err = 0;
  const auto check = [&](bool ok, const char* step) {
    if (!ok && failed == nullptr) {
      failed = step;
      err = errno;
    }
    return failed == nullptr;
  };
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (check(fd >= 0, "create tmp file")) {
    if (check(fill(fd), "write")) check(::fsync(fd) == 0, "fsync");
    check(::close(fd) == 0, "close");
    if (failed == nullptr) {
      check(::rename(tmp.c_str(), path.c_str()) == 0, "rename");
    }
    if (failed != nullptr) (void)::unlink(tmp.c_str());  // best effort
  }
  if (failed == nullptr) {
    // The rename is durable only once the directory entry is.
    const std::string dir = std::filesystem::path(path).parent_path().string();
    const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (check(dfd >= 0, "open parent directory")) {
      check(::fsync(dfd) == 0, "fsync parent directory");
      check(::close(dfd) == 0, "close parent directory");
    }
  }
  if (failed != nullptr && error != nullptr) {
    *error = "cannot write " + path + ": " + failed + ": " + std::strerror(err);
  }
  return failed == nullptr;
}

}  // namespace clear::util
