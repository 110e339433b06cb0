// Filesystem helpers: directory creation and the one atomic-file writer.
#ifndef CLEAR_UTIL_FS_H
#define CLEAR_UTIL_FS_H

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>

namespace clear::util {

// Creates `path` (and parents) if missing; returns true iff the directory
// exists afterwards.  Unlike a bare create_directories() this is safe
// against the create/create race: when two processes (or pool workers)
// race through the exists-check and one mkdir loses with EEXIST, the loser
// re-checks instead of failing -- both callers see success as long as a
// directory ends up in place.
inline bool ensure_dir(const std::string& path) {
  if (path.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  // EEXIST (or any transient error another creator can cause) is benign
  // iff the directory is there now; re-stat rather than trusting ec.
  std::error_code ignored;
  return std::filesystem::is_directory(path, ignored);
}

// Reads the whole file at `path` into *out; false when it cannot be opened.
bool read_file(const std::string& path, std::string* out);

// EINTR-safe full-length write / positional read; false on any error
// (or EOF for reads) with errno as the failing call left it.
bool write_all(int fd, const void* buf, std::size_t n);
bool read_all(int fd, std::uint64_t offset, void* buf, std::size_t n);

// The one way src/ replaces a file: write `path + ".tmp"`, fsync and
// close it, rename it over `path`, fsync the parent directory.  After a
// crash `path` holds its old bytes or all of the new ones; true means the
// new bytes are durable.  Every step is checked: on failure the tmp file
// is removed, `path` keeps its old bytes (unless only the final directory
// fsync failed) and *error (when non-null) names the path and the step.
// A destination that exists and is not a regular file (FIFO, device,
// directory) is refused untouched.  `fill` writes the content to the tmp
// file's descriptor (false abandons): the streaming form lets cache-pack
// compaction copy records without buffering the whole pack.
bool write_file_atomic(const std::string& path,
                       const std::function<bool(int fd)>& fill,
                       std::string* error = nullptr);
inline bool write_file_atomic(const std::string& path, std::string_view bytes,
                              std::string* error = nullptr) {
  const auto fill = [bytes](int fd) {
    return write_all(fd, bytes.data(), bytes.size());
  };
  return write_file_atomic(path, fill, error);
}

}  // namespace clear::util

#endif  // CLEAR_UTIL_FS_H
