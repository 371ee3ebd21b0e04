#pragma once

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "util/error.hpp"

namespace ftio::util {

/// Reads an entire text file; throws ParseError when it cannot be opened.
inline std::string read_text_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open file: " + path.string());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Writes (truncates) a text file. Throws IoError when the file cannot be
/// opened or the write/close fails (e.g. ENOSPC) — stream state is checked
/// after the write and after close, not just at open. Not atomic: a crash
/// mid-write leaves a truncated file; use write_file_atomic for anything
/// that must never be observed half-written.
inline void write_text_file(const std::filesystem::path& path,
                            const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open file for writing: " + path.string());
  out << content;
  if (!out) throw IoError("short write: " + path.string());
  out.close();
  if (out.fail()) throw IoError("close failed: " + path.string());
}

/// Reads an entire binary file.
inline std::vector<std::uint8_t> read_binary_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open file: " + path.string());
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

/// Writes (truncates) a binary file; same error contract (and the same
/// non-atomicity caveat) as write_text_file.
inline void write_binary_file(const std::filesystem::path& path,
                              const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open file for writing: " + path.string());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw IoError("short write: " + path.string());
  out.close();
  if (out.fail()) throw IoError("close failed: " + path.string());
}

namespace file_detail {

/// RAII fd so error paths cannot leak descriptors.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] int get() const { return fd_; }
  /// Close explicitly so the result can be checked (a deferred close may
  /// surface the actual write error on some filesystems).
  int close_checked() {
    int rc = ::close(fd_);
    fd_ = -1;
    return rc;
  }

 private:
  int fd_;
};

[[noreturn]] inline void fail(const std::string& what,
                              const std::filesystem::path& path) {
  throw IoError(what + ": " + path.string() + ": " + std::strerror(errno));
}

inline void write_all(int fd, const std::uint8_t* data, std::size_t size,
                      const std::filesystem::path& path) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed", path);
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// fsync the directory containing `path` so a just-renamed entry is
/// durable (POSIX: rename atomicity is only crash-safe once the parent
/// directory itself reaches the disk).
inline void fsync_parent_dir(const std::filesystem::path& path) {
  std::filesystem::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
  if (fd.get() < 0) fail("cannot open directory", dir);
  if (::fsync(fd.get()) != 0) fail("directory fsync failed", dir);
}

}  // namespace file_detail

/// Atomically replaces `path` with content written in pieces: write to
/// `path.tmp`, fsync the file, rename over `path`, fsync the parent
/// directory. `produce(append)` is called once; every
/// `append(std::span<const std::uint8_t>)` goes straight to the temp file,
/// so the content never has to exist in memory as a whole. Readers either
/// see the old complete file or the new complete file — never a torn mix —
/// and on return the new content has been pushed to stable storage. Throws
/// IoError on any failure, and lets an exception from `produce` through; a
/// failed attempt leaves `path` untouched (a stale `.tmp` may remain and is
/// safe to overwrite or delete).
template <typename Produce>
void write_file_atomic_streamed(const std::filesystem::path& path,
                                Produce&& produce) {
  namespace fd = file_detail;
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  fd::Fd out(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  if (out.get() < 0) fd::fail("cannot open temp file", tmp);
  produce([&](std::span<const std::uint8_t> chunk) {
    fd::write_all(out.get(), chunk.data(), chunk.size(), tmp);
  });
  if (::fsync(out.get()) != 0) fd::fail("fsync failed", tmp);
  if (out.close_checked() != 0) fd::fail("close failed", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fd::fail("rename failed", tmp);
  fd::fsync_parent_dir(path);
}

/// Atomically replaces `path` with `bytes`: the one-chunk case of
/// write_file_atomic_streamed, with the same guarantees.
inline void write_file_atomic(const std::filesystem::path& path,
                              std::span<const std::uint8_t> bytes) {
  write_file_atomic_streamed(path, [&](auto&& append) { append(bytes); });
}

/// Text overload of write_file_atomic.
inline void write_file_atomic(const std::filesystem::path& path,
                              const std::string& content) {
  write_file_atomic(
      path, std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(content.data()),
                content.size()));
}

}  // namespace ftio::util
