#include "util/atomic_file.hpp"

#include <cstdio>
#include <stdexcept>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#define WEAKKEYS_HAVE_FSYNC 1
#endif

namespace weakkeys::util {

namespace {

/// fsync by descriptor; no-op (true) on platforms without it. Data-only
/// durability is all the crash model needs — the caller's rename supplies
/// the atomicity.
bool fsync_fd([[maybe_unused]] int fd) {
#if defined(WEAKKEYS_HAVE_FSYNC)
  return ::fsync(fd) == 0;
#else
  return true;
#endif
}

/// Flushes a file's data to stable storage by path (open + fsync + close).
bool fsync_path(const std::string& path) {
#if defined(WEAKKEYS_HAVE_FSYNC)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = fsync_fd(fd);
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

}  // namespace

std::string atomic_tmp_path(const std::string& path) { return path + ".tmp"; }

bool fsync_parent_dir(const std::string& path) {
#if defined(WEAKKEYS_HAVE_FSYNC)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = fsync_fd(fd);
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  const std::string tmp = atomic_tmp_path(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot open for write: " + tmp);
  const bool wrote = size == 0 || std::fwrite(data, 1, size, f) == size;
  bool synced = wrote && std::fflush(f) == 0;
#if defined(WEAKKEYS_HAVE_FSYNC)
  synced = synced && fsync_fd(::fileno(f));
#endif
  std::fclose(f);
  if (!wrote || !synced) {
    std::remove(tmp.c_str());
    throw std::runtime_error("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish " + tmp + " -> " + path);
  }
  fsync_parent_dir(path);
}

void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  atomic_write_file(path, bytes.data(), bytes.size());
}

void atomic_write_file(const std::string& path, const std::string& text) {
  atomic_write_file(path, text.data(), text.size());
}

void atomic_publish_file(const std::string& tmp_path,
                         const std::string& path) {
  if (!fsync_path(tmp_path)) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("cannot sync " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("cannot publish " + tmp_path + " -> " + path);
  }
  fsync_parent_dir(path);
}

}  // namespace weakkeys::util
