// Crash-safe file publication: tmp + fsync + rename + parent fsync.
//
// A process killed mid-write must never leave a half-written cache,
// checkpoint, or report where a complete one is expected. Writers either
// build the bytes in memory and call atomic_write_file(), or stream into
// "<path>.tmp" themselves and call atomic_publish_file() — both fsync the
// temporary and rename() it over the destination, so the final path only
// ever holds a complete file (rename within a filesystem is atomic on
// POSIX). After the rename both publishers fsync the destination's parent
// directory: rename() alone only updates the directory in memory, so a
// power loss immediately after publication could lose the *entry* while
// keeping the (synced) data — the classic rename-durability gap. The CRC
// footers on the cache formats remain the second line of defense against
// torn writes on filesystems without those guarantees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace weakkeys::util {

/// The temporary sibling a path is staged through ("<path>.tmp"). The
/// kill/resume tests assert no orphans with this suffix survive a resumed
/// run, so every atomic writer must stage through exactly this name.
std::string atomic_tmp_path(const std::string& path);

/// Writes `size` bytes to `path` atomically (tmp + fsync + rename).
/// Throws std::runtime_error on I/O failure; the temporary is removed on
/// any failure path.
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size);
void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);
void atomic_write_file(const std::string& path, const std::string& text);

/// Publishes an already-written temporary over its destination: fsyncs
/// `tmp_path`, rename()s it to `path`, then fsyncs the parent directory so
/// the new entry itself is durable. For writers that stream large payloads
/// straight to disk (the corpus cache) instead of buffering.
void atomic_publish_file(const std::string& tmp_path, const std::string& path);

/// Fsyncs the directory containing `path` (open(O_RDONLY) on the parent +
/// fsync + close), making a just-renamed entry durable. Returns false when
/// the parent cannot be opened or synced; publishers treat that as
/// best-effort (the rename already happened — atomicity is intact, only
/// the durability of the entry is weakened) because some filesystems
/// refuse fsync on directories.
bool fsync_parent_dir(const std::string& path);

}  // namespace weakkeys::util
