// The CRC-guarded resume journal for the k rows of a k-subset batch GCD
// (task_set.hpp), written through batchgcd::TaskSet by both the in-process
// path (batch_gcd_distributed) and the multi-process cluster coordinator. One
// on-disk format means a factoring run started under one engine resumes
// cleanly under the other — the journal, not the execution engine, is the
// commit log.
//
// Layout (fixed-width little-endian, see util/binary_io.hpp):
//
//   u32 magic "WKCP" | u32 version | u64 corpus fingerprint | u32 total
//   repeated records: bytes payload | u32 crc32(payload)
//     payload: u32 task | u32 claim-count | {u32 leaf, bytes divisor}*
//
// Version 2: `total` is k and a task is a row (a subset index), whose
// claims are final divisors. A version-1 journal (k^2 (product, subset)
// tasks) does not match the header and is discarded on open.
//
// Every append is flushed, so a record is durable against the process
// dying once append() returns. open() replays the valid committed prefix
// (stopping at the first CRC/framing failure — a torn tail from a crash
// mid-append) and then rewrites the file to exactly that prefix through a
// tmp+rename publish, so a crash during the rewrite itself cannot destroy
// the resume point either.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bn/bigint.hpp"

namespace weakkeys::util {
class BinaryWriter;
}

namespace weakkeys::batchgcd {

/// One nontrivial divisor claimed by a task: `leaf` indexes into the
/// task's subset.
struct TaskClaim {
  std::uint32_t leaf = 0;
  bn::BigInt divisor;
};

/// Identity of (moduli, k) a journal belongs to; FNV-1a over the input
/// bytes. A mismatch on open discards the journal and starts fresh.
std::uint64_t corpus_fingerprint(std::span<const bn::BigInt> moduli,
                                 std::size_t k);

class TaskJournal {
 public:
  TaskJournal();
  ~TaskJournal();
  TaskJournal(const TaskJournal&) = delete;
  TaskJournal& operator=(const TaskJournal&) = delete;

  /// Validates and folds in one replayed record; returns true when the
  /// record was fresh and correct (it is then preserved by the rewrite),
  /// false for duplicates, out-of-range tasks/leaves, or divisors that
  /// fail verification. Must not throw.
  using ApplyFn =
      std::function<bool(std::uint32_t task, std::vector<TaskClaim>&& claims)>;

  /// Opens `path` for a run identified by (fingerprint, total_tasks):
  /// replays the valid committed prefix through `apply`, rewrites the file
  /// to exactly the accepted records, and leaves it open for append().
  /// Returns the number of records accepted by `apply`. Throws
  /// std::runtime_error when the journal cannot be (re)written.
  std::size_t open(const std::string& path, std::uint64_t fingerprint,
                   std::uint32_t total_tasks, const ApplyFn& apply);

  /// Appends one committed task and flushes. No-op when not open.
  void append(std::uint32_t task, const std::vector<TaskClaim>& claims);

  /// Flushes and closes the file; the journal stays on disk as the resume
  /// point. Idempotent.
  void close();

  /// Closes and deletes the journal (the factor cache supersedes it).
  void remove();

  [[nodiscard]] bool is_open() const { return writer_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::unique_ptr<util::BinaryWriter> writer_;
};

}  // namespace weakkeys::batchgcd
