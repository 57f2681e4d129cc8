//===- support/io.h - Checked, crash-safe file I/O -------------------------===//
//
// All on-disk artifacts (models, checkpoints) go through these helpers:
//
//  * writeFileAtomic: write-temp-then-rename, so readers never observe a
//    half-written file and a crash mid-write leaves the previous version
//    intact.
//  * The *Checksummed variants append/verify an 8-byte FNV-1a trailer, so a
//    torn or bit-rotted file is detected at load time (ChecksumMismatch)
//    instead of silently deserializing garbage.
//
// Every helper consults an optional FaultInjector (explicit argument, else
// the process-global one) so tests can inject transient I/O failures; writes
// retry those under a deterministic backoff policy.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_SUPPORT_IO_H
#define SNOWWHITE_SUPPORT_IO_H

#include "support/fault.h"
#include "support/hash.h"
#include "support/result.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace snowwhite {
namespace io {

/// Reads the whole file. Errors: IoError (missing/unreadable), IoTransient
/// (injected).
Result<std::vector<uint8_t>>
readFileBytes(const std::string &Path,
              fault::FaultInjector *Faults = nullptr);

/// Writes Bytes to Path atomically: the content lands in "<Path>.tmp" and is
/// renamed over Path only once fully flushed. Injected transient failures
/// are retried per Policy.
Result<void> writeFileAtomic(const std::string &Path,
                             const std::vector<uint8_t> &Bytes,
                             fault::FaultInjector *Faults = nullptr,
                             const fault::RetryPolicy &Policy = {});

/// writeFileAtomic with an 8-byte FNV-1a checksum trailer appended.
Result<void> writeFileChecksummed(const std::string &Path,
                                  const std::vector<uint8_t> &Bytes,
                                  fault::FaultInjector *Faults = nullptr,
                                  const fault::RetryPolicy &Policy = {});

/// Reads a checksummed file, verifies the trailer, and returns the payload
/// without it. Errors: ChecksumMismatch, Truncated (shorter than a trailer),
/// plus readFileBytes' codes.
Result<std::vector<uint8_t>>
readFileChecksummed(const std::string &Path,
                    fault::FaultInjector *Faults = nullptr);

/// A recorded-oracle file (tests/golden/*.txt): '#' comment lines, one
/// header line naming the recorded run and its totals, then one line per
/// recorded verdict.
struct RecordFile {
  std::string Header;
  std::vector<std::string> Lines;

  /// The file text: Comment (already '#'-prefixed), header, lines.
  std::string text(const std::string &Comment) const;
};

/// Reads a record file; a missing or unreadable file reads as empty.
RecordFile readRecordFile(const std::string &Path);

/// Pull-based byte stream for section-wise decoding. A consumer that only
/// ever asks for "up to N more bytes" never forces the producer to
/// materialize the whole input, so multi-gigabyte modules decode within a
/// bounded window. Every implementation tracks the total bytes handed out
/// and a running FNV-1a hash over them, so streaming consumers get the
/// whole-input hash (equal to hashVector over the same bytes) for free.
class ByteSource {
public:
  virtual ~ByteSource() = default;

  /// Reads up to Max bytes into Buf and returns how many arrived; 0 means
  /// end of stream. Errors: IoError (permanent), IoTransient (injected).
  virtual Result<size_t> readSome(uint8_t *Buf, size_t Max) = 0;

  /// Total bytes handed out so far (the current stream offset).
  uint64_t consumed() const { return Consumed; }

  /// FNV-1a over every byte handed out so far.
  uint64_t runningHash() const { return Hasher.hash(); }

protected:
  /// Implementations call this on every successful readSome to keep the
  /// offset and running hash exact.
  void account(const uint8_t *Data, size_t Size) {
    Consumed += Size;
    Hasher.update(Data, Size);
  }

private:
  uint64_t Consumed = 0;
  Fnv1aHasher Hasher;
};

/// ByteSource over an in-memory buffer (non-owning). ChunkBytes caps how
/// much one readSome call hands out, so tests can force the same refill
/// cadence a small file window would produce.
class MemoryByteSource : public ByteSource {
public:
  explicit MemoryByteSource(const std::vector<uint8_t> &Buffer,
                            size_t Chunk = SIZE_MAX)
      : Bytes(Buffer), ChunkBytes(Chunk ? Chunk : 1) {}

  Result<size_t> readSome(uint8_t *Buf, size_t Max) override;

private:
  const std::vector<uint8_t> &Bytes;
  size_t ChunkBytes;
  size_t Offset = 0;
};

/// ByteSource over a file, reading through a bounded read-ahead window so
/// peak memory is WindowBytes regardless of file size. Each window refill
/// consults the fault injector (explicit argument, else the process-global
/// one), so transient read failures surface exactly where a real device
/// error would.
class FileByteSource : public ByteSource {
public:
  explicit FileByteSource(const std::string &Path,
                          size_t WindowBytes = DefaultWindowBytes,
                          fault::FaultInjector *Faults = nullptr);
  ~FileByteSource() override;

  FileByteSource(const FileByteSource &) = delete;
  FileByteSource &operator=(const FileByteSource &) = delete;

  Result<size_t> readSome(uint8_t *Buf, size_t Max) override;

  static constexpr size_t DefaultWindowBytes = 64 * 1024;

private:
  std::string Path;
  std::FILE *File = nullptr;
  fault::FaultInjector *Faults = nullptr;
  std::vector<uint8_t> Window;
  size_t WindowPos = 0;
  size_t WindowLen = 0;
};

} // namespace io
} // namespace snowwhite

#endif // SNOWWHITE_SUPPORT_IO_H
