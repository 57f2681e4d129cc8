//===- support/io.h - Checked, crash-safe file I/O -------------------------===//
//
// All on-disk artifacts (model files, trainer checkpoints, the ingest journal,
// cache snapshots) go through these helpers:
//
//  * ByteWriter / ByteReader: the one record codec every artifact encodes
//    with — fixed-width little-endian integers, raw float arrays, and
//    u64-length-prefixed byte strings, read through a bounds-checked cursor
//    that never reads past the end of its span.
//  * writeFileAtomic: write-temp-then-rename, so readers never observe a
//    half-written file and a crash mid-write leaves the previous version
//    intact.
//  * The *Checksummed variants append/verify an 8-byte FNV-1a trailer, so a
//    torn or bit-rotted file is detected at load time (ChecksumMismatch)
//    instead of silently deserializing garbage.
//
// Every file helper consults an optional FaultInjector (explicit argument,
// else the process-global one) so tests can inject transient I/O failures;
// writes retry those under a deterministic backoff policy.
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
#include <string_view>
#include <vector>

namespace snowwhite {
namespace io {

static_assert(sizeof(float) == 4, "the codec writes 4-byte floats");

/// Appends records to a caller's buffer: integers little-endian at their
/// fixed width, floats as their raw 4-byte host images (every supported
/// host is little-endian), byte strings behind a u64 length.
class ByteWriter {
public:
  explicit ByteWriter(std::vector<uint8_t> &Buffer) : Out(Buffer) {}

  void putU8(uint8_t Value) { putFixed(Value); }
  void putU32(uint32_t Value) { putFixed(Value); }
  void putU64(uint64_t Value) { putFixed(Value); }
  /// Values.size() floats, no length prefix (the reader knows the count).
  void putFloats(const std::vector<float> &Values);
  /// u64 byte count, then the bytes.
  void putBytes(std::string_view Bytes);

private:
  template <typename T> void putFixed(T Value) {
    for (size_t I = 0; I < sizeof(T); ++I)
      Out.push_back(static_cast<uint8_t>(Value >> (8 * I)));
  }

  std::vector<uint8_t> &Out;
};

/// Reads ByteWriter's records from a (data, size) span. A read that does
/// not fit in the remaining bytes fails and leaves the cursor where it was.
class ByteReader {
public:
  ByteReader(const uint8_t *Bytes, size_t NumBytes)
      : Data(Bytes), Size(NumBytes) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  bool readU8(uint8_t &Value) { return readFixed(Value); }
  bool readU32(uint32_t &Value) { return readFixed(Value); }
  bool readU64(uint64_t &Value) { return readFixed(Value); }
  /// Fills all of Values (its size is the count to read).
  bool readFloats(std::vector<float> &Values);
  /// A u64 length, then that many bytes. Errors: Truncated (length field
  /// or field cut short), LimitExceeded (length over Cap, checked before
  /// the overrun so a hostile length never sizes an allocation).
  Result<void> readBytes(std::string &Out, uint64_t Cap);
  /// Advances N bytes; fails without moving if fewer remain.
  bool skip(size_t N) {
    if (remaining() < N)
      return false;
    Pos += N;
    return true;
  }

  /// The next unread byte.
  const uint8_t *cursor() const { return Data + Pos; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

private:
  template <typename T> bool readFixed(T &Value) {
    if (remaining() < sizeof(T))
      return false;
    uint64_t Wide = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      Wide |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Value = static_cast<T>(Wide);
    Pos += sizeof(T);
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

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
