#include "dataset/journal.h"

#include "support/hash.h"
#include "support/io.h"

#include <array>
#include <cstdio>

namespace snowwhite {
namespace dataset {
namespace journal {

const char *fileOutcomeName(FileOutcome Outcome) {
  switch (Outcome) {
  case FileOutcome::Kept:
    return "kept";
  case FileOutcome::QuarantinedParse:
    return "quarantined-parse";
  case FileOutcome::QuarantinedWatchdog:
    return "quarantined-watchdog";
  case FileOutcome::DuplicateExact:
    return "duplicate-exact";
  case FileOutcome::DuplicateNear:
    return "duplicate-near";
  }
  return "invalid-outcome";
}

// Layout, in io::ByteWriter records (strings are u64-length-prefixed):
//
//   Magic "SWJL"  Version:u32  ConfigDigest:u64  NumRecords:u64
//   per record: RelPath  Outcome:u8  Code:u8  Stage  Message
//               ExactHash  ApproxHash  Bytes  Functions  Instructions (u64)
//   DedupSnapshot: its seven fields as u64, in declaration order
//
// saveJournal appends writeFileChecksummed's FNV-1a trailer.

namespace {

constexpr uint32_t Magic = 0x4c4a5753; // "SWJL" little-endian.
/// The highest error code a record may carry; anything above is a corrupted
/// (or future) taxonomy, rejected rather than cast blindly.
constexpr uint8_t MaxErrorCode = static_cast<uint8_t>(ErrorCode::Timeout);
constexpr uint8_t MaxOutcome =
    static_cast<uint8_t>(FileOutcome::DuplicateNear);
/// Serialized strings are paths and error messages; anything longer than
/// this is a corrupted length field, not a message.
constexpr uint64_t MaxStringBytes = 1u << 20;

/// The snapshot's fields in file order.
std::array<uint64_t *, 7> snapshotFields(DedupSnapshot &Snap) {
  return {&Snap.KeptFiles, &Snap.ExactDuplicates, &Snap.NearDuplicates,
          &Snap.ParseQuarantines, &Snap.WatchdogQuarantines,
          &Snap.ExactSetDigest, &Snap.ApproxSetDigest};
}

} // namespace

DedupSnapshot IngestJournal::snapshot() const {
  DedupSnapshot Snap;
  for (const FileRecord &Rec : Records) {
    switch (Rec.Outcome) {
    case FileOutcome::Kept:
      ++Snap.KeptFiles;
      Snap.ExactSetDigest = hashCombine(Snap.ExactSetDigest, Rec.ExactHash);
      Snap.ApproxSetDigest =
          hashCombine(Snap.ApproxSetDigest, Rec.ApproxHash);
      break;
    case FileOutcome::QuarantinedParse:
      ++Snap.ParseQuarantines;
      break;
    case FileOutcome::QuarantinedWatchdog:
      ++Snap.WatchdogQuarantines;
      break;
    case FileOutcome::DuplicateExact:
      ++Snap.ExactDuplicates;
      break;
    case FileOutcome::DuplicateNear:
      ++Snap.NearDuplicates;
      break;
    }
  }
  return Snap;
}

std::vector<uint8_t> IngestJournal::serialize() const {
  std::vector<uint8_t> Out;
  io::ByteWriter W(Out);
  W.putU32(Magic);
  W.putU32(JournalVersion);
  W.putU64(ConfigDigest);
  W.putU64(Records.size());
  for (const FileRecord &Rec : Records) {
    W.putBytes(Rec.RelPath);
    W.putU8(static_cast<uint8_t>(Rec.Outcome));
    W.putU8(static_cast<uint8_t>(Rec.Code));
    W.putBytes(Rec.Stage);
    W.putBytes(Rec.Message);
    W.putU64(Rec.ExactHash);
    W.putU64(Rec.ApproxHash);
    W.putU64(Rec.Bytes);
    W.putU64(Rec.Functions);
    W.putU64(Rec.Instructions);
  }
  DedupSnapshot Snap = snapshot();
  for (uint64_t *Field : snapshotFields(Snap))
    W.putU64(*Field);
  return Out;
}

Result<IngestJournal>
IngestJournal::deserialize(const std::vector<uint8_t> &Bytes) {
  io::ByteReader R(Bytes);
  uint32_t FileMagic;
  if (!R.readU32(FileMagic) || FileMagic != Magic)
    return Error(ErrorCode::Malformed, "journal: bad magic");
  uint32_t Version;
  if (!R.readU32(Version))
    return Error(ErrorCode::Truncated, "journal: truncated header");
  if (Version != JournalVersion)
    return Error(ErrorCode::Unsupported,
                 "journal: version " + std::to_string(Version) +
                     " unsupported (expected " +
                     std::to_string(JournalVersion) + ")");
  IngestJournal J;
  uint64_t NumRecords;
  if (!R.readU64(J.ConfigDigest) || !R.readU64(NumRecords))
    return Error(ErrorCode::Truncated, "journal: truncated header");
  // Every record costs well over one byte; a count past the remaining bytes
  // is a hostile or corrupted header, not a record list.
  if (NumRecords > R.remaining())
    return Error(ErrorCode::Malformed,
                 "journal: record count " + std::to_string(NumRecords) +
                     " exceeds remaining bytes");
  J.Records.reserve(static_cast<size_t>(NumRecords));
  auto ReadString = [&](std::string &Text) {
    return R.readBytes(Text, MaxStringBytes).isOk();
  };
  for (uint64_t I = 0; I < NumRecords; ++I) {
    std::string Where = "journal: record " + std::to_string(I) + ": ";
    FileRecord Rec;
    uint8_t Outcome, Code;
    if (!ReadString(Rec.RelPath) || !R.readU8(Outcome) || !R.readU8(Code) ||
        !ReadString(Rec.Stage) || !ReadString(Rec.Message) ||
        !R.readU64(Rec.ExactHash) || !R.readU64(Rec.ApproxHash) ||
        !R.readU64(Rec.Bytes) || !R.readU64(Rec.Functions) ||
        !R.readU64(Rec.Instructions))
      return Error(ErrorCode::Truncated, Where + "truncated");
    if (Outcome > MaxOutcome)
      return Error(ErrorCode::Malformed, Where + "invalid outcome");
    if (Code > MaxErrorCode)
      return Error(ErrorCode::Malformed, Where + "invalid error code");
    Rec.Outcome = static_cast<FileOutcome>(Outcome);
    Rec.Code = static_cast<ErrorCode>(Code);
    J.Records.push_back(std::move(Rec));
  }
  DedupSnapshot Stored;
  for (uint64_t *Field : snapshotFields(Stored))
    if (!R.readU64(*Field))
      return Error(ErrorCode::Truncated, "journal: truncated dedup snapshot");
  if (!R.atEnd())
    return Error(ErrorCode::Malformed, "journal: trailing bytes");
  if (J.snapshot() != Stored)
    return Error(ErrorCode::Malformed,
                 "journal: dedup snapshot disagrees with its records");
  return J;
}

Result<void> saveJournal(const std::string &Path, const IngestJournal &J,
                         fault::FaultInjector *Faults) {
  return io::writeFileChecksummed(Path, J.serialize(), Faults)
      .withContext("journal '" + Path + "'");
}

Result<IngestJournal> loadJournal(const std::string &Path,
                                  fault::FaultInjector *Faults) {
  Result<std::vector<uint8_t>> Bytes = io::readFileChecksummed(Path, Faults);
  if (Bytes.isErr())
    return Bytes.error();
  return IngestJournal::deserialize(*Bytes).withContext("journal '" + Path +
                                                        "'");
}

std::string quarantineJournal(const std::string &Path) {
  std::string Target = Path + ".quarantined";
  if (std::rename(Path.c_str(), Target.c_str()) != 0)
    return {};
  return Target;
}

} // namespace journal
} // namespace dataset
} // namespace snowwhite
