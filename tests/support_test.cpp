//===- tests/support_test.cpp - Support library unit tests -----------------===//

#include "dataset/journal.h"
#include "model/serve_daemon.h"
#include "nn/seq2seq.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/leb128.h"
#include "support/rng.h"
#include "support/str.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <set>

namespace snowwhite {
namespace {

// --- LEB128 -----------------------------------------------------------------

class ULeb128Roundtrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ULeb128Roundtrip, EncodesAndDecodes) {
  uint64_t Value = GetParam();
  std::vector<uint8_t> Buffer;
  encodeULEB128(Value, Buffer);
  EXPECT_EQ(Buffer.size(), encodedULEB128Size(Value));
  size_t Offset = 0;
  uint64_t Decoded = 0;
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, Decoded));
  EXPECT_EQ(Decoded, Value);
  EXPECT_EQ(Offset, Buffer.size());
}

INSTANTIATE_TEST_SUITE_P(
    Values, ULeb128Roundtrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 300ULL, 16383ULL,
                      16384ULL, 65535ULL, 65536ULL, 1ULL << 32,
                      (1ULL << 56) + 12345, UINT64_MAX));

class SLeb128Roundtrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(SLeb128Roundtrip, EncodesAndDecodes) {
  int64_t Value = GetParam();
  std::vector<uint8_t> Buffer;
  encodeSLEB128(Value, Buffer);
  EXPECT_EQ(Buffer.size(), encodedSLEB128Size(Value));
  size_t Offset = 0;
  int64_t Decoded = 0;
  ASSERT_TRUE(decodeSLEB128(Buffer, Offset, Decoded));
  EXPECT_EQ(Decoded, Value);
  EXPECT_EQ(Offset, Buffer.size());
}

INSTANTIATE_TEST_SUITE_P(
    Values, SLeb128Roundtrip,
    ::testing::Values(0LL, 1LL, -1LL, 63LL, 64LL, -64LL, -65LL, 127LL, 128LL,
                      -128LL, 8191LL, -8192LL, INT32_MAX, INT32_MIN, INT64_MAX,
                      INT64_MIN));

TEST(Leb128, SingleByteBoundary) {
  std::vector<uint8_t> Buffer;
  encodeULEB128(127, Buffer);
  EXPECT_EQ(Buffer.size(), 1u);
  Buffer.clear();
  encodeULEB128(128, Buffer);
  EXPECT_EQ(Buffer.size(), 2u);
}

TEST(Leb128, DecodeTruncatedFails) {
  std::vector<uint8_t> Buffer = {0x80}; // Continuation bit, nothing follows.
  size_t Offset = 0;
  uint64_t Value;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));
}

TEST(Leb128, DecodeEmptyFails) {
  std::vector<uint8_t> Buffer;
  size_t Offset = 0;
  uint64_t UValue;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, UValue));
  int64_t SValue;
  EXPECT_FALSE(decodeSLEB128(Buffer, Offset, SValue));
}

TEST(Leb128, DecodeOverlongFails) {
  // Eleven continuation bytes exceed the 64-bit range.
  std::vector<uint8_t> Buffer(11, 0x80);
  Buffer.push_back(0x01);
  size_t Offset = 0;
  uint64_t Value;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));
}

// Property: encode/decode round-trips exactly, for boundary values and a
// random sweep of the full 64-bit range.
TEST(Leb128, PropertyRoundtripBoundaries) {
  const uint64_t UValues[] = {0,
                              1,
                              0x7f,
                              0x80,
                              uint64_t(INT32_MAX),
                              uint64_t(INT32_MAX) + 1,
                              uint64_t(UINT32_MAX),
                              uint64_t(INT64_MAX),
                              uint64_t(INT64_MAX) + 1,
                              UINT64_MAX};
  for (uint64_t Value : UValues) {
    std::vector<uint8_t> Buffer;
    encodeULEB128(Value, Buffer);
    size_t Offset = 0;
    uint64_t Decoded = 0;
    ASSERT_TRUE(decodeULEB128(Buffer, Offset, Decoded)) << Value;
    EXPECT_EQ(Decoded, Value);
    EXPECT_EQ(Offset, Buffer.size());
  }
  const int64_t SValues[] = {0,         1,         -1,        INT32_MAX,
                             INT32_MIN, int64_t(INT32_MAX) + 1,
                             int64_t(INT32_MIN) - 1,          INT64_MAX,
                             INT64_MIN, INT64_MIN + 1};
  for (int64_t Value : SValues) {
    std::vector<uint8_t> Buffer;
    encodeSLEB128(Value, Buffer);
    size_t Offset = 0;
    int64_t Decoded = 0;
    ASSERT_TRUE(decodeSLEB128(Buffer, Offset, Decoded)) << Value;
    EXPECT_EQ(Decoded, Value);
    EXPECT_EQ(Offset, Buffer.size());
  }
}

TEST(Leb128, PropertyRoundtripRandom) {
  Rng R(20260805);
  for (int I = 0; I < 5000; ++I) {
    // Mix full-range and small-magnitude values so every encoded length is
    // exercised.
    uint64_t Raw = R.next() >> (R.next() % 64);
    std::vector<uint8_t> Buffer;
    encodeULEB128(Raw, Buffer);
    size_t Offset = 0;
    uint64_t UDecoded = 0;
    ASSERT_TRUE(decodeULEB128(Buffer, Offset, UDecoded));
    EXPECT_EQ(UDecoded, Raw);
    EXPECT_EQ(Offset, Buffer.size());

    int64_t Signed = static_cast<int64_t>(Raw);
    if (R.next() & 1)
      Signed = -Signed;
    Buffer.clear();
    encodeSLEB128(Signed, Buffer);
    Offset = 0;
    int64_t SDecoded = 0;
    ASSERT_TRUE(decodeSLEB128(Buffer, Offset, SDecoded));
    EXPECT_EQ(SDecoded, Signed);
    EXPECT_EQ(Offset, Buffer.size());
  }
}

TEST(Leb128, MaxShiftEncodings) {
  // UINT64_MAX is the largest 10-byte ULEB: nine 0xff groups and a final 0x01.
  std::vector<uint8_t> Buffer(9, 0xff);
  Buffer.push_back(0x01);
  size_t Offset = 0;
  uint64_t Value = 0;
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, Value));
  EXPECT_EQ(Value, UINT64_MAX);

  // INT64_MIN: nine 0x80 groups and a final sign-only 0x7f.
  Buffer.assign(9, 0x80);
  Buffer.push_back(0x7f);
  Offset = 0;
  int64_t SValue = 0;
  ASSERT_TRUE(decodeSLEB128(Buffer, Offset, SValue));
  EXPECT_EQ(SValue, INT64_MIN);
}

TEST(Leb128, RejectsOverlongTenthByte) {
  // A tenth ULEB byte with any payload beyond bit 0 would shift data past
  // bit 63; previously those bits were silently dropped.
  std::vector<uint8_t> Buffer(9, 0x80);
  Buffer.push_back(0x02);
  size_t Offset = 0;
  uint64_t Value = 0;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));

  Buffer.assign(9, 0xff);
  Buffer.push_back(0x7f); // Bits 64..69 claimed set: out of range.
  Offset = 0;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));

  // A tenth SLEB byte must restate the sign extension exactly (0x00/0x7f).
  Buffer.assign(9, 0x80);
  Buffer.push_back(0x01);
  Offset = 0;
  int64_t SValue = 0;
  EXPECT_FALSE(decodeSLEB128(Buffer, Offset, SValue));

  Buffer.assign(9, 0x80);
  Buffer.push_back(0x3f);
  Offset = 0;
  EXPECT_FALSE(decodeSLEB128(Buffer, Offset, SValue));

  // Continuation out of the tenth byte (an eleventh group) is also rejected.
  Buffer.assign(10, 0x80);
  Buffer.push_back(0x00);
  Offset = 0;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));
  Offset = 0;
  EXPECT_FALSE(decodeSLEB128(Buffer, Offset, SValue));
}

TEST(Leb128, AcceptsNonCanonicalPadding) {
  // DWARF producers pad with continuation bytes; short padded forms are
  // lossless and stay accepted.
  std::vector<uint8_t> Buffer = {0x80, 0x00};
  size_t Offset = 0;
  uint64_t Value = 1;
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, Value));
  EXPECT_EQ(Value, 0u);
  EXPECT_EQ(Offset, 2u);

  Buffer = {0xff, 0x7f}; // Padded -1.
  Offset = 0;
  int64_t SValue = 0;
  ASSERT_TRUE(decodeSLEB128(Buffer, Offset, SValue));
  EXPECT_EQ(SValue, -1);
}

TEST(Leb128, SequentialDecodes) {
  std::vector<uint8_t> Buffer;
  encodeULEB128(5, Buffer);
  encodeULEB128(300, Buffer);
  encodeSLEB128(-42, Buffer);
  size_t Offset = 0;
  uint64_t A, B;
  int64_t C;
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, A));
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, B));
  ASSERT_TRUE(decodeSLEB128(Buffer, Offset, C));
  EXPECT_EQ(A, 5u);
  EXPECT_EQ(B, 300u);
  EXPECT_EQ(C, -42);
  EXPECT_EQ(Offset, Buffer.size());
}

// --- RNG ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng A(99), B(99);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Matches = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Matches;
  EXPECT_LT(Matches, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneIsZero) {
  Rng R(7);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I < 2000; ++I) {
    int64_t Value = R.nextInRange(-3, 3);
    EXPECT_GE(Value, -3);
    EXPECT_LE(Value, 3);
    Seen.insert(Value);
  }
  EXPECT_EQ(Seen.size(), 7u); // All values realized.
}

TEST(Rng, DoubleInUnitInterval) {
  Rng R(11);
  double Sum = 0.0;
  for (int I = 0; I < 10000; ++I) {
    double Value = R.nextDouble();
    ASSERT_GE(Value, 0.0);
    ASSERT_LT(Value, 1.0);
    Sum += Value;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng R(13);
  double Sum = 0.0, SumSquares = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double Value = R.nextGaussian();
    Sum += Value;
    SumSquares += Value * Value;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.05);
  EXPECT_NEAR(SumSquares / N, 1.0, 0.05);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng R(17);
  std::vector<double> Weights = {0.0, 1.0, 3.0};
  int Counts[3] = {0, 0, 0};
  for (int I = 0; I < 10000; ++I)
    ++Counts[R.nextWeighted(Weights)];
  EXPECT_EQ(Counts[0], 0);
  EXPECT_NEAR(static_cast<double>(Counts[2]) / Counts[1], 3.0, 0.4);
}

TEST(Rng, ShufflePreservesElements) {
  Rng R(23);
  std::vector<int> Items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Original = Items;
  R.shuffle(Items);
  std::sort(Items.begin(), Items.end());
  EXPECT_EQ(Items, Original);
}

TEST(Rng, ForkIndependent) {
  Rng A(5);
  Rng B = A.fork();
  // The fork and parent produce different streams.
  EXPECT_NE(A.next(), B.next());
}

// --- Hashing ------------------------------------------------------------------

TEST(Hash, StableKnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(hashBytes(nullptr, 0), 0xcbf29ce484222325ULL);
}

TEST(Hash, DiffersOnContent) {
  EXPECT_NE(hashString("hello"), hashString("hellp"));
  EXPECT_NE(hashString("ab"), hashString("ba"));
}

TEST(Hash, CombineOrderSensitive) {
  uint64_t A = hashCombine(hashCombine(1, 2), 3);
  uint64_t B = hashCombine(hashCombine(1, 3), 2);
  EXPECT_NE(A, B);
}

TEST(Hash, HexFormat) {
  EXPECT_EQ(hashToHex(0), "0000000000000000");
  EXPECT_EQ(hashToHex(0xdeadbeefULL), "00000000deadbeef");
}

// Regression (issue 6): a 64-bit hash match alone must never classify a
// *different* key as a duplicate. Before the collision-safe dedup, the
// pipeline kept bare uint64 sets, so the forced collision below would have
// been reported as Duplicate and the second module silently dropped.
TEST(Hash, SignatureSetDetectsForcedCollision) {
  SignatureSet Set;
  EXPECT_EQ(Set.insert(42, "module-a"), SignatureSet::Insert::New);
  EXPECT_EQ(Set.insert(42, "module-b"), SignatureSet::Insert::Collision);
  EXPECT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set.collisions(), 1u);
  // Both colliding keys are retained as distinct members.
  EXPECT_TRUE(Set.contains(42, "module-a"));
  EXPECT_TRUE(Set.contains(42, "module-b"));
  // Only a byte-identical key is a duplicate.
  EXPECT_EQ(Set.insert(42, "module-a"), SignatureSet::Insert::Duplicate);
  EXPECT_EQ(Set.insert(42, "module-b"), SignatureSet::Insert::Duplicate);
  EXPECT_EQ(Set.size(), 2u);
}

TEST(Hash, SignatureSetBasics) {
  SignatureSet Set;
  EXPECT_FALSE(Set.contains(7, "x"));
  EXPECT_EQ(Set.insert(7, "x"), SignatureSet::Insert::New);
  EXPECT_EQ(Set.insert(8, "x"), SignatureSet::Insert::New); // Same key, new
                                                            // hash: distinct.
  EXPECT_EQ(Set.insert(7, "x"), SignatureSet::Insert::Duplicate);
  EXPECT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set.collisions(), 0u);
}

// --- Strings -------------------------------------------------------------------

TEST(Str, SplitKeepsEmptyFields) {
  std::vector<std::string> Parts = splitString("a,,b", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[1], "");
}

TEST(Str, SplitWhitespaceDropsEmpty) {
  std::vector<std::string> Parts = splitWhitespace("  foo\t bar\nbaz  ");
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "foo");
  EXPECT_EQ(Parts[2], "baz");
}

TEST(Str, JoinRoundtrip) {
  std::vector<std::string> Parts = {"pointer", "const", "struct"};
  EXPECT_EQ(joinStrings(Parts, " "), "pointer const struct");
  EXPECT_EQ(splitWhitespace(joinStrings(Parts, " ")), Parts);
}

TEST(Str, Trim) {
  EXPECT_EQ(trimString("  x  "), "x");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(Str, FormatPercent) {
  EXPECT_EQ(formatPercent(0.445, 1), "44.5%");
  EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(Str, FormatWithCommas) {
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(1000), "1,000");
  EXPECT_EQ(formatWithCommas(1307617), "1,307,617");
}

TEST(Str, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcde", 4), "abcde");
}

// --- Record codec (io::ByteWriter / io::ByteReader) --------------------------

/// One record of every shape the codec writes.
std::vector<uint8_t> everyShape() {
  std::vector<uint8_t> Out;
  io::ByteWriter W(Out);
  W.putU8(0xa5);
  W.putU32(0x01020304u);
  W.putU64(0x1122334455667788ULL);
  W.putFloats({1.5f, -0.0f, 3.25e-7f});
  W.putBytes("hello");
  W.putBytes("");
  return Out;
}

TEST(ByteCodec, WritesLittleEndianFixedWidths) {
  std::vector<uint8_t> Out = everyShape();
  ASSERT_EQ(Out.size(), 1u + 4 + 8 + 12 + 8 + 5 + 8);
  EXPECT_EQ(Out[0], 0xa5);
  EXPECT_EQ(std::vector<uint8_t>(Out.begin() + 1, Out.begin() + 5),
            (std::vector<uint8_t>{0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(Out[5], 0x88);
  EXPECT_EQ(Out[12], 0x11);
  EXPECT_EQ(Out[25], 5u); // Length prefix of "hello".
}

TEST(ByteCodec, RoundTripsEveryShape) {
  std::vector<uint8_t> Bytes = everyShape();
  io::ByteReader R(Bytes);
  uint8_t U8 = 0;
  uint32_t U32 = 0;
  uint64_t U64 = 0;
  std::vector<float> Floats(3);
  std::string Text, Empty = "x";
  ASSERT_TRUE(R.readU8(U8));
  ASSERT_TRUE(R.readU32(U32));
  ASSERT_TRUE(R.readU64(U64));
  ASSERT_TRUE(R.readFloats(Floats));
  ASSERT_TRUE(R.readBytes(Text, 16).isOk());
  ASSERT_TRUE(R.readBytes(Empty, 16).isOk());
  EXPECT_EQ(U8, 0xa5);
  EXPECT_EQ(U32, 0x01020304u);
  EXPECT_EQ(U64, 0x1122334455667788ULL);
  EXPECT_EQ(Floats, (std::vector<float>{1.5f, -0.0f, 3.25e-7f}));
  EXPECT_TRUE(std::signbit(Floats[1]));
  EXPECT_EQ(Text, "hello");
  EXPECT_EQ(Empty, "");
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(R.remaining(), 0u);
}

// Every prefix of a valid record stream: the reads that fit succeed, the
// first that does not fails without moving the cursor, and nothing reads
// past the span (the asan preset checks the last part).
TEST(ByteCodec, EveryTruncatedPrefixFailsCleanly) {
  std::vector<uint8_t> Full = everyShape();
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    std::vector<uint8_t> Prefix(Full.begin(),
                                Full.begin() + static_cast<ptrdiff_t>(Len));
    io::ByteReader R(Prefix.data(), Prefix.size());
    uint8_t U8;
    uint32_t U32;
    uint64_t U64;
    std::vector<float> Floats(3);
    std::string Text;
    std::vector<std::function<bool()>> Reads = {
        [&] { return R.readU8(U8); },
        [&] { return R.readU32(U32); },
        [&] { return R.readU64(U64); },
        [&] { return R.readFloats(Floats); },
        [&] { return R.readBytes(Text, 16).isOk(); },
        [&] { return R.readBytes(Text, 16).isOk(); }};
    size_t Done = 0;
    size_t Before = R.remaining();
    while (Done < Reads.size() && Reads[Done]()) {
      ++Done;
      Before = R.remaining();
    }
    ASSERT_LT(Done, Reads.size()) << "prefix " << Len << " read in full";
    EXPECT_EQ(R.remaining(), Before)
        << "prefix " << Len << ": the failed read moved the cursor";
    EXPECT_FALSE(R.skip(Before + 1));
    EXPECT_EQ(R.remaining(), Before);
  }
}

TEST(ByteCodec, LengthPrefixedReadsReportWhyTheyFail) {
  std::vector<uint8_t> Bytes;
  io::ByteWriter W(Bytes);
  W.putBytes("abcdef");
  std::string Out = "untouched";

  io::ByteReader OverCap(Bytes);
  Result<void> Capped = OverCap.readBytes(Out, 5);
  ASSERT_TRUE(Capped.isErr());
  EXPECT_EQ(Capped.error().code(), ErrorCode::LimitExceeded);
  EXPECT_EQ(OverCap.remaining(), Bytes.size());
  EXPECT_EQ(Out, "untouched");

  io::ByteReader Overrun(Bytes.data(), Bytes.size() - 1);
  Result<void> Short = Overrun.readBytes(Out, 16);
  ASSERT_TRUE(Short.isErr());
  EXPECT_EQ(Short.error().code(), ErrorCode::Truncated);
  EXPECT_EQ(Overrun.remaining(), Bytes.size() - 1);

  io::ByteReader NoLength(Bytes.data(), 7);
  Result<void> Cut = NoLength.readBytes(Out, 16);
  ASSERT_TRUE(Cut.isErr());
  EXPECT_EQ(Cut.error().code(), ErrorCode::Truncated);

  // The cap is checked before the overrun: a hostile length is refused as
  // over the cap even when the buffer is short too.
  std::vector<uint8_t> Hostile;
  io::ByteWriter(Hostile).putU64(UINT64_MAX);
  io::ByteReader HostileReader(Hostile);
  EXPECT_EQ(HostileReader.readBytes(Out, 1u << 20).error().code(),
            ErrorCode::LimitExceeded);

  io::ByteReader Exact(Bytes);
  ASSERT_TRUE(Exact.readBytes(Out, 6).isOk());
  EXPECT_EQ(Out, "abcdef");
}

TEST(ByteCodec, SkipAndCursorTrackTheSpan) {
  std::vector<uint8_t> Bytes = {1, 2, 3, 4};
  io::ByteReader R(Bytes);
  EXPECT_EQ(R.cursor(), Bytes.data());
  EXPECT_TRUE(R.skip(3));
  EXPECT_EQ(*R.cursor(), 4);
  EXPECT_FALSE(R.skip(2));
  EXPECT_TRUE(R.skip(1));
  EXPECT_TRUE(R.atEnd());
  uint8_t Byte;
  EXPECT_FALSE(R.readU8(Byte));
}

// --- Byte-identity oracle ----------------------------------------------------
//
// Length and FNV-1a of the serialized bytes of four deterministic artifacts,
// recorded from the encoder before the on-disk formats shared one codec.
// Any change here is a format change: it must come with a version bump, not
// a re-recorded digest.

void expectDigest(const std::vector<uint8_t> &Bytes, size_t Size,
                  uint64_t Hash) {
  EXPECT_EQ(Bytes.size(), Size);
  EXPECT_EQ(hashVector(Bytes), Hash)
      << "actual hash 0x" << hashToHex(hashVector(Bytes));
}

TEST(ByteIdentity, UntrainedModelFile) {
  nn::Seq2SeqConfig Config;
  Config.SrcVocabSize = 23;
  Config.TgtVocabSize = 11;
  Config.EmbedDim = 6;
  Config.HiddenDim = 8;
  Config.MaxSrcLen = 12;
  Config.MaxTgtLen = 5;
  Config.DropoutRate = 0.125f;
  Config.Seed = 4242;
  nn::Seq2SeqModel Model(Config);
  expectDigest(Model.serialize(), 9196, 0xdb3fb05a9b23d1d6ULL);
}

TEST(ByteIdentity, HandBuiltIngestJournal) {
  using namespace dataset::journal;
  IngestJournal J;
  J.ConfigDigest = 0x0123456789abcdefULL;
  FileRecord Kept;
  Kept.RelPath = "pkg0/a.wasm";
  Kept.ExactHash = 0x1111222233334444ULL;
  Kept.ApproxHash = 0x5555666677778888ULL;
  Kept.Bytes = 4096;
  Kept.Functions = 7;
  Kept.Instructions = 300;
  J.Records.push_back(Kept);
  FileRecord Quarantined;
  Quarantined.RelPath = "pkg1/broken.wasm";
  Quarantined.Outcome = FileOutcome::QuarantinedParse;
  Quarantined.Code = ErrorCode::Truncated;
  Quarantined.Stage = "parse";
  Quarantined.Message = "section 10: truncated body";
  Quarantined.Bytes = 17;
  J.Records.push_back(Quarantined);
  FileRecord Duplicate = Kept;
  Duplicate.RelPath = "pkg2/a-copy.wasm";
  Duplicate.Outcome = FileOutcome::DuplicateExact;
  J.Records.push_back(Duplicate);
  expectDigest(J.serialize(), 352, 0x2833c8ae8d50f205ULL);
}

TEST(ByteIdentity, HandBuiltCacheSnapshot) {
  model::PredictionCache::Config Config;
  Config.NumShards = 3;
  model::PredictionCache Cache(Config);
  for (int I = 0; I < 5; ++I) {
    std::string Key = "i32 <begin> key-" + std::to_string(I);
    model::CachedPrediction Value;
    Value.ComputedBy = I % 2 ? model::PredictionTier::Beam
                             : model::PredictionTier::Baseline;
    for (int P = 0; P <= I % 3; ++P) {
      model::TypePrediction Pred;
      Pred.Tokens = {"pointer", "struct", "name-" + std::to_string(P)};
      Pred.LogProb = -0.375f * static_cast<float>(I + P + 1);
      Value.Predictions.push_back(Pred);
    }
    Cache.insert(hashString(Key), Key, Value);
  }
  expectDigest(Cache.serializeSnapshot(), 832, 0x0238427f5a620de5ULL);
}

TEST(ByteIdentity, ChecksummedFile) {
  std::string Path = ::testing::TempDir() + "/byte_identity.bin";
  std::vector<uint8_t> Payload;
  for (int I = 0; I < 300; ++I)
    Payload.push_back(static_cast<uint8_t>(I * 37 + 5));
  ASSERT_TRUE(io::writeFileChecksummed(Path, Payload).isOk());
  Result<std::vector<uint8_t>> Written = io::readFileBytes(Path);
  ASSERT_TRUE(Written.isOk());
  expectDigest(*Written, 308, 0x87263d23d1415c9aULL);
  std::remove(Path.c_str());
}

} // namespace
} // namespace snowwhite
