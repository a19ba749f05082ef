// Contract tests of the .catm v1 on-disk format. The serialized image is
// part of the deployment surface — marked datasets get archived in this
// format and must load byte-for-byte forever — so the golden image below is
// pinned at the hex level, round-trips must be exact (dead dictionary
// entries included), the parallel converter must be thread-count invariant,
// and hostile bytes must fail with a clean Status: the corruption sweep
// flips every single byte and tries every truncation of the golden image.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/sha256.h"
#include "gen/sales_gen.h"
#include "relation/catm_format.h"
#include "relation/catm_io.h"
#include "relation/csv.h"
#include "relation/relation.h"

namespace catmark {
namespace {

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

void PutLeU64(std::string& bytes, std::size_t pos, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutBeU64(std::string& bytes, std::size_t pos, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * (7 - i))) & 0xFF);
  }
}

Schema TinySchema() {
  return Schema::Create({{"K", ColumnType::kInt64, false},
                         {"A", ColumnType::kString, true}},
                        "K")
      .value();
}

/// Three rows over (K INT64 PK, A STRING CATEGORICAL): dict {x=0, y=1},
/// live {2, 1}, codes {0, 1, 0}. Small enough that the full image is
/// pinnable as hex and the byte-flip sweep stays cheap.
Relation TinyRelation() {
  Relation rel(TinySchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value(std::string("x"))});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value(std::string("y"))});
  rel.AppendRowUnchecked({Value(std::int64_t{3}), Value(std::string("x"))});
  return rel;
}

// --- golden image ---------------------------------------------------------

// The full .catm image of TinyRelation(). Regenerating this constant is a
// conscious format break: every archived .catm file in the field stops
// loading under a reader that disagrees with it.
constexpr const char* kTinyGoldenHex =
    // magic            version    meta_len   meta_checksum
    "894341544d0d0a1a" "01000000" "3c000000" "1752e252d19756b8"
    // num_rows=3       num_cols   pk_index=0
    "0300000000000000" "02000000" "00000000"
    // schema: "K" INT64 plain, "A" STRING categorical
    "01004b0000" "0100410201"
    // section table: K plain @100 len 27, A dict @127 len 76 (+ checksums)
    "02" "6400000000000000" "1b00000000000000" "a3d3c6a7a1e1f0f0"
    "01" "7f00000000000000" "4c00000000000000" "2efe2f64e135fa6b"
    // plain K section: values 1, 2, 3 (tag 0x01 + big-endian payload)
    "010000000000000001" "010000000000000002" "010000000000000003"
    // dict A section: count=2; offsets {0, 10, 20}; blob {"x", "y"}
    // (tag 0x03 + big-endian length + bytes); live {2, 1}; codes {0, 1, 0}
    "02000000" "0000000000000000" "0a00000000000000" "1400000000000000"
    "03000000000000000178" "03000000000000000179"
    "0200000000000000" "0100000000000000" "00000000" "01000000" "00000000";

TEST(CatmGoldenTest, ImageIsByteStable) {
  EXPECT_EQ(ToHex(WriteCatmString(TinyRelation())), kTinyGoldenHex);
}

TEST(CatmGoldenTest, HeaderAndSectionLayout) {
  const std::string bytes = WriteCatmString(TinyRelation());
  ASSERT_GE(bytes.size(), kCatmHeaderSize);
  const std::string_view view(bytes);

  EXPECT_EQ(std::memcmp(bytes.data(), kCatmMagic, sizeof(kCatmMagic)), 0);

  ByteReader r(view.substr(sizeof(kCatmMagic)));
  std::uint32_t version = 0;
  std::uint32_t meta_length = 0;
  std::uint64_t meta_checksum = 0;
  std::uint64_t num_rows = 0;
  std::uint32_t num_columns = 0;
  std::int32_t pk_index = 0;
  ASSERT_TRUE(r.ReadLeU32(version));
  ASSERT_TRUE(r.ReadLeU32(meta_length));
  ASSERT_TRUE(r.ReadLeU64(meta_checksum));
  ASSERT_TRUE(r.ReadLeU64(num_rows));
  ASSERT_TRUE(r.ReadLeU32(num_columns));
  ASSERT_TRUE(r.ReadLeI32(pk_index));

  EXPECT_EQ(version, kCatmVersion);
  EXPECT_EQ(num_rows, 3u);
  EXPECT_EQ(num_columns, 2u);
  EXPECT_EQ(pk_index, 0);
  // kCatmMetaPerColumn covers everything per column but the name bytes
  // themselves; the two column names ("K", "A") are one byte each.
  EXPECT_EQ(meta_length, 1 + 1 + 2 * kCatmMetaPerColumn);
  // The meta checksum covers counts + schema + section table.
  EXPECT_EQ(meta_checksum,
            CatmChecksum(view.substr(kCatmChecksumStart, 16 + meta_length)));

  // Section table: entries are contiguous from the end of the meta block
  // and cover the rest of the file exactly, each checksummed.
  std::uint64_t expect_offset = kCatmHeaderSize + meta_length;
  for (std::size_t c = 0; c < num_columns; ++c) {
    // Skip this column's schema entry (name_len + name + type + cat).
    std::uint16_t name_len = 0;
    ASSERT_TRUE(r.ReadLeU16(name_len));
    ASSERT_TRUE(r.Skip(name_len + 2));
  }
  for (std::size_t c = 0; c < num_columns; ++c) {
    std::uint8_t kind = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
    ASSERT_TRUE(r.ReadU8(kind));
    ASSERT_TRUE(r.ReadLeU64(offset));
    ASSERT_TRUE(r.ReadLeU64(length));
    ASSERT_TRUE(r.ReadLeU64(checksum));
    EXPECT_EQ(kind, c == 0 ? kCatmSectionPlain : kCatmSectionDict);
    EXPECT_EQ(offset, expect_offset);
    EXPECT_EQ(checksum, CatmChecksum(view.substr(offset, length)));
    expect_offset += length;
  }
  EXPECT_EQ(expect_offset, bytes.size()) << "sections must cover the file";
}

// --- second golden image: every plain type, NULLs, dead entries ----------

Schema MixedSchema() {
  return Schema::Create({{"K", ColumnType::kInt64, false},
                         {"D", ColumnType::kDouble, false},
                         {"S", ColumnType::kString, false},
                         {"C", ColumnType::kString, true},
                         {"N", ColumnType::kInt64, true}})
      .value();
}

/// Seven rows over every column shape: a typed int64 column with NULLs and
/// both extremes, a double column with -0.0 and infinities, a string column
/// with an empty string and an embedded NUL, a string dictionary with NULL
/// codes and a dead entry ("blue", overwritten below), and an int64
/// dictionary. No primary key. Every section is longer than one 32-byte
/// checksum block and not a multiple of it, so the streaming checksum's
/// partial-block paths all run.
Relation MixedRelation() {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const auto i = [](std::int64_t v) { return Value(v); };
  const auto d = [](double v) { return Value(v); };
  const auto s = [](std::string v) { return Value(std::move(v)); };
  const Value null;
  Relation rel(MixedSchema());
  rel.AppendRowUnchecked({i(kMin), d(-0.0), s(""), s("red"), i(7)});
  rel.AppendRowUnchecked(
      {null, d(inf), s(std::string("a\0b", 3)), s("green"), i(-1)});
  rel.AppendRowUnchecked({i(kMax), null, null, null, null});
  rel.AppendRowUnchecked({i(-42), d(1.5), s("plain text"), s("blue"), i(7)});
  rel.AppendRowUnchecked({i(0), d(-inf), s("x"), s("red"), i(kMin)});
  rel.AppendRowUnchecked({null, d(2.0), s("yy"), null, i(3)});
  rel.AppendRowUnchecked(
      {i(123456789012), d(-3.25), s("last"), s("green"), i(7)});
  EXPECT_TRUE(rel.Set(3, 3, s("red")).ok());  // "blue" goes dead
  return rel;
}

// The image of MixedRelation(), captured from the writer as it was before
// it streamed (one grown buffer, copied into a string): the streaming
// writer must reproduce it byte for byte.
constexpr const char* kMixedGoldenHex =
    // header: magic, version, meta_length 150, meta_checksum, num_rows 7,
    // num_columns 5, primary_key_index -1
    "894341544d0d0a1a0100000096000000b4d55ce629aefd920700000000000000"
    "05000000ffffffff"
    // meta: schema K D S plain, C N categorical; the section table
    "01004b000001004401000100530200010043020101004e000102be0000000000"
    "00002f000000000000009a0c327adfa04ef702ed000000000000003700000000"
    "0000006356a5c48c3393860224010000000000004b0000000000000023ebcc46"
    "04e39e56016f010000000000007f000000000000001d9d08d81c522ee801ee01"
    "0000000000008c000000000000009e57d7f30c6079a8"
    // K plain INT64: MIN, NULL, MAX, -42, 0, NULL, 123456789012
    "01800000000000000000017fffffffffffffff01ffffffffffffffd601000000"
    "000000000000010000001cbe991a14"
    // D plain DOUBLE: -0.0, inf, NULL, 1.5, -inf, 2.0, -3.25
    "028000000000000000027ff000000000000000023ff800000000000002fff000"
    "000000000002400000000000000002c00a000000000000"
    // S plain STRING: "", "a\0b", NULL, "plain text", "x", "yy", "last"
    "0300000000000000000300000000000000036100620003000000000000000a70"
    "6c61696e20746578740300000000000000017803000000000000000279790300"
    "000000000000046c617374"
    // C dict STRING: {red, green, blue (dead)}, live, codes with NULLs
    "0300000000000000000000000c000000000000001a0000000000000027000000"
    "00000000030000000000000003726564030000000000000005677265656e0300"
    "00000000000004626c7565030000000000000002000000000000000000000000"
    "0000000000000001000000ffffffff0000000000000000ffffffff01000000"
    // N dict INT64: {7, -1, MIN, 3}, live, codes with one NULL
    "040000000000000000000000090000000000000012000000000000001b000000"
    "00000000240000000000000001000000000000000701ffffffffffffffff0180"
    "0000000000000001000000000000000303000000000000000100000000000000"
    "010000000000000001000000000000000000000001000000ffffffff00000000"
    "020000000300000000000000";

/// Byte offset and length of column `c`'s section in a MixedRelation image.
std::pair<std::size_t, std::size_t> MixedSection(std::string_view bytes,
                                                 std::size_t c) {
  constexpr std::size_t kEntryBytes = 1 + 8 + 8 + 8;
  std::uint32_t meta_length = 0;
  ByteReader head(bytes.substr(12));
  EXPECT_TRUE(head.ReadLeU32(meta_length));
  ByteReader r(bytes.substr(kCatmHeaderSize + meta_length -
                            (5 - c) * kEntryBytes + 1));
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  EXPECT_TRUE(r.ReadLeU64(offset));
  EXPECT_TRUE(r.ReadLeU64(length));
  return {static_cast<std::size_t>(offset), static_cast<std::size_t>(length)};
}

TEST(CatmGoldenTest, MixedImageIsByteStable) {
  EXPECT_EQ(ToHex(WriteCatmString(MixedRelation())), kMixedGoldenHex);
}

TEST(CatmGoldenTest, MixedSectionsSpanPartialChecksumBlocks) {
  const std::string bytes = WriteCatmString(MixedRelation());
  for (std::size_t c = 0; c < 5; ++c) {
    const std::size_t length = MixedSection(bytes, c).second;
    EXPECT_GT(length, 32u) << "column " << c;
    EXPECT_NE(length % 32, 0u) << "column " << c;
  }
}

TEST(CatmGoldenTest, FileWriterMatchesStringWriter) {
  const std::string path = ::testing::TempDir() + "catm_mixed_golden.catm";
  ASSERT_TRUE(WriteCatmFile(MixedRelation(), path).ok());
  const FileBytes bytes = FileBytes::Open(path).value();
  EXPECT_EQ(ToHex(bytes.view()), kMixedGoldenHex);
  std::remove(path.c_str());
}

TEST(CatmChecksumTest, StreamEqualsOneShotOverRandomSplits) {
  std::mt19937_64 rng(20040301);
  for (const std::size_t len : {0, 1, 7, 31, 32, 33, 95, 1000, 4099}) {
    std::vector<std::uint8_t> data(len);
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng());
    const std::uint64_t want = CatmChecksum(data.data(), data.size());
    for (int trial = 0; trial < 50; ++trial) {
      // Odd trials split into pieces of up to 69 bytes, even ones up to 6,
      // so splits land inside, on and across 32-byte block boundaries.
      const std::size_t max_piece = trial % 2 == 1 ? 70 : 7;
      CatmChecksumStream stream(len);
      for (std::size_t pos = 0; pos < len;) {
        const std::size_t n = std::min(len - pos, rng() % max_piece);
        stream.Update(data.data() + pos, n);
        pos += n;
      }
      EXPECT_EQ(stream.Finish(), want) << "len " << len << " trial " << trial;
    }
  }
}

// --- round trips ----------------------------------------------------------

TEST(CatmRoundTripTest, ExactIncludingDeadDictEntries) {
  Relation rel = TinyRelation();
  // A dictionary entry no row references (embedding can strand these when
  // the last row holding a category is rewritten) must survive verbatim —
  // dropping it would renumber codes and change the image.
  const std::int32_t dead =
      rel.mutable_store().InternValue(1, Value(std::string("zombie")));
  ASSERT_EQ(rel.store().DictLiveCounts(1)[static_cast<std::size_t>(dead)], 0);

  const std::string bytes = WriteCatmString(rel);
  Result<Relation> back = ReadCatmString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_TRUE(back->schema() == rel.schema());
  EXPECT_EQ(back->store().Codes(1), rel.store().Codes(1));
  EXPECT_EQ(back->store().Dict(1), rel.store().Dict(1));
  EXPECT_EQ(back->store().DictLiveCounts(1), rel.store().DictLiveCounts(1));
  EXPECT_EQ(back->store().Int64Column(0).values,
            rel.store().Int64Column(0).values);
  EXPECT_TRUE(back->store().Int64Column(0).nulls.empty());
  EXPECT_TRUE(back->SameContent(rel));
  // write(read(write(x))) == write(x): the image is a fixpoint.
  EXPECT_EQ(WriteCatmString(*back), bytes);
}

TEST(CatmRoundTripTest, EveryValueTypeAndNull) {
  const Schema schema =
      Schema::Create({{"I", ColumnType::kInt64, false},
                      {"D", ColumnType::kDouble, false},
                      {"S", ColumnType::kString, false},
                      {"C", ColumnType::kString, true}},
                     "")
          .value();
  Relation rel(schema);
  rel.AppendRowUnchecked({Value(std::int64_t{-1}), Value(0.5),
                          Value(std::string("a,b\"c\nd")),
                          Value(std::string("red"))});
  rel.AppendRowUnchecked({Value(), Value(), Value(), Value()});
  rel.AppendRowUnchecked(
      {Value(std::numeric_limits<std::int64_t>::min()), Value(-0.0),
       Value(std::string()), Value(std::string("red"))});

  Result<Relation> back = ReadCatmString(WriteCatmString(rel));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back->SameContent(rel));
  // NULL round-trips as NULL (unlike CSV, which conflates it with ""), and
  // -0.0 keeps its sign bit: the encoding is the exact bit pattern.
  EXPECT_TRUE(back->Get(1, 2).is_null());
  EXPECT_TRUE(std::signbit(back->Get(2, 1).AsDouble()));
}

TEST(CatmRoundTripTest, MixedImageRoundTripsExactly) {
  const Relation rel = MixedRelation();
  const std::string bytes = WriteCatmString(rel);
  Result<Relation> back = ReadCatmString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->SameContent(rel));
  // The typed column comes back as raw cells: NULL rows hold 0 and are
  // marked in the bitmap (rows 1 and 5).
  const Int64Cells& keys = back->store().Int64Column(0);
  EXPECT_EQ(keys.values, rel.store().Int64Column(0).values);
  ASSERT_EQ(keys.nulls.size(), 1u);
  EXPECT_EQ(keys.nulls[0], (std::uint64_t{1} << 1) | (std::uint64_t{1} << 5));
  EXPECT_EQ(keys.values[1], 0);
  EXPECT_EQ(back->store().Codes(3), rel.store().Codes(3));
  EXPECT_EQ(back->store().DictLiveCounts(3), rel.store().DictLiveCounts(3));
  EXPECT_EQ(WriteCatmString(*back), bytes);
  EXPECT_FALSE(back->store().BoxedViewBuilt(0));
}

TEST(CatmRoundTripTest, ExpectedSchemaMismatchIsInvalidArgument) {
  const std::string bytes = WriteCatmString(TinyRelation());
  const Schema other = Schema::Create({{"K", ColumnType::kInt64, false},
                                       {"B", ColumnType::kString, true}},
                                      "K")
                           .value();
  const Result<Relation> r = ReadCatmString(bytes, other);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

// --- converter determinism ------------------------------------------------

TEST(CatmConvertTest, ParallelIngestIsThreadCountInvariant) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 3000;
  gen.domain_size = 40;
  gen.seed = 99;
  const Relation rel = GenerateKeyedCategorical(gen);
  const std::string csv = WriteCsvString(rel);

  Result<Relation> serial = ReadCsvString(csv, rel.schema());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string want = WriteCatmString(*serial);
  // The serial parse assigns codes in first-occurrence order — the same
  // order the generator appended in, so the original image matches too.
  EXPECT_EQ(WriteCatmString(rel), want);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    Result<Relation> got = ReadCsvStringParallel(csv, rel.schema(), threads);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(WriteCatmString(*got), want)
        << "converter output depends on thread count " << threads;
  }
}

// --- corruption -----------------------------------------------------------

TEST(CatmCorruptionTest, TruncationIsDataLoss) {
  const std::string bytes = WriteCatmString(TinyRelation());
  for (const std::size_t keep : {std::size_t{10}, bytes.size() - 1}) {
    const Result<Relation> r =
        ReadCatmString(std::string_view(bytes).substr(0, keep));
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  }
}

TEST(CatmCorruptionTest, SectionByteFlipIsDataLoss) {
  std::string bytes = WriteCatmString(TinyRelation());
  bytes.back() = static_cast<char>(bytes.back() ^ 0xFF);
  const Result<Relation> r = ReadCatmString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
}

TEST(CatmCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bytes = WriteCatmString(TinyRelation());
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  const Result<Relation> r = ReadCatmString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(CatmCorruptionTest, UnsupportedVersionIsInvalidArgument) {
  std::string bytes = WriteCatmString(TinyRelation());
  bytes[8] = 2;  // version field, little-endian u32 at offset 8
  const Result<Relation> r = ReadCatmString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(CatmCorruptionTest, EverySingleByteFlipFailsToParse) {
  // Whole-file integrity: the meta checksum covers the counts, schema and
  // section table (which embeds the per-section checksums); the magic,
  // version and meta_length fields are structurally validated. So there is
  // no byte whose corruption goes unnoticed.
  const std::string bytes = WriteCatmString(TinyRelation());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    const Result<Relation> r = ReadCatmString(mutated);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i << " parsed successfully";
  }
}

TEST(CatmCorruptionTest, HostileDictOffsetsWithValidChecksumsAreRejected) {
  // A crafted file can carry any offsets array behind *valid* (unkeyed)
  // checksums, so the byte-flip sweep above never reaches this path — every
  // flip dies on a checksum first. Regression for an out-of-bounds read:
  // offsets [0, 2^32, blob_len] satisfy the endpoint checks, and the first
  // blob entry claims a ~4 GiB string, so a loader that interleaves the
  // monotonicity check with decoding builds a reader far past the section
  // and copies attacker-chosen lengths out of unmapped memory.
  std::string bytes = WriteCatmString(TinyRelation());
  const std::string_view view(bytes);

  std::uint32_t meta_length = 0;
  std::uint32_t num_columns = 0;
  {
    ByteReader r(view.substr(12));
    ASSERT_TRUE(r.ReadLeU32(meta_length));
  }
  {
    ByteReader r(view.substr(32));
    ASSERT_TRUE(r.ReadLeU32(num_columns));
  }
  ASSERT_EQ(num_columns, 2u);

  // Section-table entry of the dict column ("A", column 1). Entries are
  // kind(1) + offset(8) + length(8) + checksum(8) at the meta block's tail.
  constexpr std::size_t kEntryBytes = 1 + 8 + 8 + 8;
  const std::size_t table_pos =
      kCatmHeaderSize + meta_length - num_columns * kEntryBytes;
  const std::size_t entry_pos = table_pos + kEntryBytes;
  std::uint8_t kind = 0;
  std::uint64_t sec_off = 0;
  std::uint64_t sec_len = 0;
  {
    ByteReader r(view.substr(entry_pos));
    ASSERT_TRUE(r.ReadU8(kind));
    ASSERT_TRUE(r.ReadLeU64(sec_off));
    ASSERT_TRUE(r.ReadLeU64(sec_len));
  }
  ASSERT_EQ(kind, kCatmSectionDict);

  // Dict section: u32 dict_count, u64 offsets[3], then the blob whose first
  // entry is tag byte + big-endian u64 string length.
  const auto sec = static_cast<std::size_t>(sec_off);
  const std::uint64_t huge = std::uint64_t{1} << 32;
  PutLeU64(bytes, sec + 4 + 8, huge);       // offsets[1]
  PutBeU64(bytes, sec + 4 + 3 * 8 + 1, huge - 9);  // blob[0] string length
  // Re-seal the file: section checksum in the table entry, then the meta
  // checksum that covers the table.
  PutLeU64(bytes, entry_pos + 1 + 8 + 8,
           CatmChecksum(std::string_view(bytes).substr(
               sec, static_cast<std::size_t>(sec_len))));
  PutLeU64(bytes, 16,
           CatmChecksum(std::string_view(bytes).substr(kCatmChecksumStart,
                                                       16 + meta_length)));

  const Result<Relation> r = ReadCatmString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(CatmCorruptionTest, EveryTruncationFailsToParse) {
  const std::string bytes = WriteCatmString(TinyRelation());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const Result<Relation> r =
        ReadCatmString(std::string_view(bytes).substr(0, keep));
    EXPECT_FALSE(r.ok()) << "truncation to " << keep << " bytes parsed";
  }
}

// --- corruption sweep over the mixed image --------------------------------
//
// Each case must return the status code the reader returned for it before
// int64 columns were typed (captured alongside kMixedGoldenHex), never
// abort, and never size an allocation by a corrupt count (the ASan/UBSan
// build runs this too). Codes are run-length encoded: "I12D622" = 12
// InvalidArgument then 622 DataLoss; 'O' marks a case that loads.

char StatusLetter(const Result<Relation>& r) {
  if (r.ok()) return 'O';
  if (r.status().IsDataLoss()) return 'D';
  if (r.status().IsInvalidArgument()) return 'I';
  return '?';
}

std::string RunLengths(const std::string& letters) {
  std::string out;
  for (std::size_t i = 0; i < letters.size();) {
    std::size_t j = i;
    while (j < letters.size() && letters[j] == letters[i]) ++j;
    out += letters[i] + std::to_string(j - i);
    i = j;
  }
  return out;
}

TEST(CatmCorruptionTest, MixedByteFlipsKeepTheirStatusCodes) {
  const std::string bytes = WriteCatmString(MixedRelation());
  std::string letters;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    letters += StatusLetter(ReadCatmString(mutated));
  }
  EXPECT_EQ(RunLengths(letters), "I12D622");
}

TEST(CatmCorruptionTest, MixedTruncationsKeepTheirStatusCodes) {
  const std::string bytes = WriteCatmString(MixedRelation());
  std::string letters;
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    letters += StatusLetter(
        ReadCatmString(std::string_view(bytes).substr(0, keep)));
  }
  EXPECT_EQ(RunLengths(letters), "I8D626");
}

TEST(CatmCorruptionTest, ResealedSectionFlipsKeepTheirStatusCodes) {
  // Flips behind recomputed checksums reach the section decoders
  // themselves, typed int64 one included: each section byte is flipped by
  // 0xFF, 0x01 and 0x80, then the section and meta checksums are resealed.
  const char* const kWant[5] = {
      "I3O24I6O24I3O24I3O24I6O24",
      "I3O24I3O24I6O24I3O24I3O24I3O24",
      "I54O9I30O30I27O3I27O6I27O12",
      "I135O9I27O15I27O12I156",
      "I135O24I3O24I3O24I3O24I180",
  };
  const std::string bytes = WriteCatmString(MixedRelation());
  const std::uint32_t meta_length = 150;
  const std::size_t table = kCatmHeaderSize + meta_length - 5 * 25;
  for (std::size_t c = 0; c < 5; ++c) {
    const auto [offset, length] = MixedSection(bytes, c);
    std::string letters;
    for (std::size_t i = 0; i < length; ++i) {
      for (const unsigned flip : {0xFFu, 0x01u, 0x80u}) {
        std::string m = bytes;
        m[offset + i] = static_cast<char>(m[offset + i] ^ flip);
        PutLeU64(m, table + c * 25 + 17,
                 CatmChecksum(std::string_view(m).substr(offset, length)));
        PutLeU64(m, 16,
                 CatmChecksum(std::string_view(m).substr(kCatmChecksumStart,
                                                         16 + meta_length)));
        letters += StatusLetter(ReadCatmString(m));
      }
    }
    EXPECT_EQ(RunLengths(letters), kWant[c]) << "column " << c;
  }
}

// --- install API validation ----------------------------------------------

TEST(CatmInstallTest, RejectsDuplicateDictionaryEntries) {
  Relation rel(TinySchema());
  const Status s = rel.mutable_store().InstallDictColumn(
      1, {Value(std::string("x")), Value(std::string("x"))}, {1, 1}, {0, 1});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CatmInstallTest, RejectsCodeOutOfRange) {
  Relation rel(TinySchema());
  const Status s = rel.mutable_store().InstallDictColumn(
      1, {Value(std::string("x"))}, {1}, {0, 7});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CatmInstallTest, RejectsLiveCountMismatch) {
  Relation rel(TinySchema());
  const Status s = rel.mutable_store().InstallDictColumn(
      1, {Value(std::string("x"))}, {5}, {0, 0});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CatmInstallTest, FinalizeRejectsRowCountMismatch) {
  Relation rel(TinySchema());
  ASSERT_TRUE(rel.mutable_store().InstallInt64Column(0, {{1}, {}}).ok());
  ASSERT_TRUE(rel.mutable_store()
                  .InstallDictColumn(1, {Value(std::string("x"))}, {2},
                                     {0, 0})
                  .ok());
  EXPECT_TRUE(rel.mutable_store().FinalizeInstall(2).IsInvalidArgument());
}

TEST(CatmInstallTest, RejectsMalformedInt64NullBitmaps) {
  const auto install = [](Int64Cells cells) {
    Relation rel(TinySchema());
    return rel.mutable_store().InstallInt64Column(0, std::move(cells));
  };
  // Two words for three rows.
  EXPECT_TRUE(install({{0, 0, 0}, {1, 0}}).IsInvalidArgument());
  // Row 3 is past the end.
  EXPECT_TRUE(install({{0, 0, 0}, {0b1000}}).IsInvalidArgument());
  // A NULL row must hold 0.
  EXPECT_TRUE(install({{5, 0, 0}, {0b001}}).IsInvalidArgument());
  EXPECT_TRUE(install({{0, 5, 0}, {0b101}}).ok());
}

// --- file I/O and sniffing ------------------------------------------------

TEST(CatmIoTest, LoadRelationSniffsContentNotExtension) {
  const Relation rel = TinyRelation();
  const std::string catm_path =
      ::testing::TempDir() + "catm_sniff_binary.dat";
  const std::string csv_path = ::testing::TempDir() + "catm_sniff_text.dat";
  ASSERT_TRUE(WriteCatmFile(rel, catm_path).ok());
  ASSERT_TRUE(WriteCsvFile(rel, csv_path).ok());

  // Same neutral ".dat" extension for both: only the content differs, and
  // LoadRelation must dispatch on the magic, not the name.
  Result<Relation> from_catm = LoadRelation(catm_path, rel.schema());
  ASSERT_TRUE(from_catm.ok()) << from_catm.status().ToString();
  EXPECT_TRUE(from_catm->SameContent(rel));

  Result<Relation> from_csv = LoadRelation(csv_path, rel.schema());
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_TRUE(from_csv->SameContent(rel));

  std::remove(catm_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CatmIoTest, SaveRelationPicksFormatByExtension) {
  const Relation rel = TinyRelation();
  const std::string catm_path = ::testing::TempDir() + "catm_save_test.catm";
  const std::string csv_path = ::testing::TempDir() + "catm_save_test.csv";
  ASSERT_TRUE(SaveRelation(rel, catm_path).ok());
  ASSERT_TRUE(SaveRelation(rel, csv_path).ok());

  const FileBytes catm_bytes = FileBytes::Open(catm_path).value();
  const FileBytes csv_bytes = FileBytes::Open(csv_path).value();
  EXPECT_TRUE(LooksLikeCatm(catm_bytes.view()));
  EXPECT_FALSE(LooksLikeCatm(csv_bytes.view()));
  EXPECT_EQ(catm_bytes.view(), WriteCatmString(rel));
  EXPECT_EQ(csv_bytes.view(), WriteCsvString(rel));

  std::remove(catm_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CatmIoTest, WriteIntoMissingDirectoryIsIoErrorNamingThePath) {
  const std::string path =
      ::testing::TempDir() + "catm_no_such_dir/released.catm";
  const Status s = WriteCatmFile(TinyRelation(), path);
  ASSERT_TRUE(s.code() == StatusCode::kIoError) << s.ToString();
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find(std::strerror(ENOENT)), std::string::npos)
      << s.ToString();
}

TEST(CatmIoTest, WriteToAFullDeviceIsIoErrorAndKeepsTheDevice) {
  // /dev/full accepts the open and fails every write with ENOSPC. It is a
  // device, not a partial file, so the writer must not remove it.
  struct stat before {};
  if (::stat("/dev/full", &before) != 0 || !S_ISCHR(before.st_mode)) {
    GTEST_SKIP() << "/dev/full is not available on this host";
  }
  const Status s = WriteCatmFile(MixedRelation(), "/dev/full");
  ASSERT_TRUE(s.code() == StatusCode::kIoError) << s.ToString();
  EXPECT_NE(s.message().find("/dev/full"), std::string::npos);
  EXPECT_NE(s.message().find(std::strerror(ENOSPC)), std::string::npos)
      << s.ToString();
  struct stat after {};
  EXPECT_EQ(::stat("/dev/full", &after), 0);
}

TEST(CatmIoTest, FailedWriteRemovesThePartialFile) {
  // A write that fails after the open must not leave a truncated image
  // behind. Provoke one with a file-size limit below the image size.
  const std::string path = ::testing::TempDir() + "catm_partial.catm";
  const Relation rel = MixedRelation();
  struct rlimit saved {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit small = saved;
  small.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  const Status s = WriteCatmFile(rel, path);
  std::signal(SIGXFSZ, old_handler);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  ASSERT_TRUE(s.code() == StatusCode::kIoError) << s.ToString();
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  struct stat st {};
  EXPECT_NE(::stat(path.c_str(), &st), 0) << "partial file left behind";
}

// --- cross-format golden pins ---------------------------------------------

// The .catm round trip must preserve the exact embed/detect channel: the
// pinned hashes below are the same constants golden_test.cc pins for the
// CSV path, so a .catm loader that perturbed codes or dictionary order —
// even content-preservingly — would fail here.

TEST(CatmCrossFormatTest, RoundTripPreservesGoldenGeneratorHash) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.domain_size = 64;
  gen.seed = 424242;
  const Relation rel = GenerateKeyedCategorical(gen);
  Result<Relation> back = ReadCatmString(WriteCatmString(rel));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  Sha256 sha;
  EXPECT_EQ(
      sha.Hash(WriteCsvString(*back)).ToHex(),
      "a74968c3b53d067b5bf36f885cadf48e6c8ec835c801cd26b51b6cba8084a0a8");
}

TEST(CatmCrossFormatTest, EmbeddingOnRoundTrippedRelationIsPinned) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.domain_size = 64;
  gen.seed = 424242;
  const Relation rel = GenerateKeyedCategorical(gen);
  Result<Relation> back = ReadCatmString(WriteCatmString(rel));
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  const struct {
    PrfKind prf;
    const char* pinned;
  } kCases[] = {
      {PrfKind::kKeyedHash,
       "cdc9fcdcdc04480afcdb7338d8c67512911da1251e3ce1e57be25df5903c2e82"},
      {PrfKind::kSipHash24,
       "d325634b623a545ca00b353945cf90dd2f06ca31b9f47fc44d372f13fa2fc690"},
  };
  for (const auto& kase : kCases) {
    Relation marked = *back;
    const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("golden");
    WatermarkParams params;
    params.e = 25;
    params.prf = kase.prf;
    const BitVector wm = BitVector::FromString("1011001110").value();
    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    Result<EmbedReport> report =
        Embedder(keys, params).Embed(marked, options, wm);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    Sha256 sha;
    EXPECT_EQ(sha.Hash(WriteCsvString(marked)).ToHex(), kase.pinned)
        << "embedding over the .catm round trip diverged under "
        << PrfKindName(kase.prf);
  }
}

// --- typed int64 keys never box ------------------------------------------

TEST(CatmTypedKeyTest, ReleaseCycleNeverBuildsTheBoxedView) {
  // The owner's release cycle over an int64-keyed relation: load, embed,
  // save, then load and detect. Every library step reads the key column as
  // raw int64 cells; none may build the per-row Value view Get serves.
  KeyedCategoricalConfig gen;
  gen.num_tuples = 5000;
  gen.domain_size = 40;
  gen.seed = 7;
  const std::string source = ::testing::TempDir() + "catm_typed_source.catm";
  const std::string released =
      ::testing::TempDir() + "catm_typed_released.catm";
  ASSERT_TRUE(WriteCatmFile(GenerateKeyedCategorical(gen), source).ok());

  Result<Relation> rel = ReadCatmFile(source);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  const std::size_t key_col = 0;
  ASSERT_EQ(rel->schema().column(key_col).name, "K");
  ASSERT_TRUE(rel->store().IsInt64Column(key_col));

  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("typed keys");
  WatermarkParams params;
  params.e = 10;
  params.prf = PrfKind::kSipHash24;
  const BitVector wm = BitVector::FromString("1011001110").value();
  EmbedOptions embed_options;
  embed_options.key_attr = "K";
  embed_options.target_attr = "A";
  for (const bool map : {false, true}) {
    embed_options.build_embedding_map = map;
    Relation copy = *rel;
    ASSERT_TRUE(Embedder(keys, params).Embed(copy, embed_options, wm).ok());
    EXPECT_FALSE(copy.store().BoxedViewBuilt(key_col)) << "map " << map;
  }
  embed_options.build_embedding_map = false;
  Result<EmbedReport> report =
      Embedder(keys, params).Embed(*rel, embed_options, wm);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(SaveRelation(*rel, released).ok());
  EXPECT_FALSE(rel->store().BoxedViewBuilt(key_col));

  Result<Relation> suspect = LoadRelation(released, rel->schema());
  ASSERT_TRUE(suspect.ok()) << suspect.status().ToString();
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.payload_length = report->payload_length;
  Result<DetectionResult> detected =
      Detector(keys, params).Detect(*suspect, detect_options, wm.size());
  ASSERT_TRUE(detected.ok()) << detected.status().ToString();
  EXPECT_EQ(detected->wm, wm);
  EXPECT_FALSE(suspect->store().BoxedViewBuilt(key_col));

  // Get still serves a Value, from the view it builds on first use.
  EXPECT_EQ(suspect->Get(3, key_col).AsInt64(),
            suspect->store().Int64Column(key_col).values[3]);
  EXPECT_TRUE(suspect->store().BoxedViewBuilt(key_col));
  std::remove(source.c_str());
  std::remove(released.c_str());
}

}  // namespace
}  // namespace catmark
