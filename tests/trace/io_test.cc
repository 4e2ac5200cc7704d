/** @file Round-trip and robustness tests for the binary trace format. */

#include "trace/trace_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "trace/vector_trace_source.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"

namespace confsim {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    // Unique per test: the cases run concurrently under `ctest -j`,
    // so a path shared across the fixture lets one case truncate a
    // file another is reading.
    std::string path_ = ::testing::TempDir() + "/confsim_io_" +
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name() +
                        ".cbt";

    void TearDown() override { std::remove(path_.c_str()); }

    std::vector<BranchRecord>
    randomRecords(std::size_t n, std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<BranchRecord> records;
        std::uint64_t pc = 0x400000;
        for (std::size_t i = 0; i < n; ++i) {
            BranchRecord r;
            // Mix of local steps and far jumps to exercise deltas.
            if (rng.nextBernoulli(0.8))
                pc += 4 * (1 + rng.nextBelow(16));
            else
                pc = 0x400000 + 4 * rng.nextBelow(1 << 20);
            r.pc = pc;
            r.target = pc + 4 * (rng.nextInRange(-2048, 2048));
            r.taken = rng.nextBernoulli(0.6);
            r.type = static_cast<BranchType>(rng.nextBelow(4));
            records.push_back(r);
        }
        return records;
    }

    std::vector<char>
    readFileBytes(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        std::vector<char> bytes(
            static_cast<std::size_t>(in.tellg()));
        in.seekg(0);
        in.read(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
        return bytes;
    }

    void
    writeFileBytes(const std::string &path,
                   const std::vector<char> &bytes)
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    void
    flipBit(const std::string &path, std::size_t byte_offset,
            unsigned bit)
    {
        auto bytes = readFileBytes(path);
        ASSERT_LT(byte_offset, bytes.size());
        bytes[byte_offset] ^= static_cast<char>(1u << bit);
        writeFileBytes(path, bytes);
    }

    struct ChunkInfo
    {
        std::size_t offset;       //!< of the sync marker
        std::uint32_t payloadSize;
        std::uint32_t recordCount;
    };

    /** Parse CBT2 chunk framing (assumes an intact file). */
    std::vector<ChunkInfo>
    parseChunks(const std::string &path)
    {
        const auto bytes = readFileBytes(path);
        std::vector<ChunkInfo> chunks;
        std::size_t pos = 16; // CBT2 header
        while (pos + 12 <= bytes.size()) {
            ChunkInfo info;
            info.offset = pos;
            std::memcpy(&info.payloadSize, bytes.data() + pos + 4, 4);
            std::memcpy(&info.recordCount, bytes.data() + pos + 8, 4);
            chunks.push_back(info);
            pos += 12 + info.payloadSize + 4;
        }
        return chunks;
    }
};

TEST_F(TraceIoTest, ZigZagRoundTrips)
{
    for (std::int64_t v : {0LL, 1LL, -1LL, 1234567LL, -1234567LL,
                           (1LL << 62), -(1LL << 62)}) {
        EXPECT_EQ(zigZagDecode(zigZagEncode(v)), v);
    }
}

TEST_F(TraceIoTest, ZigZagSmallMagnitudesEncodeSmall)
{
    EXPECT_EQ(zigZagEncode(0), 0u);
    EXPECT_EQ(zigZagEncode(-1), 1u);
    EXPECT_EQ(zigZagEncode(1), 2u);
    EXPECT_EQ(zigZagEncode(-2), 3u);
}

TEST_F(TraceIoTest, RoundTripPreservesEveryRecord)
{
    const auto records = randomRecords(5000, 99);
    VectorTraceSource source(records);
    EXPECT_EQ(writeTraceFile(source, path_), 5000u);

    TraceFileReader reader(path_);
    EXPECT_EQ(reader.recordCount(), 5000u);
    BranchRecord out;
    for (const auto &expected : records) {
        ASSERT_TRUE(reader.next(out));
        ASSERT_EQ(out, expected);
    }
    EXPECT_FALSE(reader.next(out));
}

TEST_F(TraceIoTest, ReaderResetReplays)
{
    const auto records = randomRecords(100, 7);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);

    TraceFileReader reader(path_);
    BranchRecord out;
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(reader.next(out));
    ASSERT_FALSE(reader.next(out));
    reader.reset();
    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out, records[0]);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips)
{
    VectorTraceSource source({});
    EXPECT_EQ(writeTraceFile(source, path_), 0u);
    TraceFileReader reader(path_);
    EXPECT_EQ(reader.recordCount(), 0u);
    BranchRecord out;
    EXPECT_FALSE(reader.next(out));
}

TEST_F(TraceIoTest, CompressionBeatsNaiveEncoding)
{
    const auto records = randomRecords(10000, 3);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);
    std::ifstream in(path_, std::ios::ate | std::ios::binary);
    const auto size = static_cast<std::uint64_t>(in.tellg());
    // A naive fixed-size encoding would be 17 bytes/record.
    EXPECT_LT(size, 10000u * 17u / 2u);
}

TEST_F(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_THROW(TraceFileReader("/no/such/file.cbt"),
                 std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicIsFatal)
{
    std::ofstream out(path_, std::ios::binary);
    out << "NOPE00000000";
    out.close();
    EXPECT_THROW(TraceFileReader{path_}, std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedRecordsAreFatal)
{
    const auto records = randomRecords(100, 5);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);

    // Truncate the file in the middle of the record stream.
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    const auto full = static_cast<std::size_t>(in.tellg());
    std::vector<char> bytes(full / 2);
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    in.close();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();

    TraceFileReader reader(path_);
    BranchRecord record;
    EXPECT_THROW(
        {
            while (reader.next(record)) {
            }
        },
        std::runtime_error);
}

TEST_F(TraceIoTest, TextTraceWritesOneLinePerRecord)
{
    const auto records = randomRecords(50, 21);
    VectorTraceSource source(records);
    const std::string text_path =
        ::testing::TempDir() + "/confsim_io_test.txt";
    EXPECT_EQ(writeTextTrace(source, text_path), 50u);
    std::ifstream in(text_path);
    std::string line;
    int lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 50);
    std::remove(text_path.c_str());
}


TEST_F(TraceIoTest, TextRoundTripPreservesRecords)
{
    const auto records = randomRecords(500, 42);
    VectorTraceSource source(records);
    const std::string text_path =
        ::testing::TempDir() + "/confsim_text_rt.txt";
    writeTextTrace(source, text_path);

    TextTraceReader reader(text_path);
    BranchRecord out;
    for (const auto &expected : records) {
        ASSERT_TRUE(reader.next(out));
        ASSERT_EQ(out, expected);
    }
    EXPECT_FALSE(reader.next(out));
    std::remove(text_path.c_str());
}

TEST_F(TraceIoTest, TextReaderSkipsCommentsAndBlanks)
{
    const std::string text_path =
        ::testing::TempDir() + "/confsim_text_cmt.txt";
    {
        std::ofstream out(text_path);
        out << "# a comment line\n";
        out << "\n";
        out << "  0x1000 0x2000 T 0\n";
        out << "# another\n";
        out << "0x1004 0x3000 N 1\n";
    }
    TextTraceReader reader(text_path);
    BranchRecord record;
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.pc, 0x1000u);
    EXPECT_TRUE(record.taken);
    EXPECT_EQ(record.type, BranchType::Conditional);
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.pc, 0x1004u);
    EXPECT_FALSE(record.taken);
    EXPECT_EQ(record.type, BranchType::Unconditional);
    EXPECT_FALSE(reader.next(record));
    std::remove(text_path.c_str());
}

TEST_F(TraceIoTest, TextReaderResetReplays)
{
    const std::string text_path =
        ::testing::TempDir() + "/confsim_text_reset.txt";
    {
        std::ofstream out(text_path);
        out << "0x1000 0x2000 T 0\n";
    }
    TextTraceReader reader(text_path);
    BranchRecord record;
    ASSERT_TRUE(reader.next(record));
    ASSERT_FALSE(reader.next(record));
    reader.reset();
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.pc, 0x1000u);
    std::remove(text_path.c_str());
}

TEST_F(TraceIoTest, TextReaderRejectsMalformedLines)
{
    const std::string text_path =
        ::testing::TempDir() + "/confsim_text_bad.txt";
    for (const char *bad_line :
         {"0x1000 0x2000 X 0", "0x1000 0x2000 T 9", "garbage",
          "0x1000 0x2000"}) {
        {
            std::ofstream out(text_path);
            out << bad_line << "\n";
        }
        TextTraceReader reader(text_path);
        BranchRecord record;
        EXPECT_THROW(reader.next(record), std::runtime_error)
            << bad_line;
    }
    std::remove(text_path.c_str());
}

TEST_F(TraceIoTest, TextReaderMissingFileIsFatal)
{
    EXPECT_THROW(TextTraceReader("/no/such/file.txt"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Hand-built files: the decoder's guards behind a valid CRC.

/** One chunk of a hand-built CBT2 file. */
struct RawChunk
{
    std::uint32_t records;
    std::vector<char> payload;
};

/** A CBT2 file whose header and chunk CRCs all verify. */
std::vector<char>
cbt2File(std::uint64_t header_count, const std::vector<RawChunk> &chunks)
{
    std::vector<char> bytes = {'C', 'B', 'T', '2'};
    const auto append = [&bytes](const void *data, std::size_t size) {
        const auto *p = static_cast<const char *>(data);
        bytes.insert(bytes.end(), p, p + size);
    };
    append(&header_count, sizeof header_count);
    const std::uint32_t count_crc = crc32(&header_count, sizeof header_count);
    append(&count_crc, sizeof count_crc);
    for (const RawChunk &chunk : chunks) {
        append("CHNK", 4);
        const auto size = static_cast<std::uint32_t>(chunk.payload.size());
        append(&size, sizeof size);
        append(&chunk.records, sizeof chunk.records);
        append(chunk.payload.data(), chunk.payload.size());
        const std::uint32_t crc =
            crc32(chunk.payload.data(), chunk.payload.size());
        append(&crc, sizeof crc);
    }
    return bytes;
}

TEST_F(TraceIoTest, RetiredCbt1MagicIsFatal)
{
    // One byte separates the two magics; the reader must not decode a
    // checksummed file as the retired, unchecked format.
    VectorTraceSource source(randomRecords(5000, 11));
    writeTraceFile(source, path_);
    auto bytes = readFileBytes(path_);
    ASSERT_EQ(bytes[3], '2');
    bytes[3] = '1';
    writeFileBytes(path_, bytes);

    try {
        TraceFileReader reader(path_);
        BranchRecord record;
        while (reader.next(record)) {
        }
        FAIL() << "a CBT1 magic was read";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kTrace);
        EXPECT_NE(std::string(e.what()).find("CBT1"), std::string::npos)
            << e.what();
    }
}

TEST_F(TraceIoTest, OverlongVarintIsFatal)
{
    // A one-record chunk of eleven continuation bytes: past the
    // 10-byte varint bound.
    writeFileBytes(path_, cbt2File(1, {{1, std::vector<char>(11, '\x80')}}));

    TraceFileReader reader(path_);
    BranchRecord record;
    try {
        reader.next(record);
        FAIL() << "overlong varint not detected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("overlong varint"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(TraceIoTest, TruncatedRecordErrorNamesRecordIndex)
{
    // Record 0 decodes (a 3-byte PC delta, a 1-byte target delta,
    // flags); record 1 ends inside its first varint.
    writeFileBytes(path_,
                   cbt2File(2, {{2, {'\x80', '\x80', '\x01', '\x02', '\x01',
                                     '\x82'}}}));

    TraceFileReader reader(path_);
    BranchRecord record;
    try {
        while (reader.next(record)) {
        }
        FAIL() << "truncation not detected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("record 1"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(path_),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// TraceWriter finalization.

TEST_F(TraceIoTest, WriterDestructorFinalizesHeaderCount)
{
    const auto records = randomRecords(10, 3);
    {
        TraceWriter writer(path_);
        for (const auto &r : records)
            writer.append(r);
        // No finish(): simulate exception unwind past the writer.
    }
    TraceFileReader reader(path_);
    EXPECT_EQ(reader.recordCount(), 10u);
    BranchRecord out;
    for (const auto &expected : records) {
        ASSERT_TRUE(reader.next(out));
        ASSERT_EQ(out, expected);
    }
    EXPECT_FALSE(reader.next(out));
}

TEST_F(TraceIoTest, WriterFinishTwiceThrows)
{
    TraceWriter writer(path_);
    writer.finish();
    EXPECT_THROW(writer.finish(), std::runtime_error);
}

// ---------------------------------------------------------------------
// CBT2 integrity checking and recovery.

TEST_F(TraceIoTest, Cbt2DetectsSingleBitFlipAnywhere)
{
    const auto records = randomRecords(200, 17);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);
    const std::size_t size = readFileBytes(path_).size();

    // Flip one bit at every byte offset in turn; a strict reader must
    // throw either at open or while draining the stream.
    for (std::size_t offset = 0; offset < size; ++offset) {
        {
            VectorTraceSource again(records);
            writeTraceFile(again, path_);
        }
        flipBit(path_, offset, offset % 8);
        EXPECT_THROW(
            {
                TraceFileReader reader(path_);
                BranchRecord record;
                while (reader.next(record)) {
                }
            },
            std::runtime_error)
            << "flip at byte " << offset << " not detected";
    }
}

TEST_F(TraceIoTest, Cbt2SkipCorruptResyncsAtNextChunk)
{
    // Four chunks: 3 * 4096 full + 1 * 100 tail.
    const std::size_t n = 3 * TraceWriter::kChunkRecords + 100;
    const auto records = randomRecords(n, 23);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);

    const auto chunks = parseChunks(path_);
    ASSERT_EQ(chunks.size(), 4u);

    // Corrupt a payload byte in the middle of chunk 1.
    flipBit(path_, chunks[1].offset + 12 + chunks[1].payloadSize / 2,
            3);

    TraceFileReader reader(path_, RecoveryMode::kSkipCorrupt);
    std::vector<BranchRecord> survivors;
    BranchRecord out;
    while (reader.next(out))
        survivors.push_back(out);

    EXPECT_EQ(reader.droppedRecords(), TraceWriter::kChunkRecords);
    ASSERT_EQ(survivors.size(), n - TraceWriter::kChunkRecords);

    // Chunk 0 then chunks 2..3, bit-exact: the per-chunk delta chain
    // means losing chunk 1 cannot poison its successors.
    std::vector<BranchRecord> expected(
        records.begin(),
        records.begin() + TraceWriter::kChunkRecords);
    expected.insert(expected.end(),
                    records.begin() + 2 * TraceWriter::kChunkRecords,
                    records.end());
    EXPECT_EQ(survivors, expected);
}

TEST_F(TraceIoTest, Cbt2SkipCorruptHandlesTruncatedTail)
{
    const std::size_t n = 2 * TraceWriter::kChunkRecords;
    const auto records = randomRecords(n, 29);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);

    const auto chunks = parseChunks(path_);
    ASSERT_EQ(chunks.size(), 2u);
    auto bytes = readFileBytes(path_);
    bytes.resize(chunks[1].offset + 12 + chunks[1].payloadSize / 2);
    writeFileBytes(path_, bytes);

    TraceFileReader reader(path_, RecoveryMode::kSkipCorrupt);
    std::size_t delivered = 0;
    BranchRecord out;
    while (reader.next(out))
        ++delivered;
    EXPECT_EQ(delivered, TraceWriter::kChunkRecords);
    EXPECT_EQ(reader.droppedRecords(), TraceWriter::kChunkRecords);
}

TEST_F(TraceIoTest, Cbt2StrictRecordCountMismatchIsFatal)
{
    const auto records = randomRecords(100, 31);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);

    // Patch the header count (and recompute its CRC so only the
    // cross-check against the chunk contents can catch the lie).
    auto bytes = readFileBytes(path_);
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + 4, sizeof(count));
    count += 7;
    std::memcpy(bytes.data() + 4, &count, sizeof(count));
    const std::uint32_t header_crc = crc32(&count, sizeof(count));
    std::memcpy(bytes.data() + 12, &header_crc, sizeof(header_crc));
    writeFileBytes(path_, bytes);

    TraceFileReader reader(path_);
    BranchRecord record;
    EXPECT_THROW(
        {
            while (reader.next(record)) {
            }
        },
        std::runtime_error);
}

TEST_F(TraceIoTest, Cbt2SkipCorruptSurvivesHeaderCountCorruption)
{
    const auto records = randomRecords(500, 37);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);

    // Flip a bit inside the header record count without fixing the
    // CRC: strict throws at open, skip-corrupt falls back to the
    // per-chunk counts and still delivers every record.
    flipBit(path_, 6, 0);
    EXPECT_THROW(TraceFileReader{path_}, std::runtime_error);

    TraceFileReader reader(path_, RecoveryMode::kSkipCorrupt);
    std::vector<BranchRecord> out_records;
    BranchRecord out;
    while (reader.next(out))
        out_records.push_back(out);
    EXPECT_EQ(out_records.size(), records.size());
    EXPECT_EQ(out_records, records);
    EXPECT_EQ(reader.droppedRecords(), 0u);
}

TEST_F(TraceIoTest, Cbt2TruncatedHeaderIsFatal)
{
    writeFileBytes(path_, {'C', 'B', 'T', '2', 0x05, 0x00});
    EXPECT_THROW(TraceFileReader{path_}, std::runtime_error);
}

TEST_F(TraceIoTest, Cbt2ReaderResetReplaysAndClearsDropCount)
{
    const std::size_t n = TraceWriter::kChunkRecords + 50;
    const auto records = randomRecords(n, 41);
    VectorTraceSource source(records);
    writeTraceFile(source, path_);

    const auto chunks = parseChunks(path_);
    ASSERT_EQ(chunks.size(), 2u);
    flipBit(path_, chunks[0].offset + 12 + 5, 2);

    TraceFileReader reader(path_, RecoveryMode::kSkipCorrupt);
    BranchRecord out;
    std::size_t first_pass = 0;
    while (reader.next(out))
        ++first_pass;
    EXPECT_EQ(first_pass, 50u);
    EXPECT_EQ(reader.droppedRecords(), TraceWriter::kChunkRecords);

    reader.reset();
    std::size_t second_pass = 0;
    while (reader.next(out))
        ++second_pass;
    EXPECT_EQ(second_pass, first_pass);
    EXPECT_EQ(reader.droppedRecords(), TraceWriter::kChunkRecords);
}
} // namespace
} // namespace confsim
