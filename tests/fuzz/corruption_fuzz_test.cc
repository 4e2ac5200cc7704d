/**
 * @file
 * Seeded corruption fuzzing over the two on-disk container formats.
 *
 * CBT2 traces: every byte past the 4-byte magic is covered by an
 * integrity check — the header count by its CRC, each chunk header by
 * the marker / size-bound / record-count cross-checks, each payload
 * (and its CRC footer) by the per-chunk CRC32. So a single-byte flip
 * anywhere in that region must make a kStrict reader throw — never
 * crash, never silently deliver altered records. The magic itself is
 * excluded from fuzzing because a flip there can legitimately alias to
 * the legacy "CBT1" magic, reinterpreting the file as the unchecked
 * format rather than damaging this one.
 *
 * kSkipCorrupt is held to an exact accounting contract: a flip
 * confined to one chunk's payload+CRC region drops exactly that
 * chunk's records — droppedRecords() matches, the corruption hook
 * names that chunk, and every delivered record is bit-identical to
 * the pristine sequence with the damaged chunk excised.
 *
 * CSK1 checkpoints carry a whole-file CRC plus per-component CRCs, so
 * EVERY byte is covered: any single-byte flip must make
 * readCheckpointFile() throw, and the tolerant inspectCheckpoint()
 * parse must report the file invalid without throwing.
 *
 * All flips are drawn from the repo's deterministic Rng with fixed
 * seeds, so a pass is reproducible — there is no flaky tail.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "confidence/one_level.h"
#include "predictor/gshare.h"
#include "predictor/tage.h"
#include "trace/trace_io.h"
#include "util/rng.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kTraceBranches = 10'000;

std::filesystem::path
tempPath(const std::string &name)
{
    return std::filesystem::path(::testing::TempDir()) / name;
}

std::vector<std::uint8_t>
slurp(const std::filesystem::path &path)
{
    return readFileBytes(path.string());
}

void
writeBytes(const std::filesystem::path &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/**
 * Write the reference CBT2 trace once and return its bytes. The file
 * is named per process: ctest runs each test of this file in its own
 * process, in parallel, and a shared name let one process read the
 * file while another rewrote it.
 */
const std::vector<std::uint8_t> &
pristineTraceBytes()
{
    static const std::vector<std::uint8_t> bytes = [] {
        const auto path = tempPath("fuzz_pristine_" +
                                   std::to_string(::getpid()) + ".cbt2");
        const auto suite = BenchmarkSuite::ibsSmall(kTraceBranches);
        const auto source = suite.makeGenerator(0);
        writeTraceFile(*source, path.string(), TraceFormat::kCbt2);
        std::vector<std::uint8_t> written = readFileBytes(path.string());
        std::filesystem::remove(path);
        return written;
    }();
    return bytes;
}

std::vector<BranchRecord>
drainFile(const std::filesystem::path &path, RecoveryMode mode)
{
    TraceFileReader reader(path.string(), mode);
    std::vector<BranchRecord> records;
    BranchRecord record;
    while (reader.next(record))
        records.push_back(record);
    return records;
}

std::uint32_t
readLe32(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    return static_cast<std::uint32_t>(bytes[at]) |
           static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[at + 3]) << 24;
}

/** Byte extent of one chunk, parsed from the pristine layout. */
struct ChunkSpan
{
    std::size_t start = 0;       //!< offset of the 12-byte chunk header
    std::size_t payloadBegin = 0; //!< first payload byte
    std::size_t end = 0;          //!< one past the CRC footer
    std::uint64_t records = 0;    //!< record count from the header
};

/**
 * Walk the CBT2 container: 16-byte file header (magic + u64 count +
 * count CRC), then per chunk a 12-byte header (marker, payload size,
 * record count), the payload, and a 4-byte CRC footer.
 */
std::vector<ChunkSpan>
parseChunks(const std::vector<std::uint8_t> &bytes)
{
    constexpr std::size_t kFileHeader = 16;
    constexpr std::size_t kChunkHeader = 12;
    std::vector<ChunkSpan> chunks;
    std::size_t at = kFileHeader;
    while (at + kChunkHeader <= bytes.size()) {
        ChunkSpan span;
        span.start = at;
        const std::uint32_t payload_size = readLe32(bytes, at + 4);
        span.records = readLe32(bytes, at + 8);
        span.payloadBegin = at + kChunkHeader;
        span.end = span.payloadBegin + payload_size + 4;
        EXPECT_LE(span.end, bytes.size()) << "truncated pristine file?";
        chunks.push_back(span);
        at = span.end;
    }
    EXPECT_EQ(at, bytes.size());
    return chunks;
}

TEST(TraceCorruptionFuzz, StrictReaderAlwaysErrorsNeverCrashes)
{
    const std::vector<std::uint8_t> &pristine = pristineTraceBytes();
    ASSERT_GT(pristine.size(), 16u);
    const auto path = tempPath("fuzz_strict.cbt2");

    // Sanity: the unmutated file round-trips.
    writeBytes(path, pristine);
    EXPECT_EQ(drainFile(path, RecoveryMode::kStrict).size(),
              TraceFileReader(path.string()).recordCount());

    Rng rng(0xF00DF00Du);
    constexpr int kFlips = 200;
    for (int i = 0; i < kFlips; ++i) {
        // Skip the 4 magic bytes (see file comment); everything else
        // is fair game, header and chunk bytes alike.
        const std::size_t offset =
            4 + static_cast<std::size_t>(
                    rng.nextBelow(pristine.size() - 4));
        const auto mask =
            static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        std::vector<std::uint8_t> mutated = pristine;
        mutated[offset] ^= mask;
        writeBytes(path, mutated);

        bool threw = false;
        try {
            drainFile(path, RecoveryMode::kStrict);
        } catch (const std::exception &) {
            threw = true;
        }
        EXPECT_TRUE(threw)
            << "flip #" << i << " at offset " << offset << " (mask 0x"
            << std::hex << int(mask) << std::dec
            << ") was silently accepted in kStrict mode";
    }
}

TEST(TraceCorruptionFuzz, SkipCorruptDropsExactlyTheDamagedChunk)
{
    const std::vector<std::uint8_t> &pristine = pristineTraceBytes();
    const std::vector<ChunkSpan> chunks = parseChunks(pristine);
    ASSERT_GE(chunks.size(), 2u)
        << "need multiple chunks to prove per-chunk isolation";

    const auto ref_path = tempPath("fuzz_skip_ref.cbt2");
    writeBytes(ref_path, pristine);
    const std::vector<BranchRecord> reference =
        drainFile(ref_path, RecoveryMode::kStrict);

    const auto path = tempPath("fuzz_skip.cbt2");
    Rng rng(0xBADC0FFEu);
    constexpr int kFlips = 48;
    for (int i = 0; i < kFlips; ++i) {
        // Choose a victim chunk, then flip a byte confined to its
        // payload+CRC region — the chunk header stays intact so the
        // reader can still resynchronize at the next chunk.
        const std::size_t victim =
            static_cast<std::size_t>(rng.nextBelow(chunks.size()));
        const ChunkSpan &span = chunks[victim];
        const std::size_t offset =
            span.payloadBegin +
            static_cast<std::size_t>(
                rng.nextBelow(span.end - span.payloadBegin));
        const auto mask =
            static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        std::vector<std::uint8_t> mutated = pristine;
        mutated[offset] ^= mask;
        writeBytes(path, mutated);

        SCOPED_TRACE("flip #" + std::to_string(i) + " chunk " +
                     std::to_string(victim) + " offset " +
                     std::to_string(offset));
        TraceFileReader reader(path.string(),
                               RecoveryMode::kSkipCorrupt);
        std::uint64_t hook_calls = 0;
        std::uint64_t hook_chunk = 0;
        std::uint64_t hook_dropped = 0;
        reader.setCorruptionHook([&](const std::string &,
                                     std::uint64_t chunk_index,
                                     std::uint64_t dropped) {
            ++hook_calls;
            hook_chunk = chunk_index;
            hook_dropped = dropped;
        });
        std::vector<BranchRecord> delivered;
        BranchRecord record;
        while (reader.next(record))
            delivered.push_back(record);

        // Accounting: exactly the victim chunk's records vanished.
        EXPECT_EQ(reader.droppedRecords(), span.records);
        EXPECT_EQ(delivered.size(), reference.size() - span.records);
        EXPECT_EQ(hook_calls, 1u);
        EXPECT_EQ(hook_chunk, victim + 1); // hook reports 1-based
        EXPECT_EQ(hook_dropped, span.records);

        // Content: the survivors are bit-identical to the pristine
        // sequence with the damaged chunk excised.
        std::uint64_t chunk_first = 0;
        for (std::size_t c = 0; c < victim; ++c)
            chunk_first += chunks[c].records;
        bool match = true;
        for (std::size_t r = 0; r < delivered.size(); ++r) {
            const std::size_t ref_index =
                r < chunk_first
                    ? r
                    : r + static_cast<std::size_t>(span.records);
            if (!(delivered[r] == reference[ref_index])) {
                match = false;
                break;
            }
        }
        EXPECT_TRUE(match) << "a surviving record was altered";
    }
}

TEST(CheckpointCorruptionFuzz, AnySingleByteFlipIsRejected)
{
    // A real checkpoint: predictor + estimator components on top of
    // the header metadata, just like the driver writes.
    GsharePredictor predictor(1024, 10);
    OneLevelCounterConfidence estimator(IndexScheme::PcXorBhr, 512,
                                        CounterKind::Resetting, 16, 0);
    {
        const auto suite = BenchmarkSuite::ibsSmall(4'000);
        const auto source = suite.makeGenerator(1);
        BranchRecord record;
        BranchContext ctx;
        while (source->next(record)) {
            if (!record.isConditional())
                continue;
            ctx.pc = record.pc;
            const bool correct =
                predictor.predict(record.pc) == record.taken;
            estimator.bucketOf(ctx);
            estimator.update(ctx, correct, record.taken);
            predictor.update(record.pc, record.taken);
        }
    }
    Checkpoint ckpt;
    ckpt.label = "fuzz-checkpoint";
    ckpt.watermark = 4'321;
    ckpt.branches = 4'000;
    ckpt.addComponent("predictor:" + predictor.name(), predictor);
    ckpt.addComponent("estimator:" + estimator.name(), estimator);

    const auto path = tempPath("fuzz_ckpt.csk1");
    writeCheckpointFile(path.string(), ckpt);
    const std::vector<std::uint8_t> pristine = slurp(path);
    ASSERT_GT(pristine.size(), 32u);

    // Sanity: the unmutated file loads and matches.
    const Checkpoint reread = readCheckpointFile(path.string());
    EXPECT_EQ(reread.label, ckpt.label);
    EXPECT_EQ(reread.watermark, ckpt.watermark);
    EXPECT_EQ(reread.components().size(), ckpt.components().size());

    Rng rng(0xC5C5C5C5u);
    constexpr int kFlips = 200;
    for (int i = 0; i < kFlips; ++i) {
        // The whole-file CRC covers every byte, magic included.
        const std::size_t offset =
            static_cast<std::size_t>(rng.nextBelow(pristine.size()));
        const auto mask =
            static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        std::vector<std::uint8_t> mutated = pristine;
        mutated[offset] ^= mask;
        writeBytes(path, mutated);

        SCOPED_TRACE("flip #" + std::to_string(i) + " at offset " +
                     std::to_string(offset));
        bool threw = false;
        try {
            readCheckpointFile(path.string());
        } catch (const std::exception &) {
            threw = true;
        }
        EXPECT_TRUE(threw) << "corrupt checkpoint was accepted";

        // The tolerant inspector must flag the damage, not throw.
        const CheckpointInspection report = inspectCheckpoint(mutated);
        EXPECT_FALSE(report.valid());
    }
}

TEST(CheckpointCorruptionFuzz, TageStateSingleByteFlipIsRejected)
{
    // Same contract over the richest component layout we serialize: a
    // trained TAGE predictor (tagged tables + bimodal + history +
    // use_alt counter).
    TagePredictor predictor;
    {
        const auto suite = BenchmarkSuite::ibsSmall(4'000);
        const auto source = suite.makeGenerator(2);
        BranchRecord record;
        while (source->next(record)) {
            if (!record.isConditional())
                continue;
            (void)predictor.predict(record.pc);
            predictor.update(record.pc, record.taken);
        }
    }
    Checkpoint ckpt;
    ckpt.label = "fuzz-tage-checkpoint";
    ckpt.watermark = 8'765;
    ckpt.branches = 4'000;
    ckpt.addComponent("predictor:" + predictor.name(), predictor);

    const auto path = tempPath("fuzz_tage_ckpt.csk1");
    writeCheckpointFile(path.string(), ckpt);
    const std::vector<std::uint8_t> pristine = slurp(path);
    ASSERT_GT(pristine.size(), 32u);

    // Sanity: the unmutated file restores into a replica that writes
    // byte-identical state back out.
    {
        const Checkpoint reread = readCheckpointFile(path.string());
        TagePredictor restored;
        reread.restoreComponent("predictor:" + predictor.name(),
                                restored);
        StateWriter original_state;
        StateWriter restored_state;
        predictor.saveState(original_state);
        restored.saveState(restored_state);
        EXPECT_EQ(restored_state.bytes(), original_state.bytes());
    }

    Rng rng(0x7A6E7A6Eu);
    constexpr int kFlips = 200;
    for (int i = 0; i < kFlips; ++i) {
        const std::size_t offset =
            static_cast<std::size_t>(rng.nextBelow(pristine.size()));
        const auto mask =
            static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        std::vector<std::uint8_t> mutated = pristine;
        mutated[offset] ^= mask;
        writeBytes(path, mutated);

        SCOPED_TRACE("flip #" + std::to_string(i) + " at offset " +
                     std::to_string(offset));
        bool threw = false;
        try {
            readCheckpointFile(path.string());
        } catch (const std::exception &) {
            threw = true;
        }
        EXPECT_TRUE(threw) << "corrupt TAGE checkpoint was accepted";

        const CheckpointInspection report = inspectCheckpoint(mutated);
        EXPECT_FALSE(report.valid());
    }
}

} // namespace
} // namespace confsim
