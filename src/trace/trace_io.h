/**
 * @file
 * The binary branch-trace file format (".cbt" — conditional branch
 * trace), CBT2:
 *
 *   header:  magic "CBT2" (4 bytes), record count (LE u64),
 *            CRC32 of the count field (LE u32)
 *   chunks:  records are grouped into chunks of up to kChunkRecords,
 *            and the PC delta chain restarts at every chunk boundary
 *            so one lost chunk cannot corrupt the next. Each chunk is:
 *     u32     sync marker "CHNK"
 *     u32     payload size in bytes (LE)
 *     u32     record count in this chunk (LE)
 *     bytes   payload (the encoded records)
 *     u32     CRC32 of the payload (LE)
 *   records: per record, in the payload —
 *     varint  zig-zag delta of (pc >> 2) from previous record's pc >> 2
 *     varint  zig-zag delta of (target >> 2) from this record's pc >> 2
 *     u8      flags: bit0 = taken, bits1-2 = BranchType
 *
 * The retired CBT1 format carried no checksums. A file with its magic
 * fails with Error{kTrace} naming the format, so one flipped magic
 * byte cannot make the reader decode a CBT2 file without its checks.
 *
 * A flipped bit anywhere in a chunk fails the footer CRC; a flipped bit
 * in the chunk header fails the marker, the size bound, or the
 * record-count cross-check. TraceFileReader either throws on the first
 * such error (RecoveryMode::kStrict, the default) or resynchronizes at
 * the next chunk and reports how many records were lost
 * (RecoveryMode::kSkipCorrupt).
 *
 * Delta + varint encoding exploits spatial locality: typical traces
 * compress to ~3 bytes/record. A human-readable text format ("pc target
 * taken type" per line) is provided for debugging.
 */

#ifndef CONFSIM_TRACE_TRACE_IO_H
#define CONFSIM_TRACE_TRACE_IO_H

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "trace/trace_source.h"

namespace confsim {

/** How TraceFileReader reacts to corruption. */
enum class RecoveryMode : std::uint8_t
{
    kStrict = 0,     //!< throw on the first integrity violation
    kSkipCorrupt = 1 //!< resync at the next chunk; count dropped records
};

/** Streaming writer for the binary trace format. */
class TraceWriter
{
  public:
    /** Records per chunk (the CRC/resync granularity). */
    static constexpr std::uint64_t kChunkRecords = 4096;

    /** Open @p path; calls fatal() on failure. */
    explicit TraceWriter(const std::string &path);

    /** Append one record. */
    void append(const BranchRecord &record);

    /**
     * Flush pending data, patch the header record count, and close the
     * file. Calling finish() twice is a usage error and throws; the
     * destructor finalizes automatically (and swallows I/O errors, as
     * destructors must) if finish() was never called — e.g. during
     * exception unwind — so the header never claims the wrong count.
     */
    void finish();

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

  private:
    void flushChunk();
    void finishImpl();
    void appendVarint(std::uint64_t value);

    std::ofstream out_;
    std::string path_;
    std::vector<char> chunk_;         //!< pending chunk payload
    std::uint64_t chunkRecords_ = 0;  //!< records in chunk_
    std::uint64_t count_ = 0;
    std::uint64_t prevPcWord_ = 0;
    bool finished_ = false;
};

/** Streaming reader for the binary trace format; a TraceSource. */
class TraceFileReader : public TraceSource
{
  public:
    /**
     * Open @p path; calls fatal() on open or header errors, among them
     * a magic other than "CBT2".
     *
     * @param mode Corruption handling.
     */
    explicit TraceFileReader(const std::string &path,
                             RecoveryMode mode = RecoveryMode::kStrict);

    bool next(BranchRecord &record) override;
    void reset() override;

    /** @return total records promised by the header. */
    std::uint64_t recordCount() const { return count_; }

    /**
     * @return records lost to corruption (kSkipCorrupt only).
     * Final once next() has returned false.
     */
    std::uint64_t droppedRecords() const;

    /**
     * Observer invoked each time kSkipCorrupt recovery skips over a
     * damaged region: @p what names the violation (same wording as
     * the kStrict error), @p chunk_index is the 1-based chunk the
     * reader had reached, and @p dropped_records is how many records
     * that skip is known to have cost (0 when the chunk's own count
     * was unreadable — the header count reconciles the total). Wired
     * to telemetry so corrupt-chunk events appear in run JSONL.
     */
    using CorruptionHook = std::function<void(
        const std::string &what, std::uint64_t chunk_index,
        std::uint64_t dropped_records)>;

    /** Install a corruption observer (empty = none). */
    void setCorruptionHook(CorruptionHook hook)
    {
        corruptionHook_ = std::move(hook);
    }

  private:
    void readHeader();
    void skipped(const std::string &what, std::uint64_t dropped);
    bool loadNextChunk();
    bool resyncToMarker();
    void corrupt(const std::string &what);
    bool decodeFromChunk(BranchRecord &record);

    std::ifstream in_;
    std::string path_;
    RecoveryMode mode_;
    std::uint64_t count_ = 0;
    bool countTrusted_ = true;
    std::uint64_t produced_ = 0;
    std::uint64_t prevPcWord_ = 0;
    bool exhausted_ = false;

    // Chunk state.
    std::vector<char> chunk_;
    std::size_t chunkPos_ = 0;
    std::uint64_t chunkRecordsLeft_ = 0;
    std::uint64_t chunkIndex_ = 0;
    std::uint64_t dropped_ = 0; //!< from chunks with a known count
    CorruptionHook corruptionHook_;
};

/**
 * Copy every record of @p source to a binary trace file.
 * @return the number of records written.
 */
std::uint64_t writeTraceFile(TraceSource &source, const std::string &path);

/** Write @p source to the debug text format ("pc target taken type"). */
std::uint64_t writeTextTrace(TraceSource &source, const std::string &path);

/**
 * Streaming reader for the text trace format; a TraceSource. One
 * record per line: "0x<pc> 0x<target> T|N <type>", as produced by
 * writeTextTrace(). Intended for interchange with external tools
 * (awk-able, diff-able) and for hand-written test traces; the binary
 * format is the performance path. Blank lines and lines starting with
 * '#' are skipped.
 */
class TextTraceReader : public TraceSource
{
  public:
    /** Open @p path; calls fatal() on failure. */
    explicit TextTraceReader(const std::string &path);

    bool next(BranchRecord &record) override;
    void reset() override;

  private:
    std::ifstream in_;
    std::string path_;
    std::uint64_t lineNumber_ = 0;
};

/** Zig-zag encode a signed delta into an unsigned varint payload. */
constexpr std::uint64_t
zigZagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

/** Inverse of zigZagEncode. */
constexpr std::int64_t
zigZagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

} // namespace confsim

#endif // CONFSIM_TRACE_TRACE_IO_H
