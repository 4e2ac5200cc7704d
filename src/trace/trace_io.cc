#include "trace/trace_io.h"

#include <array>
#include <cstdio>

#include "util/crc32.h"
#include "util/error.h"
#include "util/status.h"

namespace confsim {

namespace {

constexpr std::array<char, 4> kMagic = {'C', 'B', 'T', '2'};
/** The retired, unchecksummed format's magic; refused by name. */
constexpr std::array<char, 4> kRetiredMagic = {'C', 'B', 'T', '1'};
constexpr std::array<char, 4> kChunkMarker = {'C', 'H', 'N', 'K'};
constexpr std::size_t kHeaderSize = 16;

/**
 * Upper bound a well-formed chunk payload can have: kChunkRecords
 * records of at most 21 bytes (two 10-byte varints + flags). Anything
 * larger is a corrupt size field, not a real chunk.
 */
constexpr std::uint32_t kMaxChunkPayload =
    static_cast<std::uint32_t>(TraceWriter::kChunkRecords * 21);

void
writeLe32(std::ofstream &out, std::uint32_t value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : out_(path, std::ios::binary), path_(path)
{
    if (!out_)
        fatal(ErrorCategory::kTrace, "cannot open trace file for writing: " + path);
    out_.write(kMagic.data(), kMagic.size());
    // Placeholder count and its CRC; patched by finish().
    const std::uint64_t zero = 0;
    out_.write(reinterpret_cast<const char *>(&zero), sizeof(zero));
    writeLe32(out_, 0);
    chunk_.reserve(kChunkRecords * 4);
}

void
TraceWriter::append(const BranchRecord &record)
{
    if (finished_)
        panic("TraceWriter::append after finish");
    const std::uint64_t pc_word = record.pc >> 2;
    const std::uint64_t target_word = record.target >> 2;
    appendVarint(zigZagEncode(
        static_cast<std::int64_t>(pc_word - prevPcWord_)));
    appendVarint(zigZagEncode(
        static_cast<std::int64_t>(target_word - pc_word)));
    const std::uint8_t flags =
        (record.taken ? 1 : 0) |
        (static_cast<std::uint8_t>(record.type) << 1);
    prevPcWord_ = pc_word;
    ++count_;
    chunk_.push_back(static_cast<char>(flags));
    // flushChunk() restarts the delta chain, so it must run after
    // prevPcWord_ is updated for this record.
    if (++chunkRecords_ == kChunkRecords)
        flushChunk();
}

void
TraceWriter::flushChunk()
{
    if (chunkRecords_ == 0)
        return;
    out_.write(kChunkMarker.data(), kChunkMarker.size());
    writeLe32(out_, static_cast<std::uint32_t>(chunk_.size()));
    writeLe32(out_, static_cast<std::uint32_t>(chunkRecords_));
    out_.write(chunk_.data(),
               static_cast<std::streamsize>(chunk_.size()));
    writeLe32(out_, crc32(chunk_.data(), chunk_.size()));
    chunk_.clear();
    chunkRecords_ = 0;
    // The delta chain restarts per chunk so chunks decode
    // independently (a skipped chunk must not poison its successor).
    prevPcWord_ = 0;
}

void
TraceWriter::finish()
{
    if (finished_)
        fatal(ErrorCategory::kTrace, "TraceWriter::finish called twice for " + path_);
    finishImpl();
}

void
TraceWriter::finishImpl()
{
    finished_ = true;
    flushChunk();
    out_.seekp(kMagic.size());
    out_.write(reinterpret_cast<const char *>(&count_), sizeof(count_));
    writeLe32(out_, crc32(&count_, sizeof(count_)));
    out_.close();
    if (!out_)
        fatal(ErrorCategory::kTrace, "error finalizing trace file: " + path_);
}

TraceWriter::~TraceWriter()
{
    if (finished_)
        return;
    // Auto-finish so the header never claims a stale record count, but
    // never throw out of a destructor (we may be unwinding already).
    try {
        finishImpl();
    } catch (...) {
    }
}

void
TraceWriter::appendVarint(std::uint64_t value)
{
    while (value >= 0x80) {
        chunk_.push_back(static_cast<char>((value & 0x7F) | 0x80));
        value >>= 7;
    }
    chunk_.push_back(static_cast<char>(value));
}

TraceFileReader::TraceFileReader(const std::string &path,
                                 RecoveryMode mode)
    : in_(path, std::ios::binary), path_(path), mode_(mode)
{
    if (!in_)
        fatal(ErrorCategory::kTrace, "cannot open trace file: " + path);
    readHeader();
}

void
TraceFileReader::readHeader()
{
    std::array<char, 4> magic{};
    in_.read(magic.data(), magic.size());
    if (!in_)
        fatal(ErrorCategory::kTrace, "not a CBT trace file (short header): " + path_);
    if (magic == kRetiredMagic) {
        fatal(ErrorCategory::kTrace,
              "CBT1 is a retired trace format without checksums; "
              "re-record the trace as CBT2: " + path_);
    }
    if (magic != kMagic)
        fatal(ErrorCategory::kTrace, "not a CBT2 trace file: " + path_);
    in_.read(reinterpret_cast<char *>(&count_), sizeof(count_));
    std::uint32_t header_crc = 0;
    in_.read(reinterpret_cast<char *>(&header_crc), sizeof(header_crc));
    if (!in_)
        fatal(ErrorCategory::kTrace, "truncated trace header: " + path_);
    if (crc32(&count_, sizeof(count_)) != header_crc) {
        if (mode_ == RecoveryMode::kStrict) {
            fatal(ErrorCategory::kTrace, "corrupt trace header (record-count CRC "
                  "mismatch): " + path_);
        }
        // Recoverable: read what the chunks hold and account for
        // drops from per-chunk counts instead of the header.
        countTrusted_ = false;
    }
}

void
TraceFileReader::corrupt(const std::string &what)
{
    fatal(ErrorCategory::kTrace, what + " (chunk " + std::to_string(chunkIndex_) +
          ", record " + std::to_string(produced_) + ") in " + path_);
}

void
TraceFileReader::skipped(const std::string &what, std::uint64_t dropped)
{
    if (corruptionHook_)
        corruptionHook_(what, chunkIndex_, dropped);
}

bool
TraceFileReader::next(BranchRecord &record)
{
    if (exhausted_)
        return false;
    for (;;) {
        if (chunkRecordsLeft_ > 0) {
            if (decodeFromChunk(record)) {
                ++produced_;
                return true;
            }
            continue; // chunk abandoned (kSkipCorrupt); try the next
        }
        if (!loadNextChunk()) {
            exhausted_ = true;
            if (mode_ == RecoveryMode::kStrict &&
                produced_ != count_) {
                fatal(ErrorCategory::kTrace, "trace record count mismatch: header promises " +
                      std::to_string(count_) + ", file contains " +
                      std::to_string(produced_) + ": " + path_);
            }
            return false;
        }
    }
}

bool
TraceFileReader::loadNextChunk()
{
    bool have_marker = false;
    for (;;) {
        if (!have_marker) {
            std::array<char, 4> marker{};
            in_.read(marker.data(), marker.size());
            const std::streamsize got = in_.gcount();
            if (got == 0)
                return false; // clean EOF at a chunk boundary
            if (got < 4 || marker != kChunkMarker) {
                const char *what = got < 4 ? "truncated chunk header"
                                           : "bad chunk sync marker";
                if (mode_ == RecoveryMode::kStrict)
                    corrupt(what);
                skipped(what, 0);
                in_.clear();
                if (!resyncToMarker())
                    return false;
            }
        }
        have_marker = false;

        std::uint32_t payload_size = 0;
        std::uint32_t chunk_count = 0;
        in_.read(reinterpret_cast<char *>(&payload_size),
                 sizeof(payload_size));
        in_.read(reinterpret_cast<char *>(&chunk_count),
                 sizeof(chunk_count));
        if (!in_) {
            if (mode_ == RecoveryMode::kStrict)
                corrupt("truncated chunk header");
            return false; // tail lost; header count settles the drops
        }
        // Plausibility: a record encodes to >= 3 bytes, so a count
        // that cannot fit the payload (or an absurd payload size)
        // means the header itself took the hit.
        if (payload_size > kMaxChunkPayload ||
            static_cast<std::uint64_t>(chunk_count) * 3 >
                payload_size) {
            if (mode_ == RecoveryMode::kStrict)
                corrupt("implausible chunk header");
            skipped("implausible chunk header", 0);
            in_.clear();
            if (!resyncToMarker())
                return false;
            have_marker = true;
            continue;
        }

        chunk_.resize(payload_size);
        in_.read(chunk_.data(),
                 static_cast<std::streamsize>(payload_size));
        std::uint32_t footer_crc = 0;
        in_.read(reinterpret_cast<char *>(&footer_crc),
                 sizeof(footer_crc));
        if (!in_) {
            if (mode_ == RecoveryMode::kStrict)
                corrupt("truncated chunk");
            return false;
        }
        ++chunkIndex_;
        if (crc32(chunk_.data(), chunk_.size()) != footer_crc) {
            if (mode_ == RecoveryMode::kStrict)
                corrupt("chunk CRC mismatch");
            skipped("chunk CRC mismatch", chunk_count);
            dropped_ += chunk_count;
            continue; // positioned at the next chunk boundary
        }
        if (chunk_count == 0)
            continue;
        chunkPos_ = 0;
        chunkRecordsLeft_ = chunk_count;
        prevPcWord_ = 0;
        return true;
    }
}

bool
TraceFileReader::resyncToMarker()
{
    // Scan the byte stream for the next "CHNK" sync marker. The four
    // marker bytes are pairwise distinct, so on mismatch the only
    // possible restart is a fresh 'C'.
    std::size_t matched = 0;
    for (;;) {
        const int c = in_.get();
        if (c < 0)
            return false;
        if (c == kChunkMarker[matched]) {
            if (++matched == kChunkMarker.size())
                return true;
        } else {
            matched = (c == kChunkMarker[0]) ? 1 : 0;
        }
    }
}

bool
TraceFileReader::decodeFromChunk(BranchRecord &record)
{
    // The payload passed its CRC, so a decode failure here means the
    // chunk header's record count disagrees with the payload.
    const auto fail = [this](const char *what) -> bool {
        if (mode_ == RecoveryMode::kStrict)
            corrupt(what);
        skipped(what, chunkRecordsLeft_);
        dropped_ += chunkRecordsLeft_; // best effort; the header
                                       // count reconciles the total
        chunkRecordsLeft_ = 0;
        chunkPos_ = chunk_.size();
        return false;
    };

    std::uint64_t raw[2] = {0, 0};
    for (auto &value : raw) {
        unsigned shift = 0;
        unsigned bytes = 0;
        for (;;) {
            if (chunkPos_ >= chunk_.size())
                return fail("record payload exhausted mid-varint");
            const auto byte =
                static_cast<std::uint8_t>(chunk_[chunkPos_++]);
            if (++bytes > 10)
                return fail("overlong varint (> 10 bytes)");
            value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0)
                break;
            shift += 7;
        }
    }
    if (chunkPos_ >= chunk_.size())
        return fail("record payload exhausted before flags");
    const auto flags = static_cast<std::uint8_t>(chunk_[chunkPos_++]);

    const std::uint64_t pc_word =
        prevPcWord_ + static_cast<std::uint64_t>(zigZagDecode(raw[0]));
    const std::uint64_t target_word =
        pc_word + static_cast<std::uint64_t>(zigZagDecode(raw[1]));
    record.pc = pc_word << 2;
    record.target = target_word << 2;
    record.taken = (flags & 1) != 0;
    record.type = static_cast<BranchType>((flags >> 1) & 0x3);
    prevPcWord_ = pc_word;

    if (--chunkRecordsLeft_ == 0 && chunkPos_ != chunk_.size()) {
        if (mode_ == RecoveryMode::kStrict)
            corrupt("chunk record-count cross-check failed "
                    "(unused payload)");
        chunkPos_ = chunk_.size();
    }
    return true;
}

std::uint64_t
TraceFileReader::droppedRecords() const
{
    // With a trusted header, "promised minus delivered" is exact even
    // when resync lost chunks whose own counts were unreadable.
    if (countTrusted_ && exhausted_)
        return count_ > produced_ ? count_ - produced_ : 0;
    return dropped_;
}

void
TraceFileReader::reset()
{
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(kHeaderSize));
    produced_ = 0;
    prevPcWord_ = 0;
    exhausted_ = false;
    chunk_.clear();
    chunkPos_ = 0;
    chunkRecordsLeft_ = 0;
    chunkIndex_ = 0;
    dropped_ = 0;
}

TextTraceReader::TextTraceReader(const std::string &path)
    : in_(path), path_(path)
{
    if (!in_)
        fatal(ErrorCategory::kTrace, "cannot open text trace file: " + path);
}

bool
TextTraceReader::next(BranchRecord &record)
{
    std::string line;
    while (std::getline(in_, line)) {
        ++lineNumber_;
        // Skip blanks and comments.
        std::size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;

        const auto bad = [this]() -> bool {
            fatal(ErrorCategory::kTrace, "malformed text trace line " +
                  std::to_string(lineNumber_) + " in " + path_);
        };

        char taken_char = 0;
        int type_value = -1;
        unsigned long long pc = 0;
        unsigned long long target = 0;
        const int fields =
            std::sscanf(line.c_str() + start, "%llx %llx %c %d", &pc,
                        &target, &taken_char, &type_value);
        if (fields != 4)
            return bad();
        if (taken_char != 'T' && taken_char != 'N')
            return bad();
        if (type_value < 0 || type_value > 3)
            return bad();

        record.pc = pc;
        record.target = target;
        record.taken = (taken_char == 'T');
        record.type = static_cast<BranchType>(type_value);
        return true;
    }
    return false;
}

void
TextTraceReader::reset()
{
    in_.clear();
    in_.seekg(0);
    lineNumber_ = 0;
}

std::uint64_t
writeTraceFile(TraceSource &source, const std::string &path)
{
    TraceWriter writer(path);
    BranchRecord record;
    std::uint64_t n = 0;
    while (source.next(record)) {
        writer.append(record);
        ++n;
    }
    writer.finish();
    return n;
}

std::uint64_t
writeTextTrace(TraceSource &source, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal(ErrorCategory::kTrace, "cannot open text trace for writing: " + path);
    BranchRecord record;
    std::uint64_t n = 0;
    while (source.next(record)) {
        out << std::hex << "0x" << record.pc << " 0x" << record.target
            << std::dec << ' ' << (record.taken ? 'T' : 'N') << ' '
            << static_cast<int>(record.type) << '\n';
        ++n;
    }
    return n;
}

} // namespace confsim
