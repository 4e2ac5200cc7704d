/**
 * @file
 * Crash-safe file writes: stream into a `.tmp` sibling, fsync, then
 * atomically rename over the destination.
 *
 * POSIX rename(2) within one filesystem is atomic, so a reader (or a
 * restarted run) only ever observes either the previous complete file
 * or the new complete file — never a truncated artifact. This is the
 * same discipline databases use for their write-ahead segments, applied
 * here to checkpoints, telemetry sinks, CSV exports, and span traces.
 */

#ifndef CONFSIM_UTIL_ATOMIC_FILE_H
#define CONFSIM_UTIL_ATOMIC_FILE_H

#include <fstream>
#include <string>

namespace confsim {

/**
 * An output stream whose contents become visible at @p path only when
 * commit() succeeds. Until then all bytes live in `<path>.tmp`; an
 * abandoned or destroyed-uncommitted writer removes the temporary so
 * crashes never litter partial files under the final name.
 */
class AtomicFileWriter
{
  public:
    /** Open `<path>.tmp` for writing; fatal() if it cannot be opened. */
    explicit AtomicFileWriter(std::string path);

    /** Abandons (removes the temporary) unless commit() ran. */
    ~AtomicFileWriter();

    AtomicFileWriter(const AtomicFileWriter &) = delete;
    AtomicFileWriter &operator=(const AtomicFileWriter &) = delete;

    /** The stream feeding the temporary file. */
    std::ostream &stream() { return out_; }

    /**
     * Flush, fsync, and rename the temporary over the destination.
     * fatal() on any failure (the temporary is removed first).
     * Idempotent: a second call is a no-op.
     */
    void commit();

    /** Discard everything written; removes the temporary. */
    void abandon();

    const std::string &path() const { return path_; }
    const std::string &tmpPath() const { return tmpPath_; }
    bool committed() const { return committed_; }

  private:
    std::string path_;
    std::string tmpPath_;
    std::ofstream out_;
    bool committed_ = false;
    bool abandoned_ = false;
};

/** One-shot atomic write of @p content to @p path. */
void atomicWriteFile(const std::string &path, const std::string &content);

} // namespace confsim

#endif // CONFSIM_UTIL_ATOMIC_FILE_H
