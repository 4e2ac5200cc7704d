/**
 * @file
 * Minimal CSV writer used by the bench harnesses to save every figure's
 * data series next to the terminal output.
 */

#ifndef CONFSIM_UTIL_CSV_H
#define CONFSIM_UTIL_CSV_H

#include <string>
#include <vector>

#include "util/atomic_file.h"

namespace confsim {

/**
 * Writes rows of string/number cells to a CSV file. Cells containing
 * commas, quotes, or newlines are quoted per RFC 4180.
 *
 * Output is crash-safe: rows accumulate in a `.tmp` sibling and the
 * destination appears (atomically, complete) only at close(), so an
 * interrupted run never leaves a truncated CSV under the final name.
 * A writer whose scope an exception leaves publishes nothing.
 */
class CsvWriter
{
  public:
    /** Open the `.tmp` sibling of @p path; fatal() on failure. */
    explicit CsvWriter(const std::string &path);

    /** Write a row of pre-formatted cells. */
    void writeRow(const std::vector<std::string> &cells);

    /** Publish the file atomically. */
    void close();

    /**
     * close() on a normal scope exit; when an exception unwinds the
     * scope the rows are incomplete, so the `.tmp` is removed instead.
     */
    ~CsvWriter();

    CsvWriter(const CsvWriter &) = delete;
    CsvWriter &operator=(const CsvWriter &) = delete;

  private:
    static std::string escapeCell(const std::string &cell);

    AtomicFileWriter out_;
    int uncaughtAtOpen_; //!< std::uncaught_exceptions() at construction
};

} // namespace confsim

#endif // CONFSIM_UTIL_CSV_H
