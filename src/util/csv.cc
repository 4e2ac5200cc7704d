#include "util/csv.h"

#include <cstdio>
#include <exception>

namespace confsim {

CsvWriter::CsvWriter(const std::string &path)
    : out_(path), uncaughtAtOpen_(std::uncaught_exceptions())
{}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            out_.stream() << ',';
        out_.stream() << escapeCell(cells[i]);
    }
    out_.stream() << '\n';
}

void
CsvWriter::close()
{
    out_.commit();
}

CsvWriter::~CsvWriter()
{
    // Unwinding: out_'s destructor abandons the temporary.
    if (std::uncaught_exceptions() > uncaughtAtOpen_)
        return;
    // commit() can fatal() (throw); destructors must not. A failure
    // here leaves no temporary behind and the destination untouched.
    try {
        close();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[confsim] CSV close failed: %s\n",
                     e.what());
    }
}

std::string
CsvWriter::escapeCell(const std::string &cell)
{
    const bool needs_quotes =
        cell.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace confsim
