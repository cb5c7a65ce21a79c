/**
 * @file
 * Fixed-width text table writer.
 *
 * Every bench binary regenerates one of the paper's tables or figure
 * series; TableWriter renders the rows as aligned text for the
 * console, so the output format is uniform across experiments.
 * Machine-readable output (`densim --csv`, `--json`) goes through
 * core/metrics_io.
 */

#ifndef DENSIM_UTIL_TABLE_HH
#define DENSIM_UTIL_TABLE_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace densim {

/**
 * Builder for a rectangular table of string cells with a header row.
 * Numeric helpers format with a fixed precision.
 */
class TableWriter
{
  public:
    /** Create a table with the given column headers. */
    explicit TableWriter(std::vector<std::string> headers);

    /** Start a new (empty) row. */
    TableWriter &newRow();

    /** Append a string cell to the current row. */
    TableWriter &cell(const std::string &value);

    /** Append a formatted numeric cell (fixed, @p precision digits). */
    TableWriter &cell(double value, int precision = 2);

    /** Append an integer cell. */
    TableWriter &cell(long long value);

    /** Number of data rows so far. */
    std::size_t rows() const { return rows_.size(); }

    /** Render as an aligned text table. */
    std::string toText() const;

    /** Write the text rendering to @p os. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision (helper shared with benches). */
std::string formatFixed(double value, int precision);

} // namespace densim

#endif // DENSIM_UTIL_TABLE_HH
