#include "util/table.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/logging.hh"

namespace densim {

std::string
formatFixed(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        panic("TableWriter requires at least one column");
}

TableWriter &
TableWriter::newRow()
{
    if (!rows_.empty() && rows_.back().size() != headers_.size())
        panic("TableWriter row has ", rows_.back().size(),
              " cells, expected ", headers_.size());
    rows_.emplace_back();
    return *this;
}

TableWriter &
TableWriter::cell(const std::string &value)
{
    if (rows_.empty())
        newRow();
    if (rows_.back().size() >= headers_.size())
        panic("TableWriter row overflow: more cells than headers");
    rows_.back().push_back(value);
    return *this;
}

TableWriter &
TableWriter::cell(double value, int precision)
{
    return cell(formatFixed(value, precision));
}

TableWriter &
TableWriter::cell(long long value)
{
    return cell(std::to_string(value));
}

std::string
TableWriter::toText() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string &val = c < row.size() ? row[c] : "";
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << val;
            os << (c + 1 == headers_.size() ? "\n" : "  ");
        }
    };
    emit_row(headers_);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << std::string(widths[c], '-')
           << (c + 1 == headers_.size() ? "\n" : "  ");
    }
    for (const auto &row : rows_)
        emit_row(row);
    return os.str();
}

void
TableWriter::print(std::ostream &os) const
{
    os << toText();
}

} // namespace densim
