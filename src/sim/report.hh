/**
 * @file
 * Plain-text table formatting for the figure registry: every figure
 * prints rows in the shape of the paper's table or figure it
 * regenerates.
 */

#ifndef SLPMT_SIM_REPORT_HH
#define SLPMT_SIM_REPORT_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace slpmt
{

/** Geometric mean of a list of ratios (the paper's summary metric). */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Fixed-width text table writer. */
class TableReport
{
  public:
    explicit TableReport(std::string title) : title(std::move(title)) {}

    void
    header(const std::vector<std::string> &cols)
    {
        columns = cols;
    }

    void
    row(const std::vector<std::string> &cells)
    {
        rows.push_back(cells);
    }

    /** Format a ratio like the paper ("1.57x"). */
    static std::string
    ratio(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2fx", v);
        return buf;
    }

    /** Format a percentage ("35.0%"). */
    static std::string
    percent(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f%%", v * 100.0);
        return buf;
    }

    static std::string
    num(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", v);
        return buf;
    }

    static std::string
    integer(std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        return buf;
    }

    void
    print(std::FILE *out = stdout) const
    {
        std::vector<std::size_t> widths(columns.size());
        for (std::size_t c = 0; c < columns.size(); ++c)
            widths[c] = columns[c].size();
        for (const auto &r : rows) {
            for (std::size_t c = 0; c < r.size() && c < widths.size();
                 ++c)
                widths[c] = std::max(widths[c], r[c].size());
        }

        std::fprintf(out, "\n== %s ==\n", title.c_str());
        auto print_row = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < columns.size(); ++c) {
                const std::string &cell =
                    c < cells.size() ? cells[c] : std::string();
                std::fprintf(out, "%-*s  ",
                             static_cast<int>(widths[c]), cell.c_str());
            }
            std::fprintf(out, "\n");
        };
        print_row(columns);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        std::fprintf(out, "%s\n", std::string(total, '-').c_str());
        for (const auto &r : rows)
            print_row(r);
    }

  private:
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
};

} // namespace slpmt

#endif // SLPMT_SIM_REPORT_HH
