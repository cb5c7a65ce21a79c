#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>


namespace densim {

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::cov() const
{
    const double m = mean();
    return m == 0.0 ? 0.0 : stddev() / m;
}

double
RunningStats::min() const
{
    return count_ ? min_ : std::numeric_limits<double>::infinity();
}

double
RunningStats::max() const
{
    return count_ ? max_ : -std::numeric_limits<double>::infinity();
}

double
mean(const std::vector<double> &xs)
{
    RunningStats s;
    for (double x : xs)
        s.add(x);
    return s.mean();
}

double
stddev(const std::vector<double> &xs)
{
    RunningStats s;
    for (double x : xs)
        s.add(x);
    return s.stddev();
}

double
coefficientOfVariation(const std::vector<double> &xs)
{
    RunningStats s;
    for (double x : xs)
        s.add(x);
    return s.cov();
}

} // namespace densim
