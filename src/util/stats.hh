/**
 * @file
 * Summary statistics used throughout densim: running (Welford)
 * accumulators and the coefficient of variation. The paper reports
 * means and coefficients of variation (Figs. 5b, 6b), so these are
 * core reporting primitives rather than test-only helpers.
 */

#ifndef DENSIM_UTIL_STATS_HH
#define DENSIM_UTIL_STATS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace densim {

/**
 * Single-pass mean/variance/min/max accumulator (Welford's method).
 * Numerically stable for long simulations accumulating millions of
 * per-job samples.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x)
    {
        if (count_ == 0) {
            min_ = x;
            max_ = x;
        } else {
            min_ = std::min(min_, x);
            max_ = std::max(max_, x);
        }
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
    }

    /** Merge another accumulator into this one (parallel reduction). */
    void merge(const RunningStats &other);

    /** Number of samples seen. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (0 when fewer than 2 samples). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Coefficient of variation: stddev / mean (0 when mean is 0). */
    double cov() const;

    /** Sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Smallest sample (+inf when empty). */
    double min() const;

    /** Largest sample (-inf when empty). */
    double max() const;

    /**
     * Raw accumulator words for checkpoint/restore. Welford state is
     * order-sensitive (mean_/m2_ carry the exact FP history of every
     * add()), so resume must reload these bits verbatim rather than
     * replay samples.
     */
    struct Snapshot
    {
        std::size_t count; //!< Samples seen.
        double mean;       //!< Running mean (raw, 0.0 when empty).
        double m2;         //!< Sum of squared deviations.
        double min;        //!< Raw min word (0.0 when empty).
        double max;        //!< Raw max word (0.0 when empty).
    };

    /** Capture the raw accumulator state. */
    Snapshot snapshot() const
    {
        return Snapshot{count_, mean_, m2_, min_, max_};
    }

    /** Reload a previously captured accumulator state verbatim. */
    void restore(const Snapshot &snap)
    {
        count_ = snap.count;
        mean_ = snap.mean;
        m2_ = snap.m2;
        min_ = snap.min;
        max_ = snap.max;
    }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Mean of a sample vector (0 when empty). */
double mean(const std::vector<double> &xs);

/** Population standard deviation of a sample vector. */
double stddev(const std::vector<double> &xs);

/**
 * Coefficient of variation of a sample vector, the paper's measure of
 * spread in Fig. 5(b) and Fig. 6(b): stddev / mean.
 */
double coefficientOfVariation(const std::vector<double> &xs);

} // namespace densim

#endif // DENSIM_UTIL_STATS_HH
