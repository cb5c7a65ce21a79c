/**
 * @file
 * Processor performance states (P-states).
 *
 * The AMD Opteron X2150 of the SUT runs from 1100 MHz to 1900 MHz in
 * 200 MHz steps (Table III); the top two states (1700, 1900 MHz) are
 * boost states used opportunistically when thermal headroom exists,
 * and 1500 MHz is the highest sustained (non-boost) frequency
 * (Sec. III-D, [36]).
 */

#ifndef DENSIM_POWER_PSTATE_HH
#define DENSIM_POWER_PSTATE_HH

#include <cstddef>
#include <vector>

namespace densim {

/** One frequency step. */
struct PState
{
    double freqMhz; //!< Core frequency.
    bool boost;     //!< Opportunistic boost state?
};

/**
 * Ordered table of P-states, ascending in frequency. Index 0 is the
 * slowest state.
 */
class PStateTable
{
  public:
    /** Build from an ascending list of states, at least one of
     *  them sustained (non-boost). */
    explicit PStateTable(std::vector<PState> states);

    /** X2150 table: 1100/1300/1500 sustained + 1700/1900 boost. */
    static const PStateTable &x2150();

    std::size_t size() const { return states_.size(); }

    const PState &at(std::size_t i) const;

    /** Fastest state (boost included). */
    const PState &fastest() const { return states_.back(); }

    /** Slowest state. */
    const PState &slowest() const { return states_.front(); }

    /** Index of the highest non-boost state. */
    std::size_t highestSustainedIndex() const { return sustainedIdx_; }

    /** Frequency of state @p i relative to the fastest state. */
    double relativeFreq(std::size_t i) const;

  private:
    std::vector<PState> states_;
    std::size_t sustainedIdx_ = 0;
};

} // namespace densim

#endif // DENSIM_POWER_PSTATE_HH
