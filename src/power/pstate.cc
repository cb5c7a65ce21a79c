#include "power/pstate.hh"

#include "util/logging.hh"

namespace densim {

PStateTable::PStateTable(std::vector<PState> table_states)
    : states_(std::move(table_states))
{
    if (states_.empty())
        fatal("PStateTable: no states");
    for (std::size_t i = 1; i < states_.size(); ++i) {
        if (states_[i].freqMhz <= states_[i - 1].freqMhz)
            fatal("PStateTable: frequencies must be strictly "
                  "ascending (",
                  states_[i - 1].freqMhz, " then ", states_[i].freqMhz,
                  ")");
        if (states_[i - 1].boost && !states_[i].boost)
            fatal("PStateTable: boost states must be the fastest "
                  "states");
    }
    for (std::size_t i = 0; i < states_.size(); ++i) {
        if (!states_[i].boost)
            sustainedIdx_ = i;
    }
    if (states_[sustainedIdx_].boost)
        fatal("PStateTable: all states are boost states");
}

const PStateTable &
PStateTable::x2150()
{
    static const PStateTable table(std::vector<PState>{
        {1100.0, false},
        {1300.0, false},
        {1500.0, false},
        {1700.0, true},
        {1900.0, true},
    });
    return table;
}

const PState &
PStateTable::at(std::size_t i) const
{
    if (i >= states_.size())
        panic("PStateTable: index ", i, " out of range (",
              states_.size(), ")");
    return states_[i];
}

double
PStateTable::relativeFreq(std::size_t i) const
{
    return at(i).freqMhz / fastest().freqMhz;
}

} // namespace densim
