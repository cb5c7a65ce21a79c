/**
 * @file
 * Predictive scheduling [81][43] (Sec. IV-A): for every idle socket,
 * predict the temperature the socket would reach with the job on it,
 * derive the frequency it could sustain under the limit, and place
 * the job where it runs fastest. No awareness of what the placement
 * does to sockets downstream — that blind spot is what
 * CouplingPredictor fixes.
 *
 * It is CouplingPredictor with no downstream term, searching every
 * idle socket instead of one random row: the same prediction and the
 * same frequency / headroom / random tie-break.
 */

#ifndef DENSIM_SCHED_PREDICTIVE_HH
#define DENSIM_SCHED_PREDICTIVE_HH

#include "sched/coupling_predictor.hh"

namespace densim {

/** Fastest-predicted-socket policy. */
class Predictive : public CouplingPredictor
{
  public:
    Predictive() : CouplingPredictor(0.0, /*global_search=*/true) {}

    const char *name() const override { return "Predictive"; }
};

} // namespace densim

#endif // DENSIM_SCHED_PREDICTIVE_HH
