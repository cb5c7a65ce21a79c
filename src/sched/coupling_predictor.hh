/**
 * @file
 * CouplingPredictor (CP) — the paper's proposed scheduler
 * (Sec. IV-C).
 *
 * CP extends Predictive with awareness of inter-socket thermal
 * coupling: for each candidate socket it predicts not only the
 * frequency the job itself would sustain there, but also how much the
 * added heat would slow every busy socket downstream, and chooses the
 * placement with the best *net* frequency benefit. Given a socket
 * that runs the job at 1700 MHz but costs two downstream sockets
 * 300 MHz total, and one that runs it at 1600 MHz costing nothing,
 * CP picks the second.
 *
 * Mechanics follow the paper: when jobs are pending the scheduler
 * picks a row of cartridges with idle sockets at random and evaluates
 * only candidates within that row — keeping the scheduler cheap. The
 * prediction chain is the simple linear machinery (coupling-table
 * lookup, Eq. (1), two-pass leakage compensation), never the detailed
 * evaluation models.
 *
 * Two knobs exist for the ablation benches only: a downstream weight
 * (0 reduces CP to row-restricted Predictive) and a global-search
 * flag (evaluate all idle sockets instead of one random row).
 */

#ifndef DENSIM_SCHED_COUPLING_PREDICTOR_HH
#define DENSIM_SCHED_COUPLING_PREDICTOR_HH

#include "sched/scheduler.hh"

namespace densim {

/** The proposed coupling-aware predictive policy. */
class CouplingPredictor : public Scheduler
{
  public:
    /**
     * @param downstream_weight Weight on the predicted downstream
     *        frequency penalty (paper: 1).
     * @param global_search Evaluate all idle sockets instead of a
     *        random row (paper: false).
     */
    explicit CouplingPredictor(double downstream_weight = 1.0,
                               bool global_search = false);

    const char *name() const override { return "CP"; }
    DENSIM_ALLOCATES(
        "row-tally fallback for contexts without engine row counts; "
        "the engine path allocates nothing")
    std::size_t pick(const Job &job, const SchedContext &ctx) override;

    double downstreamWeight() const { return downstreamWeight_; }
    bool globalSearch() const { return globalSearch_; }

  private:
    std::size_t pickWithin(const Job &job, const SchedContext &ctx,
                           const std::size_t *candidates,
                           std::size_t count);

    double downstreamWeight_;
    bool globalSearch_;
    // Per-row idle tally used only when the context carries no
    // engine row counts (hand-built test contexts).
    std::vector<int> rowCountsFallback_;
};

} // namespace densim

#endif // DENSIM_SCHED_COUPLING_PREDICTOR_HH
