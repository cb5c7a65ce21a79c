/**
 * @file
 * Balanced Locations (Balanced-L) [55] (Sec. IV-A): assign work to
 * the locations expected to be coolest purely by position — for a
 * dense server, the sockets closest to the air inlets. Ties (one
 * zone spans many rows) break randomly to spread load across rows.
 */

#ifndef DENSIM_SCHED_BALANCED_LOCATIONS_HH
#define DENSIM_SCHED_BALANCED_LOCATIONS_HH

#include "sched/scheduler.hh"

namespace densim {

/** Location-based (inlet-first) policy. */
class BalancedLocations : public Scheduler
{
  public:
    const char *name() const override { return "Balanced-L"; }
    DENSIM_ALLOCATES(
        "stream-position cache resized to topology size on first use "
        "and when the topology changes; no steady-state growth")
    std::size_t pick(const Job &job, const SchedContext &ctx) override;

  private:
    std::vector<double> pos_; //!< Cached stream positions.
    const ServerTopology *cachedFor_ = nullptr;
};

} // namespace densim

#endif // DENSIM_SCHED_BALANCED_LOCATIONS_HH
