/**
 * @file
 * Probabilistic job arrival model (Sec. III-A / III-D).
 *
 * Jobs arrive by a Poisson process whose rate is set by the target
 * load: rate = load * sockets / mean-job-duration, so a load of L
 * keeps on average a fraction L of the sockets busy when nothing
 * throttles. Each job picks an application uniformly from the chosen
 * benchmark set and draws its nominal duration (time at 1900 MHz)
 * from that application's lognormal model.
 */

#ifndef DENSIM_WORKLOAD_JOB_GENERATOR_HH
#define DENSIM_WORKLOAD_JOB_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "util/rng.hh"
#include "workload/benchmark.hh"

namespace densim {

class CkptAccess; // Checkpoint serializer (src/ckpt), friend below.

/** One unit of work to schedule. */
struct Job
{
    std::uint64_t id;        //!< Monotonic id (arrival order).
    std::size_t benchmark;   //!< Index into pcmarkCatalog().
    WorkloadSet set;         //!< Set of that benchmark.
    double arrivalS;         //!< Arrival time, seconds.
    double nominalS;         //!< Duration at the highest
                             //!< sustained frequency, seconds.
};

/** Streaming generator of Job arrivals. */
class JobGenerator
{
  public:
    /**
     * @param set Benchmark set to draw from.
     * @param load Target utilization in (0, 1].
     * @param sockets Number of sockets in the system.
     * @param seed RNG seed (generator is deterministic given it).
     * @param max_duration_factor Truncation of the lognormal tail as
     *        a multiple of the application mean (keeps the heavy tail
     *        ~2 orders of magnitude, per Fig. 6a, while bounding
     *        simulation variance).
     */
    JobGenerator(WorkloadSet set, double load, int sockets,
                 std::uint64_t seed, double max_duration_factor = 300.0);

    /** Produce the next job (arrival times strictly increase). */
    Job next();

    /** Generate all jobs arriving before @p horizon_s. */
    std::vector<Job> generateUntil(double horizon_s);

    /**
     * Incremental variant of generateUntil(): replaces the contents
     * of @p out with the jobs arriving in [previous horizon,
     * @p horizon_s), buffering the first overshooting draw so it is
     * delivered by the *next* call instead of being discarded.
     * Calling nextWindow() with an increasing sequence of horizons
     * yields exactly the stream a single generateUntil() over the
     * union would have produced — this is what lets FleetSim fan
     * arrivals out one exchange window at a time without perturbing
     * the workload stream. @p out keeps its capacity, so a buffer
     * reused across windows stops allocating once it has grown.
     */
    void nextWindow(double horizon_s, std::vector<Job> &out);

    /** nextWindow() into a new vector. */
    std::vector<Job> nextWindow(double horizon_s);

    /** Poisson arrival rate, jobs per second. */
    double arrivalRate() const { return rate_; }

    WorkloadSet set() const { return set_; }

  private:
    // Checkpoints serialize the mutable stream position (rng_,
    // clockS_, nextId_, pending_/hasPending_); the rest is
    // construction-derived and rebuilt from config.
    friend class CkptAccess;

    WorkloadSet set_;
    std::vector<std::size_t> apps_;
    double rate_;
    double maxDurationFactor_;
    Rng rng_;
    double clockS_ = 0.0;
    std::uint64_t nextId_ = 0;
    Job pending_{};          //!< Lookahead buffer for nextWindow().
    bool hasPending_ = false;
};

} // namespace densim

#endif // DENSIM_WORKLOAD_JOB_GENERATOR_HH
