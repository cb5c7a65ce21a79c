/**
 * @file
 * Scheduler interface and the read-only view of server state that
 * policies are allowed to consult.
 *
 * The paper's centralized job controller (Sec. III-D) keeps a FIFO
 * job queue and, whenever a job and at least one idle socket exist,
 * asks the active scheduling policy to pick the socket. Policies see
 * instantaneous and historical temperatures, socket powers and
 * frequencies, physical location, the coupling map, and the DVFS
 * prediction machinery — everything Sec. IV's schemes require — but
 * can mutate nothing.
 */

#ifndef DENSIM_SCHED_SCHEDULER_HH
#define DENSIM_SCHED_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/effects.hh"
#include "obs/registry.hh"
#include "power/leakage.hh"
#include "power/power_manager.hh"
#include "server/topology.hh"
#include "thermal/coupling_map.hh"
#include "util/rng.hh"
#include "workload/job_generator.hh"

namespace densim {

struct PredictionCache;

/**
 * Snapshot of simulator state offered to a policy for one decision.
 * The per-socket fields are raw pointers into the engine's flat
 * structure-of-arrays state, indexed by socket id over [0, nSockets)
 * — policies score candidates by scanning these arrays directly, with
 * no per-socket accessor calls in the inner loop. Pointers are
 * non-owning and valid only for the duration of the pick() call.
 */
struct SchedContext
{
    const ServerTopology *topo;
    const CouplingMap *coupling;
    /**
     * Generation counter of *coupling's coefficients. The engine
     * bumps it whenever it changes the map in force (a fan fault
     * derating every duct's airflow, the recovery, a new run after
     * a derate); policies that cache coupling-derived state must key
     * their cache on (coupling, couplingEpoch) — a new derated map
     * can reuse a freed one's address, so the pointer alone cannot
     * detect the change.
     */
    std::uint64_t couplingEpoch = 0;
    const PowerManager *pm;
    const LeakageModel *leak;
    double inletC;

    /** Idle sockets, ascending ids; never empty during pick(). */
    const std::vector<std::size_t> *idle;

    /**
     * Idle sockets per row (topo->numRows() entries), kept by the
     * engine next to *idle, or null in hand-built test contexts
     * (policies then tally *idle themselves). Socket ids are
     * row-major, so row r's idle sockets are the contiguous span of
     * *idle after the rows before it.
     */
    const int *idlePerRow = nullptr;

    std::size_t nSockets = 0;      //!< Length of every array below.
    const double *chipTempC;       //!< Instantaneous chip T (sensed).
    const double *histTempC;       //!< Exponentially averaged.
    const double *ambientC;        //!< Current (slow, 30 s) ambient.
    const double *boostCreditS;    //!< Remaining boost-dwell credit, s.
    const double *powerW;          //!< Current socket power.
    const double *freqMhz;         //!< 0 when idle.
    const WorkloadSet *runningSet; //!< Valid when busy.
    const std::uint8_t *busy;      //!< Nonzero when busy.

    /**
     * Precomputed topo->rowOf(s) per socket, or null in hand-built
     * test contexts (policies fall back to querying the topology).
     * Saves a bounds-checked topology lookup per candidate in the
     * row-local CP fast path.
     */
    const int *socketRow = nullptr;

    Rng *rng; //!< Policy-visible randomness (deterministic per run).

    /**
     * Engine-kept feasibility thresholds and penalty snapshot for
     * predictPlacement / downstreamPenaltyMhz (see
     * sched/prediction.hh). The engine always sets it; null in
     * hand-built contexts, where the prediction helpers run every
     * DVFS search in full through
     * PowerManager::chooseAtAmbientCapped.
     */
    const PredictionCache *cache = nullptr;
};

/** Base class for all scheduling policies. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Short policy name as used in the paper ("CF", "CP", ...). */
    virtual const char *name() const = 0;

    /**
     * Choose one socket from ctx.idle for @p job. Must return an
     * element of *ctx.idle.
     */
    DENSIM_HOT virtual std::size_t pick(const Job &job,
                                        const SchedContext &ctx) = 0;

    /** Reset internal state between runs (default: nothing). */
    virtual void reset() {}

    /**
     * Register this policy's instruments into @p registry. The base
     * registers "sched.<name>.picks"; subclasses may override to add
     * their own (and should call the base). The registry must outlive
     * the policy.
     */
    virtual void attachObs(obs::Registry &registry);

    /**
     * pick() plus observability accounting — what the engine calls
     * at every placement and migration decision.
     */
    std::size_t
    pickCounted(const Job &job, const SchedContext &ctx)
    {
        if (picks_ != nullptr)
            picks_->inc();
        return pick(job, ctx);
    }

  private:
    obs::Counter *picks_ = nullptr; //!< Owned by the registry.
};

/**
 * Helpers shared by several policies: pick the extreme-valued idle
 * socket with deterministic (lowest-id) or random tie-breaking.
 * @p key is a flat per-socket array (ctx.nSockets long).
 */
std::size_t pickMinBy(const SchedContext &ctx, const double *key,
                      double tie_eps, bool random_tiebreak);
std::size_t pickMaxBy(const SchedContext &ctx, const double *key,
                      double tie_eps, bool random_tiebreak);

/**
 * Smallest key[s] over the idle sockets, NaN keys skipped (+inf when
 * none is left) — the scan pickMinBy starts from. The sign of a zero
 * result is unspecified, so use it as a threshold, not as a value.
 */
double idleMinOf(const SchedContext &ctx, const double *key);

} // namespace densim

#endif // DENSIM_SCHED_SCHEDULER_HH
