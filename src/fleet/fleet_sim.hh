/**
 * @file
 * Fleet-scale sharded simulation (DESIGN.md Sec. 15).
 *
 * FleetSim owns N chassis shards — each a full DenseServerSim with
 * its own config, fault timeline and RNG streams — and advances them
 * in lockstep exchange windows on a util/parallel.hh WorkerPool that
 * it builds at its first advanceWindow() and keeps:
 *
 *   per window:  gather summaries (serial, shard-id order)
 *             -> dispatch the window's cluster arrivals and submit
 *                them to the shards (serial, shard-id order)
 *             -> advance every shard through the window's pm epochs
 *                (pool work items; each touches only its own shard),
 *                while the calling thread first draws the next
 *                window's arrivals and then advances shards too
 *
 * The next window's arrivals come from a copy of the committed
 * arrival stream; that copy becomes the committed stream at the next
 * barrier. A checkpoint saves only the committed stream, and
 * beginRun(), finishRun() and every restore drop the lookahead, so
 * the stream a window dispatches never depends on when it was drawn.
 *
 * Determinism: everything order-sensitive — summary gathering,
 * dispatching, metric roll-up, registry merging — runs serially in
 * shard-id order at the barrier; the parallel section is embarrass-
 * ingly parallel over disjoint shard state, and the arrival draw it
 * overlaps touches no shard. FleetMetrics is therefore bit-identical
 * for any worker-thread count (pinned by tests/fleet_test.cc).
 *
 * RNG domain separation: every fleet stream seed is
 * domainSeed(fleetSeed, shard, tag) with the tags below, so a
 * shard's streams can never collide with another shard's — or with
 * any engine-internal stream, which are derived from the (already
 * avalanched) per-shard seed.
 */

#ifndef DENSIM_FLEET_FLEET_SIM_HH
#define DENSIM_FLEET_FLEET_SIM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dense_server_sim.hh"
#include "core/sim_config.hh"
#include "fleet/fleet_dispatcher.hh"
#include "fleet/fleet_metrics.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"

namespace densim {

class WorkerPool; // util/parallel.hh

/** Stream tags for domainSeed() under the fleet seed domain. */
namespace fleet_stream {
/** Per-shard engine seed (shard coordinate = shard id). */
constexpr std::uint64_t kShardEngine = 0x5eed0f5aadULL;
/** Cluster arrival stream (shard coordinate fixed at 0). */
constexpr std::uint64_t kArrivals = 0xa44174a15ULL;
} // namespace fleet_stream

/** A fleet of chassis shards driven in lockstep exchange windows. */
class FleetSim
{
  public:
    /**
     * Build a fleet from @p config (which must have
     * config.fleet.enabled()): one DenseServerSim per chassis, each
     * under its own instance of the scheduling policy named
     * @p scheduler, plus the configured dispatcher.
     */
    FleetSim(const SimConfig &config, const std::string &scheduler);

    ~FleetSim();
    FleetSim(const FleetSim &) = delete;
    FleetSim &operator=(const FleetSim &) = delete;

    /**
     * Run the fleet to completion on up to @p threads workers, the
     * calling thread included (0 = hardware concurrency). The result
     * is bit-identical for every value of @p threads. Implemented as
     * beginRun() + advanceWindow() to exhaustion + finishRun(), in
     * the exact operation order of the historical monolithic loop.
     */
    FleetMetrics run(unsigned threads = 1);

    // --- streaming (window-stepped) interface -------------------------
    // Mirrors the engine's beginRun/advanceEpoch/finishRun: each
    // advanceWindow() is one exchange window (barrier -> dispatch ->
    // parallel shard epochs). Between calls every shard sits at an
    // epoch boundary and all cross-shard state is serial — exactly
    // the point where a checkpoint captures the whole fleet.

    /** Reset fleet state and open every shard's streamed run. */
    void beginRun();

    /**
     * Run one exchange window on up to @p threads workers, the
     * calling thread included. Never more workers than shards run;
     * the pool built by the first call is rebuilt only when a later
     * call asks for a different @p threads. Returns false — without
     * advancing anything — once no shard has pending work, at which
     * point finishRun() collects the metrics.
     */
    bool advanceWindow(unsigned threads = 1);

    /** Finalize all shards and roll up FleetMetrics. */
    FleetMetrics finishRun();

    /** Exchange windows completed so far in the open run. */
    std::size_t windowsRun() const { return window_; }

    /** Shards in the fleet. */
    std::size_t chassis() const { return shards_.size(); }

    /** Shard @p s's engine (read-only). */
    const DenseServerSim &shard(std::size_t s) const { return *shards_.at(s); }

    /** The base configuration every shard was derived from. */
    const SimConfig &config() const { return base_; }

    /** Sockets across the whole fleet. */
    std::size_t totalSockets() const;

    /** The dispatcher routing cluster arrivals. */
    const FleetDispatcher &dispatcher() const { return *dispatcher_; }

    /**
     * Fleet-level counters plus every shard's registry merged under
     * "shard<N>/" after run() — one namespace per chassis, no shared
     * instrument storage during the run.
     */
    const obs::Registry &observability() const { return registry_; }

    /** Every shard's sampled phase wall times, summed in shard
     *  order (DESIGN.md Sec. 10.2). */
    obs::PhaseProfiler phaseProfile() const
    {
        obs::PhaseProfiler sum;
        for (const auto &shard : shards_)
            sum.add(shard->phaseProfile());
        return sum;
    }

  private:
    /**
     * Checkpoint serializer (src/ckpt): captures the window cursor,
     * arrival-stream position, dispatcher cursor, partial metrics
     * and every shard's engine state at the window barrier.
     */
    friend class CkptAccess;

    std::vector<ShardSummary> gatherSummaries() const;

    /**
     * Put every fleet-level run field in the state beginRun() leaves
     * it in — dispatcher cursor and window included, lookahead
     * dropped; the shards are left alone.
     */
    void resetRun();

    SimConfig base_;
    std::uint64_t fleetSeed_ = 0;
    mutable std::optional<std::uint64_t> ckptDigest_; //!< CkptAccess.
    std::vector<std::unique_ptr<DenseServerSim>> shards_;
    std::unique_ptr<FleetDispatcher> dispatcher_;
    obs::Registry registry_;

    std::unique_ptr<WorkerPool> pool_; //!< Built by advanceWindow().
    unsigned poolThreads_ = 0;         //!< What pool_ was built for.

    // --- streaming-run state (beginRun .. finishRun) ------------------
    /** Committed cluster Poisson stream: drawn up to window_. */
    std::unique_ptr<JobGenerator> arrivals_;
    FleetMetrics metrics_;        //!< Dispatch counts accumulate here.
    std::vector<Job> windowJobs_; //!< This window's arrivals.
    std::vector<std::vector<Job>> batches_; //!< Per-shard scratch.
    obs::Counter *windowsCtr_ = nullptr;
    obs::Counter *dispatchedCtr_ = nullptr;
    std::size_t window_ = 0;      //!< Next exchange window to run.
    bool arrivalsOpen_ = true;    //!< Cluster stream still fanning out.
    bool fleetOpen_ = false;      //!< beginRun .. finishRun.

    // --- arrival lookahead: never checkpointed ------------------------
    /** arrivals_ drawn one window further; valid while aheadReady_. */
    std::unique_ptr<JobGenerator> ahead_;
    std::vector<Job> aheadJobs_;  //!< Window window_'s arrivals.
    bool aheadReady_ = false;
};

} // namespace densim

#endif // DENSIM_FLEET_FLEET_SIM_HH
