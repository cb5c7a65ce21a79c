/**
 * @file
 * Crash-safe checkpoint/restore of a running simulation
 * (DESIGN.md Sec. 16).
 *
 * A checkpoint captures the complete mutable state of an open run at
 * an epoch (or fleet exchange-window) boundary — SoA socket banks,
 * job queue, every RNG stream position (a generated run's arrival
 * generator included; a submitted run keeps its backlog tail
 * instead), fault timeline cursor, log and escalation ladder, obs
 * counters and timeline cursor, and (for a fleet) the arrival
 * generator, dispatcher cursor and every shard — such that resuming
 * reproduces the uninterrupted run *bit for bit*: hex-float-equal
 * SimMetrics/FleetMetrics and byte-identical sinks (pinned by
 * tests/ckpt_test.cc). It holds no state a restore can work out (a
 * generated run's future arrivals and whether they have closed, the
 * hard stop, the dirty flags, offline count, decision count and
 * derated-map flag), and not the end-of-run gauges, which only the
 * sink flush sets (a restore zeroes them).
 *
 * File format, little-endian throughout:
 *
 *   magic   8 bytes  "DSIMCKPT"
 *   u32     version  (kVersion; older/newer files are refused)
 *   u32     kind     (1 = engine snapshot, 2 = fleet snapshot)
 *   u64     digest   stateDigest(): FNV-1a 64 over the policy name
 *                    and the full serialized config with the ckpt.*
 *                    knobs cleared — a snapshot must refuse to load
 *                    into a differently-configured engine, but moving
 *                    or re-cadencing the checkpoint itself must not
 *                    invalidate it
 *   u64     section count
 *   then per section: u32 id, u64 payload length, u64 checksum
 *   (sectionCrc(): four word lanes folded by SplitMix64's finalizer),
 *   payload bytes.
 *
 * Loaders validate the header, every section length and every checksum
 * into an in-memory section map *before* mutating any engine state,
 * and every load-time field check throws ckpt::CkptError — so a
 * truncated, corrupted or hostile file yields a one-line actionable
 * error, never UB and never a partially-restored engine (the engine
 * stays closed; beginRun() fully re-initializes it).
 *
 * What is serialized vs. rebuilt: every mutable floating-point
 * accumulator and per-socket array is stored as raw IEEE-754 bits;
 * everything construction-derived (topology, coupling map,
 * P-state tables, fault timeline, sink caches) is rebuilt from
 * SimConfig; a busy socket's progress rate, relative frequency and
 * boost flag are read from those tables at its restored workload set
 * and P-state; and the completion list, empty at every epoch boundary,
 * stays empty until the next powerManage fills it.
 */

#ifndef DENSIM_CKPT_CHECKPOINT_HH
#define DENSIM_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "ckpt/serial.hh"

namespace densim {
class DenseServerSim;
class FleetSim;
struct SimConfig;
} // namespace densim

namespace densim::ckpt {

/** First 8 bytes of every densim checkpoint. */
inline constexpr char kMagic[8] = {'D', 'S', 'I', 'M',
                                   'C', 'K', 'P', 'T'};

/** Format version; bumped on any wire-format change. */
inline constexpr std::uint32_t kVersion = 7;

/** What a checkpoint file holds. */
enum class SnapshotKind : std::uint32_t
{
    Engine = 1, //!< One DenseServerSim mid-run.
    Fleet = 2,  //!< A FleetSim: fleet core + every shard.
};

/** How restore treats the serialized RNG streams. */
enum class RestoreMode
{
    /** Resume the exact streams — the bit-identical continuation. */
    Exact,
    /**
     * Reseed every stochastic stream via domainSeed(seed, forkId,
     * tag): the restored state is identical but the future diverges,
     * turning one checkpoint into an ensemble of what-if branches.
     */
    Fork,
};

/** Stream tags for domainSeed() under RestoreMode::Fork. */
namespace ckpt_stream {
constexpr std::uint64_t kForkPolicy = 0xf04bb01a1c7ULL;
constexpr std::uint64_t kForkSensor = 0xf04b5e45027ULL;
constexpr std::uint64_t kForkFault = 0xf04bfa0172fULL;
constexpr std::uint64_t kForkArrivals = 0xf04ba2217a1ULL;
} // namespace ckpt_stream

/**
 * Config/policy identity a snapshot is validated against: FNV-1a 64
 * over the policy name and saveConfig() of @p config with ckptPath /
 * ckptEveryS cleared (where a snapshot lives must never decide
 * whether it loads).
 */
std::uint64_t stateDigest(const std::string &policy,
                          const SimConfig &config);

/** Serialize the open run of @p sim; fatal() if no run is open. */
std::string saveEngine(const DenseServerSim &sim);

/**
 * Restore @p sim from a saveEngine() image. The engine must be
 * closed (fatal() otherwise — restoring over an open run, including
 * a previous restore, is API misuse); the image must carry the same
 * stateDigest() as @p sim's config and policy. Throws CkptError on
 * any structural defect, leaving the engine closed and fully
 * reusable via beginRun(). On success the run is open at the saved
 * epoch boundary: advanceEpoch()/finishRun() continue it.
 */
void restoreEngine(DenseServerSim &sim, std::string_view image,
                   RestoreMode mode = RestoreMode::Exact,
                   std::uint64_t fork_id = 0);

/** Serialize the open run of @p fleet; fatal() if none is open. */
std::string saveFleet(const FleetSim &fleet);

/** Fleet counterpart of restoreEngine(), same contract per shard. */
void restoreFleet(FleetSim &fleet, std::string_view image,
                  RestoreMode mode = RestoreMode::Exact,
                  std::uint64_t fork_id = 0);

/**
 * Write @p image to @p path atomically (temp + fsync + rename, so a
 * crash mid-write leaves the previous checkpoint intact); fatal() on
 * I/O failure.
 */
void writeCheckpointFile(const std::string &path,
                         const std::string &image);

/** Slurp @p path; throws CkptError when unreadable. */
std::string readCheckpointFile(const std::string &path);

/**
 * Flush the configured obs sinks (trace / timeline / fault log) of a
 * mid-run engine or fleet — the graceful-shutdown path, so a killed
 * run still leaves its diagnostics on disk.
 */
void flushSinks(DenseServerSim &sim);
void flushSinks(FleetSim &fleet);

} // namespace densim::ckpt

#endif // DENSIM_CKPT_CHECKPOINT_HH
