/**
 * @file
 * Sampled phase timers — where an engine epoch's wall time goes.
 *
 * DenseServerSim::advanceEpoch drives one PhaseProfiler in every
 * build. Every kStride-th epoch it reads std::chrono::steady_clock at
 * the phase boundaries and books each lap to the phase that just ran;
 * whatever falls between the phases (fault events, the timeline
 * sample, the emergency response, the epoch checks) is booked as
 * Phase::Other. Every other epoch pays a countdown and one
 * predictable branch per boundary.
 *
 * The totals are wall-clock time, so they stay out of the model, the
 * registry, the trace and the checkpoint: every simulated output is
 * bit-identical whatever the clock reads, and a resumed run's sinks
 * match byte for byte. This header holds the engine's only clock
 * reads (the tidy gate's one allowlisted wall-clock reader; DESIGN.md
 * Sec. 10.2).
 */

#ifndef DENSIM_OBS_PHASE_PROFILER_HH
#define DENSIM_OBS_PHASE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace densim::obs {

/** An epoch's phases. */
enum class Phase : unsigned {
    AmbientFlush, //!< The ambient-target delta flush or full refresh.
    ThermalStep,  //!< The socket walk after the flush.
    PowerManage,
    Migration,
    ProcessWindow,
    Other, //!< The rest of the epoch.
};

/** Every phase, in the order advanceEpoch runs them. */
inline constexpr Phase kPhases[] = {
    Phase::AmbientFlush, Phase::ThermalStep,   Phase::PowerManage,
    Phase::Migration,    Phase::ProcessWindow, Phase::Other};

/** Stable display name ("ambientFlush", ...). */
inline const char *
phaseName(Phase phase)
{
    constexpr const char *kNames[] = {"ambientFlush", "thermalStep",
                                      "powerManage",  "migrations",
                                      "processWindow", "other"};
    static_assert(std::size(kNames) == std::size(kPhases));
    return kNames[static_cast<std::size_t>(phase)];
}

/** Per-phase wall time over the sampled epochs of one run. */
class PhaseProfiler
{
  public:
    /**
     * Epochs per sample. Odd and coprime with the engine's other
     * periods (the 1024-epoch ambient refresh, the default 100-epoch
     * migration stride, the 50-epoch fleet window), so the samples
     * see each kind of epoch at its real rate; at 64, every 25th
     * sample would be a migration epoch, four times their rate.
     */
    static constexpr std::uint64_t kStride = 61;

    /** Open an epoch; every kStride-th one is timed. */
    void beginEpoch()
    {
        if (--untilSample_ != 0)
            return;
        untilSample_ = kStride;
        timing_ = true;
        mark_ = Clock::now();
    }

    /** In a timed epoch, book the time since the last lap to
     *  @p phase. */
    void lap(Phase phase)
    {
        if (!timing_)
            return;
        const Clock::time_point now = Clock::now();
        ns_[static_cast<std::size_t>(phase)] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
                .count());
        mark_ = now;
    }

    /** Close the epoch, booking its tail to Phase::Other. */
    void endEpoch()
    {
        if (!timing_)
            return;
        lap(Phase::Other);
        timing_ = false;
        ++sampledEpochs_;
    }

    /** Zero the totals and restart the stride. */
    void reset() { *this = PhaseProfiler(); }

    /** Add @p other's totals to these (a fleet sums its shards). */
    void add(const PhaseProfiler &other)
    {
        for (std::size_t i = 0; i < ns_.size(); ++i)
            ns_[i] += other.ns_[i];
        sampledEpochs_ += other.sampledEpochs_;
    }

    /** Epochs timed since the last reset(). */
    std::uint64_t sampledEpochs() const { return sampledEpochs_; }

    /** Nanoseconds booked to @p phase over the sampled epochs. */
    std::uint64_t ns(Phase phase) const
    {
        return ns_[static_cast<std::size_t>(phase)];
    }

  private:
    using Clock = std::chrono::steady_clock;

    std::array<std::uint64_t, std::size(kPhases)> ns_{};
    std::uint64_t sampledEpochs_ = 0;
    std::uint64_t untilSample_ = kStride;
    Clock::time_point mark_{};
    bool timing_ = false;
};

} // namespace densim::obs

#endif // DENSIM_OBS_PHASE_PROFILER_HH
