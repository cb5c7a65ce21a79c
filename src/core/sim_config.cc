#include "core/sim_config.hh"

#include "obs/trace.hh"
#include "util/fs.hh"
#include "util/logging.hh"

namespace densim {

namespace {

/**
 * Fail fast on an unwritable output sink: these files are written at
 * the *end* of a run, and a typo'd directory used to fatal() only
 * after minutes of simulation.
 */
void
checkSinkPath(const char *key, const std::string &path)
{
    if (path.empty())
        return;
    if (!pathWritable(path)) {
        fatal("SimConfig: ", key, " = '", path, "': directory '",
              parentDir(path),
              "' does not exist or is not writable");
    }
}

} // namespace

void
SimConfig::validate() const
{
    if (load <= 0.0 || load > 1.0)
        fatal("SimConfig: load ", load, " outside (0, 1]");
    if (simTimeS <= 0.0)
        fatal("SimConfig: simTimeS must be positive");
    if (warmupS < 0.0 || warmupS >= simTimeS)
        fatal("SimConfig: warmup ", warmupS,
              " must lie inside the simulation window ", simTimeS);
    if (drainFactor < 1.0)
        fatal("SimConfig: drain factor must be >= 1");
    if (pmEpochS <= 0.0 || chipTauS <= 0.0 || socketTauS <= 0.0 ||
        histTauS <= 0.0) {
        fatal("SimConfig: time constants must be positive");
    }
    if (tLimitC <= 0.0 || rIntCW <= 0.0)
        fatal("SimConfig: thermal parameters must be positive");
    if (gatedFracTdp < 0.0 || gatedFracTdp > 1.0)
        fatal("SimConfig: gated power fraction outside [0, 1]");
    if (boostRefillRate < 0.0 || boostBurstS < 0.0)
        fatal("SimConfig: boost governor parameters must be "
              "non-negative");
    if (sensorNoiseC < 0.0 || sensorQuantC < 0.0)
        fatal("SimConfig: sensor parameters must be non-negative");
    if (fanPowerW < 0.0)
        fatal("SimConfig: fan power must be non-negative");
    if (migrationIntervalS <= 0.0 || migrationCostS < 0.0 ||
        migrationMinRemainingS < 0.0 || migrationMaxPerPass < 0) {
        fatal("SimConfig: invalid migration parameters");
    }
    // Epoch and cadence counts are cast to integers. From 2^53 on a
    // double skips integers, and far past it the cast overflows.
    if (!(migrationIntervalS / pmEpochS < 0x1p53))
        fatal("SimConfig: migrationIntervalS ", migrationIntervalS,
              " spans 2^53 or more pm epochs of ", pmEpochS, " s");
    if (ckptEveryS < 0.0)
        fatal("SimConfig: ckpt.everyS ", ckptEveryS,
              " must be non-negative (0 = only on a stop signal)");
    if (ckptEveryS > 0.0 && !(simTimeS * drainFactor / ckptEveryS < 0x1p53))
        fatal("SimConfig: ckpt.everyS ", ckptEveryS,
              " puts 2^53 or more cadence points in a ",
              simTimeS * drainFactor, " s run");
    if (timelineSampleS < 0.0)
        fatal("SimConfig: timeline sample period must be "
              "non-negative");
    if (!obsTimelinePath.empty() && timelineSampleS <= 0.0)
        fatal("SimConfig: obs.timelinePath needs timelineSampleS > 0");
    checkSinkPath("obs.tracePath", obsTracePath);
    checkSinkPath("obs.timelinePath", obsTimelinePath);
    checkSinkPath("fault.logPath", fault.logPath);
    fault.validate(tLimit());
    fleet.validate(pmEpochS);
}

SimConfig
perRunSinks(SimConfig config, std::size_t run)
{
    const auto rename = [run](std::string &path) {
        if (!path.empty())
            path = obs::perRunPath(path, run);
    };
    rename(config.obsTracePath);
    rename(config.obsTimelinePath);
    rename(config.fault.logPath);
    return config;
}

} // namespace densim
