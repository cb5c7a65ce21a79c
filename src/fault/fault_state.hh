/**
 * @file
 * Mutable per-run fault state: sensor health, offline bookkeeping and
 * the over-temperature escalation ladder (DESIGN.md Sec. 11).
 *
 * The engine owns one FaultState per simulation. It answers three
 * questions every epoch:
 *
 *  - what does the DVFS loop *believe* the socket ambient is
 *    (dvfsAmbientC: stuck/noisy/dropped-out sensor semantics over the
 *    true field, with the configured dropout fallback);
 *  - what does the scheduler's chip sensor report (schedSensedC);
 *  - which sockets are offline (failed or quarantined) and where is
 *    each socket on the escalation ladder (escalate).
 *
 * The ladder reads the *true* chip temperature — it models the
 * hardware thermal trip circuit, which is independent of the managed
 * sensor the DVFS loop consumes. That is exactly why a stuck-cold
 * sensor is dangerous: DVFS keeps boosting on the frozen reading
 * while the trip circuit watches the real silicon climb.
 */

#ifndef DENSIM_FAULT_FAULT_STATE_HH
#define DENSIM_FAULT_FAULT_STATE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/units.hh"
#include "fault/fault_config.hh"
#include "util/rng.hh"

namespace densim {

class CkptAccess; // Checkpoint serializer (src/ckpt), friend below.

/** Health of one temperature sensor. */
enum class SensorMode : std::uint8_t
{
    Healthy,
    Stuck,
    Noisy,
    Dropout,
};

/** What the escalation ladder asks the engine to do this epoch. */
enum class EscalationAction : std::uint8_t
{
    None,
    Throttle,   //!< Force the lowest P-state from now on.
    Quarantine, //!< Take the socket offline and re-queue its job.
    Release,    //!< Chip cooled below the limit; lift the throttle.
};

/** Per-run mutable fault state. */
class FaultState
{
  public:
    /** Bind the configuration; call once at engine construction. */
    void configure(const FaultConfig &config, Celsius t_limit);

    /** Reset to all-healthy for an @p n -socket run. */
    void reset(std::size_t n);

    // --- sensors -----------------------------------------------------
    /** Freeze sensor @p s at its current readings. */
    void stickSensor(std::size_t s, Celsius ambient, Celsius chip);
    /** Degrade sensor @p s with Gaussian sigma @p sigma. */
    void noisySensor(std::size_t s, CelsiusDelta sigma);
    /** Drop sensor @p s; @p last_good_ambient is held if configured. */
    void dropSensor(std::size_t s, Celsius last_good_ambient);
    /** Sensor @p s healthy again. */
    void restoreSensor(std::size_t s);

    SensorMode sensorMode(std::size_t s) const
    {
        return sensorMode_[s];
    }

    /**
     * The ambient the DVFS loop should act on given the true
     * @p ambient. Draws from @p rng only in Noisy mode.
     */
    double dvfsAmbientC(std::size_t s, Celsius ambient,
                        Rng &rng) const;

    /**
     * The chip reading the scheduler's sensor reports given the fresh
     * @p sensed and the previously reported @p held.
     */
    double schedSensedC(std::size_t s, Celsius sensed, Celsius held,
                        Rng &rng) const;

    // --- offline bookkeeping -----------------------------------------
    bool failed(std::size_t s) const { return offline_[s] == 1; }
    bool quarantined(std::size_t s) const { return offline_[s] == 2; }
    bool offline(std::size_t s) const { return offline_[s] != 0; }
    std::size_t offlineCount() const { return offlineCount_; }

    void markFailed(std::size_t s);
    void markQuarantined(std::size_t s);
    void markOnline(std::size_t s);

    // --- escalation ladder -------------------------------------------
    /**
     * Advance socket @p s on the ladder given the true @p chip at
     * time @p now. Healthy -> (dwell over trip) Throttle -> (dwell
     * still over trip) Quarantine; a throttled socket that cools
     * below tLimitC yields Release. The caller applies the action.
     */
    EscalationAction escalate(std::size_t s, Celsius chip,
                              Seconds now);

    /** Is the socket under the emergency throttle? */
    bool throttled(std::size_t s) const { return escStage_[s] == 1; }

    /** Should a quarantined socket rejoin the idle pool? */
    bool readmit(std::size_t s, Celsius chip) const
    {
        return quarantined(s) && chip.value() < config_.quarantineExitC;
    }

    // --- fan ---------------------------------------------------------
    void setFlowFrac(double frac) { flowFrac_ = frac; }
    double flowFrac() const { return flowFrac_; }

  private:
    // Checkpoints serialize every mutable array plus flowFrac_ and
    // recount offlineCount_ from offline_; config_/tripC_/limitC_
    // come back via configure().
    friend class CkptAccess;

    FaultConfig config_;
    double tripC_ = 0.0;  //!< tLimitC + emergencyMarginC.
    double limitC_ = 0.0; //!< tLimitC (throttle-release threshold).

    std::vector<SensorMode> sensorMode_;
    std::vector<double> stuckAmbientC_; //!< Frozen DVFS reading.
    std::vector<double> stuckChipC_;    //!< Frozen scheduler reading.
    std::vector<double> noiseSigmaC_;
    std::vector<double> lastGoodAmbientC_;

    std::vector<std::uint8_t> offline_; //!< 0 ok, 1 failed, 2 quar.
    std::size_t offlineCount_ = 0;

    std::vector<std::uint8_t> escStage_; //!< 0 ok, 1 throttled.
    std::vector<double> overTripSinceS_; //!< < 0: not over trip.

    double flowFrac_ = 1.0;
};

} // namespace densim

#endif // DENSIM_FAULT_FAULT_STATE_HH
