/**
 * @file
 * Unit tests for the scheduling policies. A hand-built SchedContext
 * over the real SUT topology lets each policy's selection rule be
 * checked in isolation, without running the full simulator.
 */

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "power/leakage.hh"
#include "power/power_manager.hh"
#include "sched/adaptive_random.hh"
#include "sched/coupling_predictor.hh"
#include "sched/factory.hh"
#include "sched/min_hr.hh"
#include "sched/prediction.hh"
#include "server/sut.hh"
#include "thermal/simple_peak_model.hh"
#include "workload/curves.hh"

namespace densim {
namespace {

/** Fixture providing a fully populated context over the 180-socket SUT. */
class SchedFixture : public ::testing::Test
{
  protected:
    SchedFixture()
        : topo_(makeSutTopology()),
          coupling_(makeCouplingMap(topo_, defaultCouplingParams())),
          pm_(PStateTable::x2150(), SimplePeakModel(), Celsius(95.0),
              0.10),
          rng_(7)
    {
        const std::size_t n = topo_.numSockets();
        chip_.assign(n, 30.0);
        hist_.assign(n, 30.0);
        ambient_.assign(n, 25.0);
        credit_.assign(n, 2.0);
        power_.assign(n, 2.2);
        freq_.assign(n, 0.0);
        set_.assign(n, WorkloadSet::Computation);
        busy_.assign(n, false);
        allIdle();
    }

    /** Mark all sockets idle. */
    void
    allIdle()
    {
        idle_.clear();
        for (std::size_t s = 0; s < topo_.numSockets(); ++s) {
            if (!busy_[s])
                idle_.push_back(s);
        }
    }

    /** Mark a socket busy at a frequency. */
    void
    makeBusy(std::size_t s, double freq_mhz, double power_w)
    {
        busy_[s] = true;
        freq_[s] = freq_mhz;
        power_[s] = power_w;
        allIdle();
    }

    SchedContext
    context()
    {
        SchedContext ctx;
        ctx.topo = &topo_;
        ctx.coupling = &coupling_;
        ctx.pm = &pm_;
        ctx.leak = &LeakageModel::x2150();
        ctx.inletC = 18.0;
        ctx.idle = &idle_;
        ctx.nSockets = topo_.numSockets();
        ctx.chipTempC = chip_.data();
        ctx.histTempC = hist_.data();
        ctx.ambientC = ambient_.data();
        ctx.boostCreditS = credit_.data();
        ctx.powerW = power_.data();
        ctx.freqMhz = freq_.data();
        ctx.runningSet = set_.data();
        ctx.busy = busy_.data();
        ctx.rng = &rng_;
        return ctx;
    }

    Job
    job() const
    {
        Job j;
        j.id = 0;
        j.benchmark = 0;
        j.set = WorkloadSet::Computation;
        j.arrivalS = 0.0;
        j.nominalS = 5e-3;
        return j;
    }

    ServerTopology topo_;
    CouplingMap coupling_;
    PowerManager pm_;
    Rng rng_;
    std::vector<std::size_t> idle_;
    std::vector<double> chip_, hist_, ambient_, credit_, power_, freq_;
    std::vector<WorkloadSet> set_;
    std::vector<std::uint8_t> busy_;
};

TEST_F(SchedFixture, FactoryKnowsAllPaperNames)
{
    for (const std::string &name : allSchedulerNames()) {
        const auto policy = makeScheduler(name);
        EXPECT_EQ(policy->name(), name);
    }
    EXPECT_EQ(allSchedulerNames().size(), 10u);
    EXPECT_EQ(existingSchedulerNames().size(), 9u);
}

TEST_F(SchedFixture, FactoryRejectsUnknown)
{
    EXPECT_EXIT(makeScheduler("Clairvoyant"),
                ::testing::ExitedWithCode(1), "unknown scheduler");
}

TEST_F(SchedFixture, EveryPolicyPicksAnIdleSocket)
{
    for (const std::string &name : allSchedulerNames()) {
        auto policy = makeScheduler(name);
        // Make a scattered busy pattern.
        for (std::size_t s = 0; s < topo_.numSockets(); s += 7)
            makeBusy(s, 1500.0, 13.6);
        auto ctx = context();
        for (int trial = 0; trial < 20; ++trial) {
            const std::size_t pick = policy->pick(job(), ctx);
            EXPECT_FALSE(busy_[pick]) << name;
        }
    }
}

TEST_F(SchedFixture, CoolestFirstPicksColdest)
{
    chip_[42] = 19.0;
    auto policy = makeScheduler("CF");
    auto ctx = context();
    EXPECT_EQ(policy->pick(job(), ctx), 42u);
}

TEST_F(SchedFixture, HottestFirstPicksHottestIdle)
{
    chip_[17] = 80.0;
    chip_[18] = 85.0;
    makeBusy(18, 1900.0, 18.0); // hottest is busy -> not eligible
    auto policy = makeScheduler("HF");
    auto ctx = context();
    EXPECT_EQ(policy->pick(job(), ctx), 17u);
}

TEST_F(SchedFixture, RandomCoversManySockets)
{
    auto policy = makeScheduler("Random");
    auto ctx = context();
    std::vector<bool> seen(topo_.numSockets(), false);
    for (int i = 0; i < 2000; ++i)
        seen[policy->pick(job(), ctx)] = true;
    std::size_t covered = 0;
    for (bool b : seen)
        covered += b;
    EXPECT_GT(covered, topo_.numSockets() / 2);
}

TEST_F(SchedFixture, MinHrPrefersLastZone)
{
    auto policy = makeScheduler("MinHR");
    auto ctx = context();
    const std::size_t pick = policy->pick(job(), ctx);
    EXPECT_EQ(topo_.zoneIdOf(pick), 6);
}

TEST_F(SchedFixture, MinHrRotatesViaCoolestTieBreak)
{
    auto policy = makeScheduler("MinHR");
    // Warm one zone-6 socket; MinHR should pick a cooler zone-6 one.
    const auto zone6 = topo_.socketsInZone(6);
    chip_[zone6[0]] = 90.0;
    auto ctx = context();
    const std::size_t pick = policy->pick(job(), ctx);
    EXPECT_EQ(topo_.zoneIdOf(pick), 6);
    EXPECT_NE(pick, zone6[0]);
}

TEST_F(SchedFixture, MinHrReprofilesOnEachCouplingGeneration)
{
    // The engine moves its map between the pristine and a derated
    // one, and a freed map's address can come back, so MinHR keys its
    // impact profile on the map and couplingEpoch together.
    MinHr policy;
    SchedContext ctx = context();
    EXPECT_EQ(topo_.zoneIdOf(policy.pick(job(), ctx)), 6);

    // Air blown the other way: zone 1 now recirculates least.
    std::vector<SocketSite> reversed = topo_.sites();
    for (SocketSite &site : reversed)
        site.streamPosInch = -site.streamPosInch;
    std::optional<CouplingMap> slot;
    slot.emplace(reversed, defaultCouplingParams());
    ctx.coupling = &*slot;
    ctx.couplingEpoch = 1;
    EXPECT_EQ(topo_.zoneIdOf(policy.pick(job(), ctx)), 1);

    // The pristine map again, at the same address: the new
    // generation alone tells MinHR to profile it.
    slot.emplace(topo_.sites(), defaultCouplingParams());
    ctx.couplingEpoch = 2;
    EXPECT_EQ(topo_.zoneIdOf(policy.pick(job(), ctx)), 6);
}

TEST_F(SchedFixture, BalancedLocationsPicksInletZone)
{
    auto policy = makeScheduler("Balanced-L");
    auto ctx = context();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(topo_.zoneIdOf(policy->pick(job(), ctx)), 1);
}

TEST_F(SchedFixture, BalancedRunsFromHotSpot)
{
    // Hottest point in row 0, zone 1; Balanced should place far away.
    chip_[0] = 94.0;
    auto policy = makeScheduler("Balanced");
    auto ctx = context();
    const std::size_t pick = policy->pick(job(), ctx);
    EXPECT_GE(topo_.rowOf(pick), 10);
    EXPECT_GE(topo_.zoneIdOf(pick), 4);
}

TEST_F(SchedFixture, CoolestNeighborsAvoidsHotNeighbourhood)
{
    // Two equally cool candidates; one has a hot same-cartridge
    // neighbour.
    for (std::size_t s = 0; s < topo_.numSockets(); ++s)
        chip_[s] = 50.0;
    chip_[10] = 20.0; // candidate A (row 0)
    const auto row5 = topo_.socketsInRow(5);
    chip_[row5[0]] = 20.0; // candidate B
    // Heat A's neighbour (same zone partner is id^1 within the pair).
    chip_[11] = 94.0;
    auto policy = makeScheduler("CN");
    auto ctx = context();
    EXPECT_EQ(policy->pick(job(), ctx), row5[0]);
}

TEST_F(SchedFixture, AdaptiveRandomWeedsOutHotHistory)
{
    // Sockets 0 and 1 equally cool now, but socket 0 has a hot
    // history: A-Random must pick 1.
    for (std::size_t s = 0; s < topo_.numSockets(); ++s) {
        chip_[s] = 60.0;
        hist_[s] = 60.0;
    }
    chip_[0] = 20.0;
    chip_[1] = 20.0;
    hist_[0] = 80.0;
    hist_[1] = 25.0;
    auto policy = makeScheduler("A-Random");
    auto ctx = context();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(policy->pick(job(), ctx), 1u);
}

TEST_F(SchedFixture, PredictivePicksFastestPredictedSocket)
{
    // Heat the ambient of every socket except one zone-2 socket: the
    // cool 30-fin location predicts the highest frequency.
    for (std::size_t s = 0; s < topo_.numSockets(); ++s)
        ambient_[s] = 70.0;
    const std::size_t target = topo_.socketsInZone(2)[4];
    ambient_[target] = 20.0;
    auto policy = makeScheduler("Predictive");
    auto ctx = context();
    EXPECT_EQ(policy->pick(job(), ctx), target);
}

TEST_F(SchedFixture, PredictiveTieBreaksByHeadroom)
{
    // All ambients equal: every socket predicts the same frequency,
    // so Predictive should prefer a 30-fin (even zone) socket, whose
    // predicted peak is lower.
    auto policy = makeScheduler("Predictive");
    auto ctx = context();
    const std::size_t pick = policy->pick(job(), ctx);
    EXPECT_TRUE(topo_.inEvenZone(pick));
}

TEST_F(SchedFixture, PredictionRespectsBoostCredit)
{
    auto ctx = context();
    const DvfsDecision with_credit =
        predictPlacement(ctx, 0, WorkloadSet::Computation);
    credit_[0] = 0.0;
    const DvfsDecision no_credit =
        predictPlacement(ctx, 0, WorkloadSet::Computation);
    EXPECT_GT(with_credit.freqMhz, no_credit.freqMhz);
    EXPECT_LE(no_credit.freqMhz, 1500.0);
}

TEST_F(SchedFixture, MhzPerCelsiusMatchesLadderGeometry)
{
    // Edges in ambient space are (P_hi - P_lo) * (R_int + R_ext)
    // apart per 200 MHz; the slope is their ratio.
    const double slope18 = mhzPerCelsius(
        pm_, WorkloadSet::Computation, HeatSink::fin18());
    EXPECT_NEAR(slope18, 800.0 / ((18.0 - 9.8) * (0.205 + 1.578)),
                1e-9);
    // The better sink packs the edges closer together in ambient
    // space, so each degree costs more MHz.
    const double slope30 = mhzPerCelsius(
        pm_, WorkloadSet::Computation, HeatSink::fin30());
    EXPECT_GT(slope30, slope18);
}

TEST_F(SchedFixture, DownstreamPenaltyIgnoresBoostPlateau)
{
    // A busy downstream socket with plenty of boost headroom costs
    // nothing to heat slightly.
    const auto row0 = topo_.socketsInRow(0);
    makeBusy(row0[10], 1900.0, 18.0);
    ambient_[row0[10]] = 20.0; // deep in the plateau
    auto ctx = context();
    EXPECT_DOUBLE_EQ(downstreamPenaltyMhz(ctx, row0[0], Watts(18.0)), 0.0);
}

TEST_F(SchedFixture, DownstreamPenaltyChargesOffPlateau)
{
    // Same socket without boost credit sits on the sustained ladder:
    // upstream heat now has a continuous expected price.
    const auto row0 = topo_.socketsInRow(0);
    makeBusy(row0[10], 1500.0, 13.6);
    ambient_[row0[10]] = 40.0;
    credit_[row0[10]] = 0.0;
    auto ctx = context();
    EXPECT_GT(downstreamPenaltyMhz(ctx, row0[0], Watts(18.0)), 0.0);
}

TEST_F(SchedFixture, DownstreamPenaltyZeroWhenBackIdle)
{
    auto ctx = context();
    EXPECT_DOUBLE_EQ(downstreamPenaltyMhz(ctx, 0, Watts(18.0)), 0.0);
}

TEST_F(SchedFixture, DownstreamPenaltyAppearsNearThrottlePoint)
{
    // A busy downstream socket sitting just below a P-state edge is
    // pushed over it by upstream heat.
    const auto row0 = topo_.socketsInRow(0);
    const std::size_t down = row0[10]; // zone 6
    makeBusy(down, 1500.0, 13.6);
    // Find the ambient where 1500 MHz is right at the edge.
    const double amb_edge =
        SimplePeakModel()
            .maxAmbient(Celsius(95.0), Watts(13.6),
                        topo_.sinkOf(down))
            .value();
    ambient_[down] = amb_edge - 0.1;
    auto ctx = context();
    const double penalty = downstreamPenaltyMhz(ctx, row0[0], Watts(18.0));
    EXPECT_GE(penalty, 200.0);
}

TEST_F(SchedFixture, DownstreamPenaltyNeverNegative)
{
    const auto row0 = topo_.socketsInRow(0);
    makeBusy(row0[6], 1100.0, 9.8);
    ambient_[row0[6]] = 94.0; // already at the floor
    auto ctx = context();
    EXPECT_GE(downstreamPenaltyMhz(ctx, row0[0], Watts(18.0)), 0.0);
}

TEST_F(SchedFixture, CouplingPredictorAvoidsHarmfulPlacement)
{
    // Row 0: a busy zone-6 socket at a thermal edge. CP must prefer a
    // downstream / harmless placement over the front socket that
    // would throttle it, when both predict the same own frequency.
    const auto row0 = topo_.socketsInRow(0);
    const std::size_t down = row0[10];
    makeBusy(down, 1500.0, 13.6);
    ambient_[down] =
        SimplePeakModel()
            .maxAmbient(Celsius(95.0), Watts(13.6),
                        topo_.sinkOf(down))
            .value() -
        0.1;
    // Make every socket ambient cool enough that own-frequency
    // predictions tie at the cap; disable boost so sinks tie too.
    for (std::size_t s = 0; s < topo_.numSockets(); ++s)
        credit_[s] = 0.0;

    CouplingPredictor cp;
    // Restrict the decision to row 0 by marking all other rows busy.
    for (std::size_t s = 12; s < topo_.numSockets(); ++s)
        busy_[s] = true;
    allIdle();
    auto ctx = context();
    for (int i = 0; i < 10; ++i) {
        const std::size_t pick = cp.pick(job(), ctx);
        // Upstream-of-down sockets (zones 1..5 of row 0) would slow
        // the busy socket; the harmless choice is its zone-6 partner.
        EXPECT_EQ(topo_.zoneIdOf(pick), 6);
    }
}

TEST_F(SchedFixture, CouplingPredictorWithZeroWeightIgnoresDownstream)
{
    const auto row0 = topo_.socketsInRow(0);
    makeBusy(row0[10], 1500.0, 13.6);
    ambient_[row0[10]] = 90.0;
    CouplingPredictor plain(0.0, true);
    CouplingPredictor full(1.0, true);
    auto ctx = context();
    // Both must still pick idle sockets; the zero-weight variant
    // behaves like Predictive (no panic, valid choice).
    const std::size_t a = plain.pick(job(), ctx);
    const std::size_t b = full.pick(job(), ctx);
    EXPECT_FALSE(busy_[a]);
    EXPECT_FALSE(busy_[b]);
}

TEST_F(SchedFixture, CouplingPredictorStaysInOneRow)
{
    // With idle sockets in exactly one row, CP must pick there.
    for (std::size_t s = 0; s < topo_.numSockets(); ++s)
        busy_[s] = topo_.rowOf(s) != 7;
    allIdle();
    CouplingPredictor cp;
    auto ctx = context();
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(topo_.rowOf(cp.pick(job(), ctx)), 7);
}

TEST_F(SchedFixture, CouplingPredictorRowCountsMatchIdleTally)
{
    // The engine hands CP per-row idle counts; without them CP tallies
    // the idle list itself. Both must pick the same socket and consume
    // the same RNG draws, on idle lists spread unevenly over rows.
    Rng layout(11);
    for (int trial = 0; trial < 20; ++trial) {
        for (std::size_t s = 0; s < topo_.numSockets(); ++s) {
            busy_[s] = layout.nextBounded(4) != 0;
            freq_[s] = busy_[s] ? 1500.0 : 0.0;
            power_[s] = busy_[s] ? 13.6 : 2.2;
        }
        busy_[layout.nextBounded(topo_.numSockets())] = false;
        allIdle();
        std::vector<int> per_row(static_cast<std::size_t>(topo_.numRows()),
                                 0);
        for (const std::size_t s : idle_)
            ++per_row[static_cast<std::size_t>(topo_.rowOf(s))];

        Rng with_rng(100 + trial);
        Rng without_rng(100 + trial);
        SchedContext with = context();
        with.idlePerRow = per_row.data();
        with.rng = &with_rng;
        SchedContext without = context();
        without.rng = &without_rng;
        CouplingPredictor a;
        CouplingPredictor b;
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(a.pick(job(), with), b.pick(job(), without))
                << "trial " << trial;
        EXPECT_EQ(with_rng.nextU64(), without_rng.nextU64())
            << "trial " << trial;
    }
}

TEST_F(SchedFixture, PickHelpersTieBreakDeterministically)
{
    auto ctx = context();
    std::vector<double> key(topo_.numSockets(), 1.0);
    key[99] = 0.5;
    EXPECT_EQ(pickMinBy(ctx, key.data(), 1e-9, false), 99u);
    key[99] = 2.0;
    EXPECT_EQ(pickMaxBy(ctx, key.data(), 1e-9, false), 99u);
}

TEST_F(SchedFixture, PickHelperRandomTieBreakSpreads)
{
    auto ctx = context();
    const std::vector<double> key(topo_.numSockets(), 1.0);
    std::vector<bool> seen(topo_.numSockets(), false);
    for (int i = 0; i < 1000; ++i)
        seen[pickMinBy(ctx, key.data(), 1e-9, true)] = true;
    std::size_t covered = 0;
    for (bool b : seen)
        covered += b;
    EXPECT_GT(covered, 100u);
}

/**
 * The pick helpers' contract as two naive passes: the extreme key
 * over the idle sockets in one chain (NaN keys skipped), then the
 * sockets within tie_eps of it — the first of them, or one drawn
 * with a single nextBounded over their count.
 */
std::size_t
twoPassPick(const std::vector<std::size_t> &idle, const double *key,
            double tie_eps, bool random_tiebreak, bool want_max, Rng &rng)
{
    double best = want_max ? -std::numeric_limits<double>::infinity()
                           : std::numeric_limits<double>::infinity();
    for (std::size_t s : idle) {
        if (want_max ? key[s] > best : key[s] < best)
            best = key[s];
    }
    std::vector<std::size_t> ties;
    for (std::size_t s : idle) {
        if (want_max ? key[s] >= best - tie_eps : key[s] <= best + tie_eps)
            ties.push_back(s);
    }
    if (!random_tiebreak)
        return ties.front();
    return ties[rng.nextBounded(ties.size())];
}

/** @p n distinct socket ids below @p limit, ascending, drawn by @p gen. */
std::vector<std::size_t>
randomIdleList(Rng &gen, std::size_t limit, std::size_t n)
{
    std::vector<std::size_t> ids(limit);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i)
        std::swap(ids[i], ids[i + gen.nextBounded(limit - i)]);
    ids.resize(n);
    std::sort(ids.begin(), ids.end());
    return ids;
}

TEST_F(SchedFixture, PickHelpersMatchTwoPassReference)
{
    // Keys cluster on exact ties, near-ties at +-tie_eps/2 (inside the
    // band) and +-2 tie_eps (outside it), signed zeros and NaN, plus
    // values a little off to one side, so both ends of the range see
    // ties. Every idle-list length from 1 to n covers every remainder
    // of the scan's accumulator count.
    const std::size_t n = topo_.numSockets();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Rng gen(20261019);
    std::vector<double> key(n);
    std::uint64_t seed = 1;
    for (double tie_eps : {1e-9, 0.25}) {
        for (double base : {0.0, 30.0, -7.5}) {
            for (std::size_t len = 1; len <= n; ++len) {
                idle_ = randomIdleList(gen, n, len);
                const double off_side =
                    static_cast<double>(gen.nextBounded(3)) - 1.0;
                for (double &k : key) {
                    const double menu[] = {
                        base,
                        base + tie_eps / 2,
                        base - tie_eps / 2,
                        base + 2 * tie_eps,
                        base - 2 * tie_eps,
                        0.0,
                        -0.0,
                        nan,
                        base + off_side * gen.uniform(3 * tie_eps, 5.0),
                    };
                    k = menu[gen.nextBounded(std::size(menu))];
                }
                // The helpers require one comparable key.
                if (std::all_of(idle_.begin(), idle_.end(),
                                [&](std::size_t s) {
                                    return key[s] != key[s];
                                }))
                    key[idle_[gen.nextBounded(len)]] = base;
                auto ctx = context();
                for (bool want_max : {false, true}) {
                    for (bool random : {false, true}) {
                        Rng helper_rng(seed);
                        Rng ref_rng(seed);
                        ++seed;
                        ctx.rng = &helper_rng;
                        const std::size_t got =
                            want_max ? pickMaxBy(ctx, key.data(), tie_eps,
                                                 random)
                                     : pickMinBy(ctx, key.data(), tie_eps,
                                                 random);
                        const std::size_t want =
                            twoPassPick(idle_, key.data(), tie_eps, random,
                                        want_max, ref_rng);
                        ASSERT_EQ(got, want)
                            << "len " << len << " base " << base
                            << " eps " << tie_eps << " max " << want_max
                            << " random " << random;
                        ASSERT_EQ(helper_rng.nextU64(), ref_rng.nextU64())
                            << "len " << len << " base " << base;
                    }
                }
            }
        }
    }
}

/** MinHR's rule with a std::min loop of its own: MinHr::pick's reference. */
std::size_t
minHrLoopPick(const SchedContext &ctx)
{
    std::vector<double> impact(ctx.coupling->size());
    for (std::size_t s = 0; s < impact.size(); ++s)
        impact[s] = ctx.coupling->downstreamImpact(s).value();
    double best_impact = std::numeric_limits<double>::infinity();
    for (std::size_t s : *ctx.idle)
        best_impact = std::min(best_impact, impact[s]);
    double best_temp = std::numeric_limits<double>::infinity();
    std::size_t best = (*ctx.idle)[0];
    for (std::size_t s : *ctx.idle) {
        if (impact[s] > best_impact + 1e-12)
            continue;
        if (ctx.chipTempC[s] < best_temp) {
            best_temp = ctx.chipTempC[s];
            best = s;
        }
    }
    return best;
}

/**
 * A-Random's rule with std::min loops of its own: the reference
 * AdaptiveRandom::pick is compared with, pick and RNG draw.
 */
std::size_t
adaptiveRandomLoopPick(const SchedContext &ctx, double band)
{
    const double *now = ctx.chipTempC;
    const double *hist = ctx.histTempC;
    double min_now = std::numeric_limits<double>::infinity();
    for (std::size_t s : *ctx.idle)
        min_now = std::min(min_now, now[s]);
    double min_hist = std::numeric_limits<double>::infinity();
    for (std::size_t s : *ctx.idle) {
        if (now[s] <= min_now + band)
            min_hist = std::min(min_hist, hist[s]);
    }
    std::size_t n = 0;
    for (std::size_t s : *ctx.idle) {
        if (now[s] <= min_now + band && hist[s] <= min_hist + band)
            ++n;
    }
    std::size_t chosen = ctx.rng->nextBounded(n);
    for (std::size_t s : *ctx.idle) {
        if (now[s] <= min_now + band && hist[s] <= min_hist + band) {
            if (chosen == 0)
                return s;
            --chosen;
        }
    }
    return ctx.nSockets;
}

/**
 * A temperature on a 0.25 C grid (so band edges are hit exactly),
 * now and then a signed zero.
 */
double
gridTemp(Rng &gen)
{
    switch (gen.nextBounded(16)) {
    case 0:
        return 0.0;
    case 1:
        return -0.0;
    default:
        return 25.0 + 0.25 * static_cast<double>(gen.nextBounded(40));
    }
}

TEST_F(SchedFixture, MinHrMatchesItsMinLoop)
{
    const std::size_t n = topo_.numSockets();
    Rng gen(4242);
    MinHr policy;
    for (std::size_t len = 1; len <= n; ++len) {
        idle_ = randomIdleList(gen, n, len);
        for (double &t : chip_)
            t = gridTemp(gen);
        auto ctx = context();
        EXPECT_EQ(policy.pick(job(), ctx), minHrLoopPick(ctx))
            << "len " << len;
    }
}

TEST_F(SchedFixture, AdaptiveRandomMatchesItsMinLoops)
{
    const std::size_t n = topo_.numSockets();
    Rng gen(4343);
    std::uint64_t seed = 1;
    for (double band : {0.0, 0.25, 1.0}) {
        AdaptiveRandom policy{CelsiusDelta(band)};
        for (std::size_t len = 1; len <= n; ++len) {
            idle_ = randomIdleList(gen, n, len);
            for (std::size_t s = 0; s < n; ++s) {
                chip_[s] = gridTemp(gen);
                hist_[s] = gridTemp(gen);
            }
            Rng policy_rng(seed);
            Rng loop_rng(seed);
            ++seed;
            auto ctx = context();
            ctx.rng = &policy_rng;
            const std::size_t got = policy.pick(job(), ctx);
            ctx.rng = &loop_rng;
            EXPECT_EQ(got, adaptiveRandomLoopPick(ctx, band))
                << "len " << len << " band " << band;
            EXPECT_EQ(policy_rng.nextU64(), loop_rng.nextU64())
                << "len " << len << " band " << band;
        }
    }
}

} // namespace
} // namespace densim
