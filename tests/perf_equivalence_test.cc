/**
 * @file
 * Exactness tests for the engine hot paths: hex-float goldens that
 * every exact rewrite must reproduce to the last bit, a shadow policy
 * that re-prices every scheduler candidate of real runs through the
 * full DVFS searches, a metamorphic property of the coupling model,
 * and the epoch-scoped completion list against a linear scan.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/completion_list.hh"
#include "core/dense_server_sim.hh"
#include "sched/factory.hh"
#include "sched/prediction.hh"
#include "workload/benchmark.hh"
#include "workload/job_generator.hh"

namespace densim {
namespace {

/** A small, fast configuration exercising all engine paths. */
SimConfig
diffConfig()
{
    SimConfig config;
    config.topo.rows = 3; // 36 sockets
    config.simTimeS = 2.0;
    config.warmupS = 0.5;
    config.socketTauS = 0.5;
    config.load = 0.7;
    config.seed = 42;
    return config;
}

/** Every SimMetrics field the goldens pin, EXPECT_EQ on doubles. */
void
expectBitIdentical(const SimMetrics &a, const SimMetrics &b)
{
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.jobsUnfinished, b.jobsUnfinished);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.makespanS, b.makespanS);
    EXPECT_EQ(a.totalWork, b.totalWork);
    EXPECT_EQ(a.totalBusyTime, b.totalBusyTime);
    EXPECT_EQ(a.totalFreqTime, b.totalFreqTime);
    EXPECT_EQ(a.boostTimeS, b.boostTimeS);
    EXPECT_EQ(a.maxChipTempC, b.maxChipTempC);
    EXPECT_EQ(a.runtimeExpansion.mean(), b.runtimeExpansion.mean());
    EXPECT_EQ(a.serviceExpansion.mean(), b.serviceExpansion.mean());
    EXPECT_EQ(a.queueDelayS.mean(), b.queueDelayS.mean());
    EXPECT_EQ(a.chipTempC.mean(), b.chipTempC.mean());
    EXPECT_EQ(a.front.workDone, b.front.workDone);
    EXPECT_EQ(a.back.workDone, b.back.workDone);
    EXPECT_EQ(a.even.workDone, b.even.workDone);
}

TEST(PerfEquivalence, ObservabilityIsBitIdentical)
{
    // The disabled-overhead contract (DESIGN.md Sec. 10) is stronger
    // than "equivalent": turning on every runtime observability
    // feature — timeline sampling, trace and JSONL sinks — must leave
    // SimMetrics *bit-identical*, because counters and sinks only
    // read model state, never feed back into it. EXPECT_EQ on
    // doubles, not NEAR.
    SimConfig plain = diffConfig();
    SimConfig observed = diffConfig();
    observed.timelineSampleS = 0.25;
    observed.obsTracePath =
        testing::TempDir() + "perf_equiv_trace.json";
    observed.obsTimelinePath =
        testing::TempDir() + "perf_equiv_timeline.jsonl";

    DenseServerSim a(plain, makeScheduler("CP"));
    DenseServerSim b(observed, makeScheduler("CP"));
    expectBitIdentical(a.run(), b.run());
}

// ----------------------------------------------------- golden seeds

/**
 * Pre-SoA-refactor SimMetrics captured from the seed engine (hex
 * float literals, so the expected values round-trip exactly). The
 * SoA hot paths — flat state arrays, the feasibility thresholds,
 * the fused scoring context — are all claimed to be *exact*
 * rewrites, so the refactored engine must reproduce these numbers
 * to the last bit (EXPECT_EQ on doubles) for every
 * scheduler, with faults armed, and with migration on.
 */
struct GoldenRow
{
    const char *name;
    std::size_t jobsArrived, jobsCompleted, jobsUnfinished, migrations;
    double energyJ, makespanS, totalWork, totalBusyTime, totalFreqTime,
        boostTimeS, maxChipTempC, runtimeExpansion, serviceExpansion,
        queueDelayS, chipTempC;
};

constexpr GoldenRow kGoldens[] = {
    {"CF", 9647, 7241, 0, 0,
     0x1.5542ba6fa8c35p+9, 0x1.11e9161e38482p+1,
     0x1.7064ff552a54dp+5, 0x1.51945ef131924p+5,
     0x1.2917ec1050151p+5, 0x1.dc24800af28e5p+4,
     0x1.80365f643ae5dp+6, 0x1.01e3e9624cfb8p+0,
     0x1.d2131ef92788ep-1, 0x1.8dbc5a193e07ap-14,
     0x1.50b2678f70475p+6},
    {"HF", 9647, 7241, 0, 0,
     0x1.4f8e6a7f8c2bep+9, 0x1.0dfeb3f563588p+1,
     0x1.71093a010d1c7p+5, 0x1.5d68d26bd1759p+5,
     0x1.27541e3fd8ddp+5, 0x1.a1207ed6e2b52p+4,
     0x1.8a3b47fa03eb9p+6, 0x1.05eceee97d77p+0,
     0x1.de49f48d9d6e9p-1, 0x1.2a20246a56abcp-14,
     0x1.5205e2c98bb88p+6},
    {"Random", 9647, 7241, 0, 0,
     0x1.517ad3414c87ep+9, 0x1.0df6634acec3bp+1,
     0x1.707e015d19d21p+5, 0x1.56603a02ab7d1p+5,
     0x1.28377a638ee4p+5, 0x1.b99e1cfa3e665p+4,
     0x1.8627510d61c4fp+6, 0x1.023c08ef6505cp+0,
     0x1.d8859499a6314p-1, 0x1.41d8628865a42p-14,
     0x1.4c873e1b2dda6p+6},
    {"MinHR", 9647, 7241, 0, 0,
     0x1.4f460606b2fbep+9, 0x1.0dfb92749bdeep+1,
     0x1.7106b95c5cd72p+5, 0x1.5d75b216f93c5p+5,
     0x1.274f0560a0e35p+5, 0x1.a07a082d12131p+4,
     0x1.8854998e8f1c8p+6, 0x1.09e3030b96a59p+0,
     0x1.dcfe95e88faefp-1, 0x1.59ff1ab31092ap-14,
     0x1.506690d2212e4p+6},
    {"CN", 9647, 7241, 0, 0,
     0x1.546a02966547fp+9, 0x1.0eb46cbf9ea2p+1,
     0x1.703897815cc25p+5, 0x1.508c33f5cf649p+5,
     0x1.29217a7e9bd1fp+5, 0x1.de89eac573f1ap+4,
     0x1.83d362e9bddccp+6, 0x1.039dc72cb539ep+0,
     0x1.d3524d8497251p-1, 0x1.65c8e359bcbc9p-14,
     0x1.5118b1ced9f51p+6},
    {"Balanced", 9647, 7241, 0, 0,
     0x1.546a5c8499da9p+9, 0x1.110817335dcdfp+1,
     0x1.707a2714c4284p+5, 0x1.526785e2f61b8p+5,
     0x1.29020d88382ebp+5, 0x1.dae853bb09f6cp+4,
     0x1.815c8f75993c7p+6, 0x1.007739256d118p+0,
     0x1.d63ed66f9b6a2p-1, 0x1.233bf7960c76bp-14,
     0x1.50ee5ac29db56p+6},
    {"Balanced-L", 9647, 7241, 0, 0,
     0x1.53dfdfce483b1p+9, 0x1.0dfeb3f563588p+1,
     0x1.70c5d725c6c98p+5, 0x1.524540fdc78ffp+5,
     0x1.295420e0a6669p+5, 0x1.d7a564aa6c784p+4,
     0x1.833b125ba29cep+6, 0x1.09a6eba0b6e71p+0,
     0x1.d507f8fa156f6p-1, 0x1.c2f859774ab9fp-14,
     0x1.53014b714f283p+6},
    {"A-Random", 9647, 7241, 0, 0,
     0x1.543d7c825ef51p+9, 0x1.0dfe9dcdd6b36p+1,
     0x1.705f82776859p+5, 0x1.511e3642a0ad1p+5,
     0x1.292a767861e77p+5, 0x1.deb4a2d12d0f2p+4,
     0x1.7e626d96f2a07p+6, 0x1.021d75735289cp+0,
     0x1.d27969a3bd036p-1, 0x1.6aebf88a9383p-14,
     0x1.50c2cd314692ep+6},
    {"Predictive", 9647, 7241, 0, 0,
     0x1.54a6c66734595p+9, 0x1.0ed68a6e131c4p+1,
     0x1.707fd78d3b77ap+5, 0x1.5013a55b51c2p+5,
     0x1.2980aabd00183p+5, 0x1.e5bf5915c9324p+4,
     0x1.7c0ec74fa52f3p+6, 0x1.04207565ffc2bp+0,
     0x1.d09e520d7914bp-1, 0x1.9d7600aaac7c7p-14,
     0x1.528311c1e03cp+6},
    {"CP", 9647, 7241, 0, 0,
     0x1.5150671913124p+9, 0x1.0df6634acec3bp+1,
     0x1.707a1869b6192p+5, 0x1.5841e57c54868p+5,
     0x1.27d1d09e98075p+5, 0x1.a9b800e2e93bp+4,
     0x1.88443b2ec411cp+6, 0x1.03bc2f278daap+0,
     0x1.df78eff921406p-1, 0x1.14d237b07ee33p-14,
     0x1.4f60b54c466f5p+6},
    {"CP+faults", 9647, 7241, 0, 0,
     0x1.6d83f20f75ab6p+9, 0x1.4fd04652ef671p+1,
     0x1.70dc663ca7c5ap+5, 0x1.522961dbb0d73p+5,
     0x1.29702d07e6b31p+5, 0x1.b2ba505cb5e5p+4,
     0x1.c7a3b17d13dafp+6, 0x1.1a46712a096ddp+8,
     0x1.d6425ff66ea98p-1, 0x1.dccb69f262778p-3,
     0x1.61a70ec568e16p+6},
    {"CP+migration", 9647, 7241, 0, 7,
     0x1.50ff3d8c0a83p+9, 0x1.0dfe9dcdd6b36p+1,
     0x1.7096c471e73fdp+5, 0x1.5895daf80bbbcp+5,
     0x1.27dd3a1fe50fep+5, 0x1.a8a524282d1d7p+4,
     0x1.88610aa666b29p+6, 0x1.0957820ea96abp+0,
     0x1.df215b77feab5p-1, 0x1.75716686c338dp-14,
     0x1.4eb75639a664bp+6},
    // The two rows below reach thermalStep's non-pristine sensed
    // path: scheduler sensor noise and quantization, and stuck, noisy
    // and dropout sensors plus socket failures
    // (SensorGoldenRowsReachTheirPaths).
    {"CF+sensors", 9647, 7241, 0, 0,
     0x1.54408875919eap+9, 0x1.0df6f964fa877p+1,
     0x1.7058134f43bdfp+5, 0x1.5102f08fe3983p+5,
     0x1.29289ef5c9f6dp+5, 0x1.dfb6cc3b6cd0ep+4,
     0x1.7eef016729956p+6, 0x1.077038aa4932bp+0,
     0x1.d1beeab02e40dp-1, 0x1.c024d1f9b425ap-14,
     0x1.5053a51fa8b04p+6},
    {"CP+sensor-faults", 9647, 7241, 0, 0,
     0x1.514a2174f3f0dp+9, 0x1.0e0c3473002efp+1,
     0x1.70866224144cap+5, 0x1.5606dba9b43e5p+5,
     0x1.2851ef843e7d5p+5, 0x1.b3ebd1ed73648p+4,
     0x1.8ae58a623977bp+6, 0x1.1f95f410bf148p+0,
     0x1.d697ca4b6d463p-1, 0x1.f20cfbb789578p-13,
     0x1.5047ae43ac808p+6},
};

/** Build the scenario config for a golden row from its name. */
SimConfig
goldenConfig(const char *name)
{
    SimConfig config = diffConfig();
    if (std::string(name) == "CP+faults") {
        // Only the fan fault fires: with sensorStuckCount and
        // socketFailCount at 0 the timeline picks no socket, so the
        // stuck and failure times schedule nothing.
        config.fault.fanFailS = 0.8;
        config.fault.fanSpeedFrac = 0.3;
        config.fault.fanRecoverS = 1.5;
        config.fault.sensorStuckAtS = 0.9;
        config.fault.socketFailS = 1.0;
        config.fault.socketRecoverS = 1.6;
    } else if (std::string(name) == "CP+migration") {
        config.migrationEnabled = true;
    } else if (std::string(name) == "CF+sensors") {
        config.sensorNoiseC = 0.5;
        config.sensorQuantC = 0.25;
    } else if (std::string(name) == "CP+sensor-faults") {
        config.fault.sensorStuckCount = 3;
        config.fault.sensorStuckAtS = 0.6;
        config.fault.sensorNoisyCount = 3;
        config.fault.sensorNoisyAtS = 0.7;
        config.fault.sensorDropoutCount = 3;
        config.fault.sensorDropoutAtS = 0.8;
        config.fault.sensorDropoutDurS = 0.6;
        config.fault.socketFailCount = 2;
        config.fault.socketFailS = 1.0;
        config.fault.socketRecoverS = 1.5;
    }
    return config;
}

/** The policy of a golden row: its name up to any '+' suffix. */
std::string
goldenScheduler(const char *name)
{
    const std::string row(name);
    return row.substr(0, row.find('+'));
}

/** Counter @p name of @p sim's last run; a failure if unregistered. */
std::uint64_t
counterValue(const DenseServerSim &sim, const std::string &name)
{
    for (const auto &c : sim.observability().counters()) {
        if (c.name == name)
            return c.value;
    }
    ADD_FAILURE() << "counter '" << name << "' not registered";
    return 0;
}

void
expectGolden(const SimMetrics &m, const GoldenRow &g)
{
    EXPECT_EQ(m.jobsArrived, g.jobsArrived);
    EXPECT_EQ(m.jobsCompleted, g.jobsCompleted);
    EXPECT_EQ(m.jobsUnfinished, g.jobsUnfinished);
    EXPECT_EQ(m.migrations, g.migrations);
    EXPECT_EQ(m.energyJ, g.energyJ);
    EXPECT_EQ(m.makespanS, g.makespanS);
    EXPECT_EQ(m.totalWork, g.totalWork);
    EXPECT_EQ(m.totalBusyTime, g.totalBusyTime);
    EXPECT_EQ(m.totalFreqTime, g.totalFreqTime);
    EXPECT_EQ(m.boostTimeS, g.boostTimeS);
    EXPECT_EQ(m.maxChipTempC, g.maxChipTempC);
    EXPECT_EQ(m.runtimeExpansion.mean(), g.runtimeExpansion);
    EXPECT_EQ(m.serviceExpansion.mean(), g.serviceExpansion);
    EXPECT_EQ(m.queueDelayS.mean(), g.queueDelayS);
    EXPECT_EQ(m.chipTempC.mean(), g.chipTempC);
}

TEST(PerfEquivalence, GoldenMetricsMatchPreRefactorSeed)
{
    for (const GoldenRow &g : kGoldens) {
        SCOPED_TRACE(g.name);
        DenseServerSim sim(goldenConfig(g.name),
                           makeScheduler(goldenScheduler(g.name)));
        expectGolden(sim.run(), g);
    }
}

TEST(PerfEquivalence, SensorGoldenRowsReachTheirPaths)
{
    // Neither sensor row may go inert. The scheduler-sensor knobs
    // have no counter; their noise must move CF's picks off the
    // pristine CF row. The sensor-fault row must fire every fault it
    // arms.
    static_assert(std::string_view(kGoldens[0].name) == "CF");
    DenseServerSim sensors(goldenConfig("CF+sensors"),
                           makeScheduler("CF"));
    EXPECT_NE(sensors.run().energyJ, kGoldens[0].energyJ);

    DenseServerSim faults(goldenConfig("CP+sensor-faults"),
                          makeScheduler("CP"));
    faults.run();
    EXPECT_EQ(counterValue(faults, "fault.sensorFaults"), 9u);
    EXPECT_GT(counterValue(faults, "fault.dropoutFallbacks"), 0u);
    EXPECT_EQ(counterValue(faults, "fault.socketFailures"), 2u);
    EXPECT_EQ(counterValue(faults, "fault.socketRecoveries"), 2u);
}

// ------------------------------------------- prediction-state shadow

/** What a shadow saw over one run. */
struct ShadowTally
{
    std::size_t picks = 0;
    std::size_t probes = 0; //!< Idle sockets re-priced.
    std::size_t predictionMismatches = 0;
    std::size_t penaltyMismatches = 0;
    std::size_t pickMismatches = 0;
};

/** Whether @p a and @p b stand at the same stream position. */
bool
sameStream(const Rng &a, const Rng &b)
{
    const Rng::Snapshot x = a.snapshot();
    const Rng::Snapshot y = b.snapshot();
    return std::equal(std::begin(x.state), std::end(x.state),
                      std::begin(y.state)) &&
           x.hasSpare == y.hasSpare && (!x.hasSpare || x.spare == y.spare);
}

/**
 * A CP or Predictive policy that checks the engine's prediction state
 * at every pick of a real run. It builds a bare copy of the context,
 * without the engine's cache and row counts, so every DVFS search in
 * it runs PowerManager::chooseAtAmbientCapped in full and CP tallies
 * the rows itself. For every idle socket, predictPlacement and
 * downstreamPenaltyMhz must agree exactly on both contexts; then a
 * second instance of the policy picks on the bare context, from a
 * copy of the RNG, and must pick the same socket and leave the RNG at
 * the same position. The engine-context pick is returned, so the run
 * itself is unchanged. The first mismatch of each kind is reported
 * field by field; all of them are counted.
 */
class PredictionShadow : public Scheduler
{
  public:
    PredictionShadow(const std::string &policy, ShadowTally &tally)
        : engine_(makeScheduler(policy)), bare_(makeScheduler(policy)),
          tally_(tally)
    {
    }

    const char *name() const override { return engine_->name(); }

    std::size_t
    pick(const Job &job, const SchedContext &ctx) override
    {
        const std::size_t at = tally_.picks++;
        EXPECT_NE(ctx.cache, nullptr);
        EXPECT_NE(ctx.idlePerRow, nullptr);
        Rng rng = *ctx.rng;
        SchedContext bare = ctx;
        bare.cache = nullptr;
        bare.idlePerRow = nullptr;
        bare.rng = &rng;
        for (const std::size_t s : *ctx.idle) {
            ++tally_.probes;
            const DvfsDecision got = predictPlacement(ctx, s, job.set);
            const DvfsDecision want = predictPlacement(bare, s, job.set);
            const bool same = got.pstate == want.pstate &&
                              got.freqMhz == want.freqMhz &&
                              got.power.value() == want.power.value() &&
                              got.predictedPeak.value() ==
                                  want.predictedPeak.value() &&
                              got.feasible == want.feasible;
            if (!same && tally_.predictionMismatches++ == 0) {
                SCOPED_TRACE(where(at, s));
                EXPECT_EQ(got.pstate, want.pstate);
                EXPECT_EQ(got.freqMhz, want.freqMhz);
                EXPECT_EQ(got.power.value(), want.power.value());
                EXPECT_EQ(got.predictedPeak.value(),
                          want.predictedPeak.value());
                EXPECT_EQ(got.feasible, want.feasible);
            }
            const double got_mhz = downstreamPenaltyMhz(ctx, s, got.power);
            const double want_mhz =
                downstreamPenaltyMhz(bare, s, want.power);
            if (got_mhz != want_mhz && tally_.penaltyMismatches++ == 0) {
                EXPECT_EQ(got_mhz, want_mhz) << where(at, s);
            }
        }
        const std::size_t want = bare_->pick(job, bare);
        const std::size_t got = engine_->pick(job, ctx);
        if ((got != want || !sameStream(*ctx.rng, rng)) &&
            tally_.pickMismatches++ == 0) {
            SCOPED_TRACE(where(at, got));
            EXPECT_EQ(got, want);
            EXPECT_TRUE(sameStream(*ctx.rng, rng));
        }
        return got;
    }

  private:
    static std::string
    where(std::size_t pick, std::size_t socket)
    {
        return "pick " + std::to_string(pick) + ", socket " +
               std::to_string(socket);
    }

    std::unique_ptr<Scheduler> engine_;
    std::unique_ptr<Scheduler> bare_;
    ShadowTally &tally_;
};

void
expectNoMismatch(const ShadowTally &tally)
{
    EXPECT_GT(tally.picks, 0u);
    EXPECT_GT(tally.probes, tally.picks);
    EXPECT_EQ(tally.predictionMismatches, 0u);
    EXPECT_EQ(tally.penaltyMismatches, 0u);
    EXPECT_EQ(tally.pickMismatches, 0u);
}

TEST(PerfEquivalence, PredictionStateMatchesFullSearchOnGoldenRows)
{
    // With faults armed the engine turns the penalty snapshot off and
    // every probe walks the feasibility table; the sensor-fault row
    // also takes sockets out of the idle pool, and the migration row
    // picks for migrations too. Each row must still match its golden.
    for (const GoldenRow &g : kGoldens) {
        const std::string policy = goldenScheduler(g.name);
        if (policy != "CP" && policy != "Predictive")
            continue;
        SCOPED_TRACE(g.name);
        ShadowTally tally;
        DenseServerSim sim(goldenConfig(g.name),
                           std::make_unique<PredictionShadow>(policy,
                                                              tally));
        expectGolden(sim.run(), g);
        expectNoMismatch(tally);
    }
}

/** A third of @p load from each workload set, merged. */
std::vector<Job>
mixedSetJobs(double load)
{
    const SimConfig base = diffConfig();
    const auto sockets = static_cast<int>(
        ServerTopology(base.topo).numSockets());
    std::vector<Job> jobs;
    std::uint64_t seed = base.seed;
    for (const WorkloadSet set : allWorkloadSets()) {
        JobGenerator gen(set, load / 3.0, sockets, ++seed);
        std::vector<Job> part = gen.generateUntil(base.simTimeS);
        std::vector<Job> merged;
        std::merge(jobs.begin(), jobs.end(), part.begin(), part.end(),
                   std::back_inserter(merged),
                   [](const Job &x, const Job &y) {
                       return x.arrivalS < y.arrivalS;
                   });
        jobs = std::move(merged);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].id = i;
    return jobs;
}

TEST(PerfEquivalence, PredictionStateMatchesFullSearchOnMixedSets)
{
    // Every golden row runs one workload set, so a socket never
    // switches threshold rows. Interleaved sets make sockets change
    // sets between jobs. At load 0.7 the mixed list never migrates,
    // so the migration case draws its list at 0.9, where it does.
    for (const char *name : {"CP", "CP+faults", "CP+migration"}) {
        SCOPED_TRACE(name);
        const bool migration = std::string(name) == "CP+migration";
        ShadowTally tally;
        DenseServerSim sim(goldenConfig(name),
                           std::make_unique<PredictionShadow>("CP", tally));
        const SimMetrics m =
            sim.run(mixedSetJobs(migration ? 0.9 : diffConfig().load));
        EXPECT_GT(m.jobsCompleted, 0u);
        EXPECT_EQ(m.migrations > 0, migration);
        expectNoMismatch(tally);
    }
}

TEST(Metamorphic, CpEqualsNoCouplingOnDegreeOneTopology)
{
    // On a degree-1 topology no socket sits downstream of another, so
    // CP's coupling penalty is zero and CP must pick exactly as
    // CP-nocoupling does, whatever the load and cross-row leak.
    SimConfig config = diffConfig();
    config.topo = {.rows = 15, .cartridgesPerRow = 1,
                   .zonesPerCartridge = 1, .socketsPerZone = 1};
    config.simTimeS = 3.0;
    config.seed = 7;
    ASSERT_EQ(ServerTopology(config.topo).degreeOfCoupling(), 1);
    for (const double leak : {0.0, 0.45}) {
        for (const double load : {0.3, 0.7, 0.95}) {
            SCOPED_TRACE("verticalLeak " + std::to_string(leak) +
                         ", load " + std::to_string(load));
            config.coupling.verticalLeak = leak;
            config.load = load;
            DenseServerSim cp(config, makeScheduler("CP"));
            DenseServerSim flat(config, makeScheduler("CP-nocoupling"));
            expectBitIdentical(cp.run(), flat.run());
        }
    }
}

// -------------------------------------------------- completion list

/** Empty list over ids [0, n) listing every key below @p horizon. */
CompletionList
openList(std::size_t n, double horizon)
{
    CompletionList list;
    list.reset(n);
    list.open(horizon);
    list.close();
    return list;
}

constexpr double kNoHorizon = std::numeric_limits<double>::infinity();

TEST(CompletionList, OrdersByKeyThenId)
{
    CompletionList list = openList(8, kNoHorizon);
    list.upsert(5, 3.0);
    list.upsert(2, 1.0);
    list.upsert(7, 2.0);
    list.upsert(3, 1.0); // Ties broken by lowest id.
    EXPECT_EQ(list.top(), 2u);
    EXPECT_DOUBLE_EQ(list.topKey(), 1.0);
    list.erase(2);
    EXPECT_EQ(list.top(), 3u);
    list.erase(3);
    EXPECT_EQ(list.top(), 7u);
}

TEST(CompletionList, UpsertReplacesKey)
{
    CompletionList list = openList(4, kNoHorizon);
    list.upsert(0, 5.0);
    list.upsert(1, 6.0);
    EXPECT_EQ(list.top(), 0u);
    list.upsert(0, 7.0); // Re-key the current top past the other.
    EXPECT_EQ(list.top(), 1u);
    list.upsert(1, 9.0);
    EXPECT_EQ(list.top(), 0u);
    EXPECT_EQ(list.size(), 2u);
}

TEST(CompletionList, EmptyTopKeyIsInfinite)
{
    CompletionList list = openList(3, kNoHorizon);
    EXPECT_TRUE(list.empty());
    EXPECT_TRUE(std::isinf(list.topKey()));
    list.upsert(1, 2.0);
    list.erase(1);
    EXPECT_TRUE(list.empty());
    EXPECT_TRUE(std::isinf(list.topKey()));
    list.erase(1); // Erasing an absent id is a no-op.
    EXPECT_TRUE(list.empty());
}

TEST(CompletionList, RandomizedAgainstLinearScan)
{
    // The list must always report the same minimum as a brute-force
    // scan over a mirrored key array.
    const std::size_t n = 32;
    CompletionList list = openList(n, kNoHorizon);
    std::vector<double> keys(n, -1.0); // -1 = absent.

    std::uint64_t lcg = 99;
    auto next_u = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    for (int step = 0; step < 2000; ++step) {
        const auto id = static_cast<std::size_t>(next_u() % n);
        if (next_u() % 3 == 0 && keys[id] >= 0.0) {
            list.erase(id);
            keys[id] = -1.0;
        } else {
            const double key =
                static_cast<double>(next_u() % 1000) * 0.125;
            list.upsert(id, key);
            keys[id] = key;
        }

        double best = -1.0;
        std::size_t best_id = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (keys[i] < 0.0)
                continue;
            if (best < 0.0 || keys[i] < best ||
                (keys[i] == best && i < best_id)) {
                best = keys[i];
                best_id = i;
            }
        }
        if (best_id == n) {
            EXPECT_TRUE(list.empty());
        } else {
            ASSERT_FALSE(list.empty());
            EXPECT_EQ(list.top(), best_id);
            EXPECT_DOUBLE_EQ(list.topKey(), best);
        }
    }
}

TEST(CompletionList, KeyAtOrAboveHorizonIsNotListed)
{
    const double horizon = 2.0;
    const double below = std::nextafter(horizon, 0.0);
    // Offered the busy ids, the list keeps only those keyed below the
    // horizon: 0, 1 and 5 (id 2 sits at the horizon, 3 past it, 4 is
    // idle and not offered).
    const std::vector<double> keys{1.5, below, horizon, 3.0, 0.5, 1.5};
    const std::vector<std::uint8_t> busy{1, 1, 1, 1, 0, 1};
    CompletionList list;
    list.reset(6);
    list.open(horizon);
    for (std::size_t id = 0; id < keys.size(); ++id) {
        if (busy[id])
            list.offer(id, keys[id]);
    }
    list.close();
    EXPECT_EQ(list.size(), 3u);
    EXPECT_EQ(list.top(), 0u); // Its key 1.5 ties with id 5.
    list.erase(0);
    EXPECT_EQ(list.top(), 5u);
    list.erase(5);
    EXPECT_EQ(list.top(), 1u);
    EXPECT_EQ(list.topKey(), below);

    // Re-keying at or past the horizon drops the entry; re-keying
    // below it lists it again.
    list.upsert(5, 1.0);
    EXPECT_EQ(list.top(), 5u);
    list.upsert(5, horizon);
    EXPECT_EQ(list.top(), 1u);
    EXPECT_EQ(list.size(), 1u);
    list.upsert(3, below);
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list.top(), 1u); // Equal keys: the lower id first.
    list.upsert(1, 4.0);
    EXPECT_EQ(list.top(), 3u);
    EXPECT_EQ(list.size(), 1u);
    list.erase(3);
    EXPECT_TRUE(list.empty());
    EXPECT_TRUE(std::isinf(list.topKey()));

    // A reset list has no horizon yet: nothing is listed.
    list.reset(6);
    list.upsert(0, 0.0);
    EXPECT_TRUE(list.empty());
}

} // namespace
} // namespace densim
