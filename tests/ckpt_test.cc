/**
 * @file
 * Tests for crash-safe checkpoint/restore (DESIGN.md Sec. 16).
 *
 * The load-bearing property is *bit-identical resume*: a run
 * interrupted at any epoch (or fleet-window) boundary and restored
 * from its checkpoint must produce hex-float-equal metrics and
 * byte-identical JSONL sinks versus the uninterrupted run — under
 * faults, under migration, and under every fleet dispatcher. The
 * robustness half: a truncated, bit-flipped or hostile checkpoint
 * file must yield one CkptError and an engine that is still fully
 * usable, and API misuse around restore must hit testable fatal()
 * guards.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/run_driver.hh"
#include "core/dense_server_sim.hh"
#include "core/experiment.hh"
#include "core/invariant.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/fleet_sim.hh"
#include "sched/factory.hh"
#include "util/digest.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/job_generator.hh"

namespace densim {
namespace {

/** Small config exercising thermals, queueing and DVFS quickly. */
SimConfig
fastConfig()
{
    SimConfig config;
    config.topo.rows = 2; // 24 sockets
    config.simTimeS = 0.6;
    config.warmupS = 0.1;
    config.socketTauS = 0.5;
    config.load = 0.7;
    config.seed = 11;
    return config;
}

/** Hexfloat rendering: equal strings iff bit-identical doubles. */
void
hex(std::ostringstream &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a ", v);
    out << buf;
}

void
hex(std::ostringstream &out, const RunningStats &s)
{
    const RunningStats::Snapshot snap = s.snapshot();
    out << snap.count << ' ';
    hex(out, snap.mean);
    hex(out, snap.m2);
    hex(out, snap.min);
    hex(out, snap.max);
}

/** Every SimMetrics field, hexfloat — EXPECT_EQ means bit-identical. */
std::string
serializeSimMetrics(const SimMetrics &m)
{
    std::ostringstream out;
    out << m.jobsArrived << ' ' << m.jobsCompleted << ' '
        << m.jobsUnfinished << ' ' << m.migrations << ' ';
    hex(out, m.runtimeExpansion);
    hex(out, m.serviceExpansion);
    hex(out, m.queueDelayS);
    hex(out, m.energyJ);
    hex(out, m.measuredS);
    hex(out, m.makespanS);
    for (const RegionMetrics *r : {&m.front, &m.back, &m.even}) {
        hex(out, r->busyTimeS);
        hex(out, r->freqTime);
        hex(out, r->workDone);
    }
    hex(out, m.totalWork);
    hex(out, m.totalBusyTime);
    hex(out, m.totalFreqTime);
    out << m.timelineS.size() << ' ';
    for (const double t : m.timelineS)
        hex(out, t);
    for (const std::vector<double> &row : m.zoneAmbientC)
        for (const double c : row)
            hex(out, c);
    hex(out, m.chipTempC);
    hex(out, m.maxChipTempC);
    hex(out, m.boostTimeS);
    return out.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "densim_ckpt_" + name;
}

/** The uninterrupted reference run. */
SimMetrics
runStraight(const SimConfig &config, const std::string &policy)
{
    DenseServerSim sim(config, makeScheduler(policy));
    return sim.run();
}

/**
 * The same run interrupted at the epoch boundary where nowS first
 * reaches @p stop_at_s: checkpoint to memory, destroy the engine,
 * restore into a *fresh* engine and drive to completion.
 */
SimMetrics
runInterrupted(const SimConfig &config, const std::string &policy,
               double stop_at_s)
{
    std::string image;
    {
        DenseServerSim sim(config, makeScheduler(policy));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < stop_at_s)
            sim.advanceEpoch();
        image = ckpt::saveEngine(sim);
        // The first engine dies here, mid-run, like a killed process.
    }
    DenseServerSim sim(config, makeScheduler(policy));
    ckpt::restoreEngine(sim, image);
    while (sim.epochPending())
        sim.advanceEpoch();
    return sim.finishRun();
}

// ------------------------------------------------ bit-identity

TEST(BitIdentity, PlainRunResumesExactly)
{
    SimConfig config = fastConfig();
    config.timelineSampleS = 0.01;
    const SimMetrics straight = runStraight(config, "CP");
    const SimMetrics resumed = runInterrupted(config, "CP", 0.3);
    EXPECT_EQ(serializeSimMetrics(straight),
              serializeSimMetrics(resumed));
}

TEST(BitIdentity, EveryInterruptPointResumesExactly)
{
    // The boundary chosen must not matter: interrupt early (warmup),
    // mid-arrivals, and deep in the drain tail.
    SimConfig config = fastConfig();
    const std::string expected =
        serializeSimMetrics(runStraight(config, "CP"));
    for (const double stop_at : {0.05, 0.45, 1.2}) {
        EXPECT_EQ(expected, serializeSimMetrics(runInterrupted(
                                config, "CP", stop_at)))
            << "interrupted at t=" << stop_at;
    }
}

TEST(BitIdentity, NoisySensorsAndRandomPolicyResumeExactly)
{
    // Consumes both the policy and the sensor RNG streams every
    // epoch — the streams' saved positions must be exact.
    SimConfig config = fastConfig();
    config.sensorNoiseC = 0.8;
    config.sensorQuantC = 1.0;
    const SimMetrics straight = runStraight(config, "A-Random");
    const SimMetrics resumed = runInterrupted(config, "A-Random", 0.3);
    EXPECT_EQ(serializeSimMetrics(straight),
              serializeSimMetrics(resumed));
}

TEST(BitIdentity, FaultedRunResumesExactly)
{
    // Fan derate, noisy sensor and failed-socket faults: the fault
    // timeline cursor, per-socket fault ladders, derated coupling,
    // the offline sockets and the fault RNG must all restore to the
    // exact epoch state. Two sockets are down at the 0.3 s stop.
    SimConfig config = fastConfig();
    config.fault.fanFailS = 0.15;
    config.fault.fanSpeedFrac = 0.55;
    config.fault.fanRecoverS = 0.45;
    config.fault.sensorNoisyAtS = 0.2;
    config.fault.socketFailCount = 2;
    config.fault.socketFailS = 0.25;
    config.fault.socketRecoverS = 0.5;
    const SimMetrics straight = runStraight(config, "CP");
    for (const double stop_at : {0.1, 0.3, 0.6}) {
        EXPECT_EQ(serializeSimMetrics(straight),
                  serializeSimMetrics(
                      runInterrupted(config, "CP", stop_at)))
            << "interrupted at t=" << stop_at;
    }
}

TEST(BitIdentity, MigrationRunResumesExactly)
{
    SimConfig config = fastConfig();
    config.migrationEnabled = true;
    config.migrationIntervalS = 0.05;
    config.migrationMinRemainingS = 0.01;
    const SimMetrics straight = runStraight(config, "CP");
    const SimMetrics resumed = runInterrupted(config, "CP", 0.3);
    EXPECT_EQ(straight.migrations, resumed.migrations);
    EXPECT_EQ(serializeSimMetrics(straight),
              serializeSimMetrics(resumed));
}

TEST(BitIdentity, JsonlSinksAreByteIdentical)
{
    // The restored run must append exactly the rows the uninterrupted
    // run would have written — the timeline grid cursor and the
    // fault log the trace is rendered from ride in the checkpoint.
    SimConfig config = fastConfig();
    config.timelineSampleS = 0.01;
    config.obsTimelinePath = tempPath("straight.jsonl");
    config.obsTracePath = tempPath("straight_trace.json");
    (void)runStraight(config, "CP");

    SimConfig resumedConfig = config;
    resumedConfig.obsTimelinePath = tempPath("resumed.jsonl");
    resumedConfig.obsTracePath = tempPath("resumed_trace.json");
    (void)runInterrupted(resumedConfig, "CP", 0.3);

    EXPECT_EQ(slurp(config.obsTimelinePath),
              slurp(resumedConfig.obsTimelinePath));
    EXPECT_EQ(slurp(config.obsTracePath),
              slurp(resumedConfig.obsTracePath));
    for (const SimConfig *c : {&config, &resumedConfig}) {
        std::remove(c->obsTimelinePath.c_str());
        std::remove(c->obsTracePath.c_str());
    }
}

TEST(BitIdentity, MidRunFlushLeavesTheFinalSinksUnchanged)
{
    // A flush mid-run (the graceful-stop path) writes the sinks as
    // they stand; the run then goes on, and its final files must be
    // those of the same run without the flush. Sockets fail before
    // the flush and recover after it, so fault spans land on both
    // sides of it.
    SimConfig config = fastConfig();
    config.simTimeS = 1.0;
    config.fault.socketFailCount = 2;
    config.fault.socketFailS = 0.3;
    config.fault.socketRecoverS = 0.7;
    const auto run = [&](const std::string &tag, bool flush) {
        SimConfig c = config;
        c.obsTracePath = tempPath(tag + "_trace.json");
        c.fault.logPath = tempPath(tag + "_faults.jsonl");
        DenseServerSim sim(c, makeScheduler("CP"));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < 0.5)
            sim.advanceEpoch();
        if (flush)
            ckpt::flushSinks(sim);
        while (sim.epochPending())
            sim.advanceEpoch();
        (void)sim.finishRun();
        std::vector<std::string> files;
        for (const std::string &path : {c.obsTracePath, c.fault.logPath}) {
            files.push_back(slurp(path));
            std::remove(path.c_str());
        }
        return files;
    };
    const std::vector<std::string> straight = run("noflush", false);
    const std::vector<std::string> flushed = run("flush", true);
    EXPECT_EQ(straight, flushed);
    EXPECT_NE(straight[0].find("socketRecover"), std::string::npos);
}

TEST(BitIdentity, SaveRestoreSaveRoundTripsBytes)
{
    // restore(save(x)) then save again must reproduce the image byte
    // for byte — the serializer covers every field the applier reads.
    SimConfig config = fastConfig();
    config.fault.sensorNoisyAtS = 0.2;
    DenseServerSim a(config, makeScheduler("CP"));
    ckpt::beginEngineRun(a);
    while (a.epochPending() && a.nowS() < 0.3)
        a.advanceEpoch();
    const std::string image = ckpt::saveEngine(a);

    DenseServerSim b(config, makeScheduler("CP"));
    ckpt::restoreEngine(b, image);
    EXPECT_EQ(image, ckpt::saveEngine(b));
}

TEST(BitIdentity, FleetResumesExactlyUnderEveryDispatcher)
{
    for (const char *dispatcher :
         {"roundrobin", "headroom", "locality", "power"}) {
        SimConfig config = fastConfig();
        config.fleet.chassis = 3;
        config.fleet.dispatcher = dispatcher;

        FleetSim straight(config, "CP");
        const std::string expected =
            serializeFleetMetrics(straight.run(2));

        std::string image;
        {
            FleetSim fleet(config, "CP");
            fleet.beginRun();
            for (int w = 0; w < 5; ++w)
                ASSERT_TRUE(fleet.advanceWindow(2));
            image = ckpt::saveFleet(fleet);
        }
        FleetSim resumed(config, "CP");
        ckpt::restoreFleet(resumed, image);
        while (resumed.advanceWindow(2)) {
        }
        EXPECT_EQ(expected, serializeFleetMetrics(resumed.finishRun()))
            << "dispatcher " << dispatcher;
    }
}

// ------------------------------------------------ fork mode

TEST(Fork, ReseedsFutureButKeepsState)
{
    SimConfig config = fastConfig();
    config.sensorNoiseC = 0.8; // make the RNG streams consequential
    std::string image;
    {
        DenseServerSim sim(config, makeScheduler("A-Random"));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < 0.3)
            sim.advanceEpoch();
        image = ckpt::saveEngine(sim);
    }
    const auto finish = [&](ckpt::RestoreMode mode,
                            std::uint64_t fork_id) {
        DenseServerSim sim(config, makeScheduler("A-Random"));
        ckpt::restoreEngine(sim, image, mode, fork_id);
        while (sim.epochPending())
            sim.advanceEpoch();
        return serializeSimMetrics(sim.finishRun());
    };
    const std::string exact = finish(ckpt::RestoreMode::Exact, 0);
    const std::string fork1 = finish(ckpt::RestoreMode::Fork, 1);
    const std::string fork1Again = finish(ckpt::RestoreMode::Fork, 1);
    const std::string fork2 = finish(ckpt::RestoreMode::Fork, 2);
    EXPECT_EQ(fork1, fork1Again); // forks are deterministic...
    EXPECT_NE(exact, fork1);      // ...but diverge from the original
    EXPECT_NE(fork1, fork2);      // ...and from each other.
}

TEST(Fork, FleetReseedsFutureButKeepsState)
{
    SimConfig config = fastConfig();
    config.fleet.chassis = 3;
    std::string image; // After 5 of 12 arrival windows.
    {
        FleetSim fleet(config, "CP");
        fleet.beginRun();
        for (int w = 0; w < 5; ++w)
            ASSERT_TRUE(fleet.advanceWindow(2));
        image = ckpt::saveFleet(fleet);
    }
    const auto finish = [&](FleetSim &fleet, ckpt::RestoreMode mode,
                            std::uint64_t fork_id) {
        ckpt::restoreFleet(fleet, image, mode, fork_id);
        while (fleet.advanceWindow(2)) {
        }
        return serializeFleetMetrics(fleet.finishRun());
    };
    const auto fresh = [&](ckpt::RestoreMode mode,
                           std::uint64_t fork_id) {
        FleetSim fleet(config, "CP");
        return finish(fleet, mode, fork_id);
    };
    // A fleet that ran 8 windows, arrivals still open, then finished:
    // its pool and its last arrival lookahead exist. Were the
    // lookahead kept across the restore, window 5 would dispatch the
    // old stream's window 8.
    const auto used = [&](ckpt::RestoreMode mode, std::uint64_t fork_id) {
        FleetSim fleet(config, "CP");
        fleet.beginRun();
        for (int w = 0; w < 8; ++w)
            EXPECT_TRUE(fleet.advanceWindow(2));
        (void)fleet.finishRun();
        return finish(fleet, mode, fork_id);
    };
    const std::string exact = fresh(ckpt::RestoreMode::Exact, 0);
    const std::string fork1 = fresh(ckpt::RestoreMode::Fork, 1);
    EXPECT_EQ(fork1, fresh(ckpt::RestoreMode::Fork, 1));
    EXPECT_NE(exact, fork1);
    EXPECT_NE(fork1, fresh(ckpt::RestoreMode::Fork, 2));
    EXPECT_EQ(exact, used(ckpt::RestoreMode::Exact, 0));
    EXPECT_EQ(fork1, used(ckpt::RestoreMode::Fork, 1));
}

// ------------------------------------------------ hostile input

/** A valid mid-run engine image to corrupt. */
std::string
goldenImage(const SimConfig &config)
{
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    while (sim.epochPending() && sim.nowS() < 0.2)
        sim.advanceEpoch();
    return ckpt::saveEngine(sim);
}

/**
 * Every corrupted image must throw CkptError with a non-empty
 * message, leave the engine closed and un-mutated, and leave it
 * fully usable: a subsequent restore of the intact image succeeds.
 */
void
expectRejected(const SimConfig &config, const std::string &good,
               const std::string &bad, const std::string &what)
{
    DenseServerSim sim(config, makeScheduler("CP"));
    try {
        ckpt::restoreEngine(sim, bad);
        FAIL() << "corrupted image accepted: " << what;
    } catch (const ckpt::CkptError &err) {
        EXPECT_FALSE(std::string(err.what()).empty()) << what;
    }
    // No partial mutation: the engine still restores cleanly.
    ckpt::restoreEngine(sim, good);
    while (sim.epochPending())
        sim.advanceEpoch();
    EXPECT_GT(sim.finishRun().jobsCompleted, 0u) << what;
}

TEST(HostileInput, TruncationsAtEveryRegionAreRejected)
{
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    ASSERT_GT(good.size(), 64u);
    // Truncate inside the header, each section header, and payloads.
    std::vector<std::size_t> cuts = {0,  1,  7,  8,  11, 12,
                                     15, 16, 23, 24, 31, 32};
    for (std::size_t frac = 1; frac < 16; ++frac)
        cuts.push_back(good.size() * frac / 16);
    cuts.push_back(good.size() - 1);
    for (const std::size_t cut : cuts) {
        expectRejected(config, good, good.substr(0, cut),
                       "truncated to " + std::to_string(cut));
    }
}

TEST(HostileInput, FlippedBytesAreRejected)
{
    // A flip anywhere in a section payload breaks that section's
    // CRC; a flip in the header breaks magic/version/kind/digest or
    // the section framing. Either way: CkptError, never UB. (A flip
    // confined to a stored CRC word itself also lands here — the CRC
    // no longer matches the payload.)
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    for (std::size_t pos = 0; pos < good.size();
         pos += 1 + good.size() / 97) {
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
        expectRejected(config, good, bad,
                       "byte flipped at " + std::to_string(pos));
    }
}

TEST(HostileInput, OversizedSectionLengthIsRejected)
{
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    // First section header sits at offset 32; its u64 length at +4.
    std::string bad = good;
    for (int i = 0; i < 8; ++i)
        bad[36 + i] = static_cast<char>(0xff);
    expectRejected(config, good, bad, "section length 2^64-1");
}

TEST(HostileInput, WrongMagicVersionKindDigestAreRejected)
{
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);

    std::string bad = good;
    bad[0] = 'X';
    expectRejected(config, good, bad, "bad magic");

    bad = good;
    bad[8] = static_cast<char>(ckpt::kVersion + 1); // version skew
    expectRejected(config, good, bad, "newer version");
    bad[8] = static_cast<char>(ckpt::kVersion - 1);
    expectRejected(config, good, bad, "older version");

    bad = good;
    bad[12] = 2; // engine image claiming to be a fleet snapshot
    expectRejected(config, good, bad, "kind mismatch");

    bad = good;
    bad[16] = static_cast<char>(bad[16] ^ 0xff); // digest word
    expectRejected(config, good, bad, "digest mismatch");

    // A differently-configured engine must refuse the snapshot...
    SimConfig other = fastConfig();
    other.load = 0.71;
    DenseServerSim sim(other, makeScheduler("CP"));
    EXPECT_THROW(ckpt::restoreEngine(sim, good), ckpt::CkptError);
    // ...as must the same config under a different policy.
    DenseServerSim wrongPolicy(config, makeScheduler("A-Random"));
    EXPECT_THROW(ckpt::restoreEngine(wrongPolicy, good),
                 ckpt::CkptError);
    // But moving/re-cadencing the checkpoint itself must not: the
    // ckpt.* knobs are excluded from the digest.
    SimConfig recadenced = fastConfig();
    recadenced.ckptPath = tempPath("elsewhere.ckpt");
    recadenced.ckptEveryS = 0.125;
    DenseServerSim moved(recadenced, makeScheduler("CP"));
    ckpt::restoreEngine(moved, good);
    while (moved.epochPending())
        moved.advanceEpoch();
    EXPECT_GT(moved.finishRun().jobsCompleted, 0u);
}

TEST(HostileInput, EmptyAndGarbageFilesAreRejected)
{
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    expectRejected(config, good, "", "empty file");
    expectRejected(config, good, std::string(4096, '\0'),
                   "zero-filled file");
    expectRejected(config, good, "DSIMCKPT", "header-only file");
}

// Wire section ids (DESIGN.md Sec. 16.1): engine sections 1..5 are
// core, rng, metrics, obs and fault; a fleet file holds the fleet
// core plus one section per shard.
constexpr std::uint32_t kCoreSection = 1;
constexpr std::uint32_t kFaultSection = 5;
constexpr std::uint32_t kFleetCoreSection = 10;

/** One section as framed in a checkpoint file. */
struct SectionFrame
{
    std::uint32_t id = 0;
    std::size_t offset = 0; //!< Payload offset within the file.
    std::size_t length = 0;
    std::uint64_t crc = 0;
};

/** The section frames of a well-formed image, in file order. */
std::vector<SectionFrame>
sectionFrames(const std::string &image)
{
    ckpt::Reader r(image);
    (void)r.raw(sizeof ckpt::kMagic);
    (void)r.u32(); // version
    (void)r.u32(); // kind
    (void)r.u64(); // config/policy digest
    std::vector<SectionFrame> frames(r.size());
    for (SectionFrame &f : frames) {
        f.id = r.u32();
        f.length = r.size();
        f.crc = r.u64();
        f.offset = r.offset();
        (void)r.raw(f.length);
    }
    return frames;
}

/** Recompute the stored CRC of section @p f of @p image. */
void
resealSection(std::string &image, const SectionFrame &f)
{
    std::uint64_t crc = ckpt::sectionCrc(
        std::string_view(image).substr(f.offset, f.length));
    for (std::size_t i = 0; i < 8; ++i, crc >>= 8)
        image[f.offset - 8 + i] = static_cast<char>(crc & 0xff);
}

/**
 * Call @p visit with every CRC-valid one-bit mutation of section
 * @p id of @p image: in one 8-byte payload word per @p stride bytes,
 * bit 0 of byte 0, bit 4 of byte 3 and bit 6 of byte 7 flip in turn
 * (an integer's low bits, a double's mantissa, a double's top
 * exponent bit), and the stored CRC is recomputed so the mutation
 * gets past the framing to the field checks.
 */
template <class Visit>
void
forEachMutation(const std::string &image, std::uint32_t id,
                std::size_t stride, Visit visit)
{
    for (const SectionFrame &f : sectionFrames(image)) {
        if (f.id != id)
            continue;
        for (std::size_t word = 0; word < f.length; word += stride) {
            for (const auto &[byte, bit] :
                 {std::pair{0, 0x01}, {3, 0x10}, {7, 0x40}}) {
                const std::size_t at = word + byte;
                if (at >= f.length)
                    continue;
                std::string bad = image;
                bad[f.offset + at] =
                    static_cast<char>(bad[f.offset + at] ^ bit);
                resealSection(bad, f);
                visit(bad, at);
            }
        }
    }
}

/** A derated fan from 0.15 s, a noisy sensor from 0.2 s, migration. */
SimConfig
faultedMigrationConfig()
{
    SimConfig config = fastConfig();
    config.fault.fanFailS = 0.15;
    config.fault.fanSpeedFrac = 0.55;
    config.fault.fanRecoverS = 0.45;
    config.fault.sensorNoisyAtS = 0.2;
    config.migrationEnabled = true;
    config.migrationIntervalS = 0.05;
    config.migrationMinRemainingS = 0.01;
    return config;
}

/** A CP run of @p config saved at 0.3 s, with the fan derated. */
std::string
faultedMigrationImage(const SimConfig &config)
{
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    while (sim.epochPending() && sim.nowS() < 0.3)
        sim.advanceEpoch();
    return ckpt::saveEngine(sim);
}

SimConfig
threeChassisConfig(const char *dispatcher)
{
    SimConfig config = fastConfig();
    config.fleet.chassis = 3;
    config.fleet.dispatcher = dispatcher;
    return config;
}

/** A 3-chassis CP fleet saved after five exchange windows. */
std::string
fleetImage(const SimConfig &config)
{
    FleetSim fleet(config, "CP");
    fleet.beginRun();
    for (int w = 0; w < 5; ++w)
        EXPECT_TRUE(fleet.advanceWindow(2));
    return ckpt::saveFleet(fleet);
}

TEST(CkptFormat, SectionBytesArePinned)
{
    // The length and the FNV-1a 64 of every section payload of three
    // images: an engine image, a faulted engine image with a derated
    // fan and migration on, and a fleet image. Any change to what a
    // section holds, or in which order, fails here; such a change
    // must bump ckpt::kVersion and re-pin. The fingerprint is the
    // test's own, so a new section checksum leaves these pins alone;
    // the stored checksum is only required to be sectionCrc() of its
    // payload. The file header is not pinned: its digest covers the
    // serialized config, which moves with config keys, not with the
    // section format.
    struct Pin
    {
        std::uint32_t id;
        std::size_t length;
        std::uint64_t fnv;
    };
    const auto expectPins = [](const std::string &image,
                               const std::vector<Pin> &pins,
                               const char *what) {
        const std::vector<SectionFrame> frames = sectionFrames(image);
        ASSERT_EQ(frames.size(), pins.size()) << what;
        for (std::size_t i = 0; i < pins.size(); ++i) {
            const std::string_view payload =
                std::string_view(image).substr(frames[i].offset,
                                               frames[i].length);
            EXPECT_EQ(frames[i].id, pins[i].id) << what;
            EXPECT_EQ(frames[i].length, pins[i].length)
                << what << " section " << pins[i].id;
            EXPECT_EQ(fnv1a64(payload), pins[i].fnv)
                << what << " section " << pins[i].id;
            EXPECT_EQ(frames[i].crc, ckpt::sectionCrc(payload))
                << what << " section " << pins[i].id;
        }
    };
    expectPins(goldenImage(fastConfig()),
               {{1, 47147, 0xd90ac4a895fa45d8ULL},
                {2, 123, 0x250e39de3beeb8adULL},
                {3, 344, 0x7792b336c29fd761ULL},
                {4, 366, 0x23fb55b62c4a4e48ULL},
                {5, 1145, 0xa51c429a459b0cc4ULL}},
               "engine");
    expectPins(faultedMigrationImage(faultedMigrationConfig()),
               {{1, 35514, 0xbde962b3c4df9413ULL},
                {2, 123, 0x50d1dc19052e6798ULL},
                {3, 344, 0xe89c60914d2f462bULL},
                {4, 725, 0x171d168dac08b187ULL},
                {5, 1166, 0xf69ab331694126afULL}},
               "faulted");
    expectPins(fleetImage(threeChassisConfig("roundrobin")),
               {{10, 237, 0xe44b57f3a8c8c986ULL},
                {100, 6083, 0xb886c13a15bec14eULL},
                {101, 6059, 0x11a54c7cac8dc198ULL},
                {102, 6059, 0xdfbf8a282016a07bULL}},
               "fleet");
}

/** The first @p n bytes of a fixed pattern with a 256-byte period. */
std::string
checksumPattern(std::size_t n)
{
    std::string out(n, '\0');
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<char>((i * 131 + 7) & 0xff);
    return out;
}

TEST(CkptFormat, SectionChecksumIsPinned)
{
    // Every length class of the word loop: empty, tail only, one
    // word with and without a tail, one short of and one past a full
    // round of four lanes, and a page. Any change to the checksum
    // fails here and must bump ckpt::kVersion.
    const std::pair<std::size_t, std::uint64_t> pins[] = {
        {0, 0x22a61ba7f80f5303ULL},  {1, 0xcb95c404ccbc6533ULL},
        {7, 0x0208604f42864835ULL},  {8, 0xa986a79b81bde1a4ULL},
        {9, 0xb339b467e9a8821aULL},  {31, 0x75f737716f13e9deULL},
        {32, 0x1c8f125bb88b6489ULL}, {33, 0xcd96a005c00cf567ULL},
        {4096, 0x20217d9dad27596dULL}};
    for (const auto &[n, crc] : pins)
        EXPECT_EQ(ckpt::sectionCrc(checksumPattern(n)), crc) << n << " bytes";
}

/** Flip bit @p bit of @p bytes, bit 0 being the low bit of byte 0. */
void
flipBit(std::string &bytes, std::size_t bit)
{
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
}

/** Every single-bit flip of @p bytes must move its checksum. */
void
expectEveryBitFlipSeen(std::string bytes, const std::string &what)
{
    const std::uint64_t base = ckpt::sectionCrc(bytes);
    int missed = 0;
    for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
        flipBit(bytes, bit);
        missed += ckpt::sectionCrc(bytes) == base ? 1 : 0;
        flipBit(bytes, bit);
    }
    EXPECT_EQ(missed, 0) << what;
}

TEST(CkptFormat, SectionChecksumSeesEveryWordChange)
{
    // Each lane step is a bijection in the word it reads, so a change
    // confined to one aligned word always moves the checksum: every
    // bit flip of a page and of the engine image's four small
    // sections, and random replacements of core-section words.
    expectEveryBitFlipSeen(checksumPattern(4096), "4 KB pattern");
    const std::string image = goldenImage(fastConfig());
    for (const SectionFrame &f : sectionFrames(image)) {
        std::string payload = image.substr(f.offset, f.length);
        if (f.id != kCoreSection) {
            expectEveryBitFlipSeen(payload, "section " + std::to_string(f.id));
            continue;
        }
        const std::uint64_t base = ckpt::sectionCrc(payload);
        Rng rng(0xc0deu);
        int missed = 0;
        for (int i = 0; i < 10000; ++i) {
            const std::size_t at = 8 * (rng.nextU64() % (payload.size() / 8));
            const std::string old = payload.substr(at, 8);
            ckpt::Writer w;
            w.u64(rng.nextU64());
            payload.replace(at, 8, w.take());
            if (payload.compare(at, 8, old) != 0)
                missed += ckpt::sectionCrc(payload) == base ? 1 : 0;
            payload.replace(at, 8, old);
        }
        EXPECT_EQ(missed, 0) << "word replacements in the core section";
    }
}

TEST(CkptFormat, SectionChecksumSeesEveryTwoBitFlip)
{
    // Beyond one word: every pair of bit flips in two rounds of the
    // four lanes, and every pair of top-bit flips in one lane of a
    // page. Under a plain `(lane ^ word) * K` step a word's top bit
    // enters its lane linearly and two such flips cancel.
    // Every pair of bits a < b, a stepping by `stride` from `first`
    // and b by `gap` from a.
    const auto expectPairsSeen = [](std::string bytes, std::size_t first,
                                    std::size_t stride, std::size_t gap,
                                    const char *what) {
        const std::uint64_t base = ckpt::sectionCrc(bytes);
        const std::size_t bits = 8 * bytes.size();
        int missed = 0;
        for (std::size_t a = first; a < bits; a += stride) {
            flipBit(bytes, a);
            for (std::size_t b = a + gap; b < bits; b += gap) {
                flipBit(bytes, b);
                missed += ckpt::sectionCrc(bytes) == base ? 1 : 0;
                flipBit(bytes, b);
            }
            flipBit(bytes, a);
        }
        EXPECT_EQ(missed, 0) << what;
    };
    expectPairsSeen(checksumPattern(64), 0, 1, 1, "two-bit flips of 64 bytes");
    expectPairsSeen(checksumPattern(4096), 63, 64, 4 * 64,
                    "top-bit pairs within one lane");
}

TEST(HostileInput, CrcValidMutationsAreRejectedOrRoundTrip)
{
    // A CRC-valid mutation reaches the field checks. The loader must
    // either reject it, leaving the engine closed and reusable, or
    // accept it as a state that re-saves to exactly the mutated
    // bytes: nothing it accepts may be dropped or normalized. The
    // per-section split is pinned, so a lost check fails here too.
    struct Split
    {
        std::uint32_t id;
        std::size_t stride;
        int mutations;
        int rejected;
    };
    const Split splits[] = {{1, 56, 2526, 639}, {2, 8, 46, 0},
                            {3, 8, 129, 6},     {4, 8, 137, 104},
                            {5, 8, 430, 58}};
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    DenseServerSim sim(config, makeScheduler("CP"));
    for (const Split &split : splits) {
        int mutations = 0;
        int rejected = 0;
        forEachMutation(
            good, split.id, split.stride,
            [&](const std::string &bad, std::size_t at) {
                ++mutations;
                try {
                    ckpt::restoreEngine(sim, bad);
                } catch (const ckpt::CkptError &) {
                    ++rejected;
                    ckpt::restoreEngine(sim, good);
                    (void)sim.finishRun();
                    return;
                }
                EXPECT_TRUE(ckpt::saveEngine(sim) == bad)
                    << "section " << split.id << " byte " << at
                    << " restored to a different state";
                (void)sim.finishRun();
            });
        EXPECT_EQ(mutations, split.mutations) << "section " << split.id;
        EXPECT_EQ(rejected, split.rejected) << "section " << split.id;
    }
}

/**
 * File offset of the ambient-target field in the core section of
 * @p image: the one block of n doubles that the next block, the
 * target powers, reproduces as its coupling field under the map of
 * @p restored, an engine @p image was restored into.
 */
std::size_t
ambientTargetsOffset(const std::string &image,
                     const DenseServerSim &restored)
{
    const CouplingMap &map = restored.coupling();
    const std::size_t n = map.size();
    const std::size_t block = 8 + 8 * n;
    for (const SectionFrame &f : sectionFrames(image)) {
        if (f.id != kCoreSection)
            continue;
        for (std::size_t at = f.offset;
             at + 2 * block <= f.offset + f.length; ++at) {
            ckpt::Reader r(std::string_view(image).substr(at, 2 * block));
            if (r.u64() != n)
                continue;
            std::vector<double> targets(n);
            std::vector<double> powers(n);
            for (double &t : targets)
                t = r.f64();
            if (r.u64() != n)
                continue;
            for (double &p : powers)
                p = r.f64();
            const std::vector<double> field =
                map.ambientTemps(powers, restored.config().topo.inlet());
            bool match = true;
            for (std::size_t s = 0; s < n && match; ++s)
                match = std::fabs(field[s] - targets[s]) <= 1e-9;
            if (match)
                return at + 8;
        }
    }
    ADD_FAILURE() << "no ambient-target block in the core section";
    return 0;
}

TEST(HostileInput, AmbientTargetsOffTheirPowersFieldAreRejected)
{
    // A CRC-valid image whose ambient-target field no longer is the
    // coupling field of its target powers: one socket's target raised
    // by 1 C, under the pristine map and under a derated fan's.
    const SimConfig configs[] = {fastConfig(), faultedMigrationConfig()};
    for (const SimConfig &config : configs) {
        const bool derated = config.fault.fanFailS > 0.0;
        const std::string good = derated ? faultedMigrationImage(config)
                                         : goldenImage(config);
        DenseServerSim sim(config, makeScheduler("CP"));
        ckpt::restoreEngine(sim, good);
        const std::size_t at = ambientTargetsOffset(good, sim) +
                               8 * (sim.coupling().size() / 2);
        (void)sim.finishRun();
        ckpt::Reader r(std::string_view(good).substr(at, 8));
        ckpt::Writer w;
        w.f64(r.f64() + 1.0);
        std::string bad = good;
        bad.replace(at, 8, w.take());
        for (const SectionFrame &f : sectionFrames(bad))
            if (f.id == kCoreSection)
                resealSection(bad, f);
        expectRejected(config, good, bad,
                       derated ? "derated target field" : "target field");
    }
}

TEST(HostileInput, DirtySocketListedTwiceIsRejected)
{
    // The dirty flags are not stored: the loader sets one per listed
    // socket. A CRC-valid image whose dirty list names a socket twice
    // describes no state the engine can reach, so it is refused. The
    // list follows the target powers, which follow the ambient
    // targets: two blocks of n doubles, the second with its length.
    // Its first socket is appended once more, the count and section
    // length raised to match.
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::restoreEngine(sim, good);
    const std::size_t n = sim.coupling().size();
    const std::size_t list = ambientTargetsOffset(good, sim) + 16 * n + 8;
    (void)sim.finishRun();
    ckpt::Reader r(std::string_view(good).substr(list, 8));
    const std::uint64_t count = r.u64();
    ASSERT_GE(count, 1u) << "the image needs a dirty socket";
    std::string bad = good;
    bad.insert(list + 8 + 8 * count, good.substr(list + 8, 8));
    ckpt::Writer w;
    w.u64(count + 1);
    bad.replace(list, 8, w.take());
    for (SectionFrame f : sectionFrames(good)) {
        if (f.id != kCoreSection)
            continue;
        f.length += 8;
        w.u64(f.length);
        bad.replace(f.offset - 16, 8, w.take());
        resealSection(bad, f);
    }
    expectRejected(config, good, bad, "dirty socket listed twice");
}

TEST(HostileInput, CrcValidTraceMutationsAreRejectedOrRoundTrip)
{
    // The same property over the fault section of a traced run with
    // a derated fan, whose log of variable-length events is what the
    // trace is rendered from; each mutation is restored into a fresh
    // engine. An event's kind travels in one byte and must name a
    // fault kind.
    SimConfig config = faultedMigrationConfig();
    config.obsTracePath = tempPath("mutated_trace.json");
    const std::string good = faultedMigrationImage(config);
    int rejected = 0;
    forEachMutation(
        good, kFaultSection, 8,
        [&](const std::string &bad, std::size_t at) {
            DenseServerSim sim(config, makeScheduler("CP"));
            try {
                ckpt::restoreEngine(sim, bad);
            } catch (const ckpt::CkptError &) {
                ++rejected;
                ckpt::restoreEngine(sim, good);
                return;
            }
            EXPECT_TRUE(ckpt::saveEngine(sim) == bad)
                << "fault byte " << at
                << " restored to a different state";
        });
    EXPECT_GT(rejected, 0);
    std::remove(config.obsTracePath.c_str());
}

TEST(HostileInput, CrcValidFleetCoreMutationsAreRejectedOrRoundTrip)
{
    // The same property over the fleet core section, under every
    // dispatcher, each mutation restored into a fresh fleet. Headroom
    // and power keep no cursor, so the three mutations of the cursor
    // word (bytes 17-24) are rejected there instead of re-saved as 0.
    const std::pair<const char *, int> splits[] = {
        {"roundrobin", 31}, {"headroom", 34}, {"locality", 31},
        {"power", 34}};
    for (const auto &[dispatcher, wantRejected] : splits) {
        const SimConfig config = threeChassisConfig(dispatcher);
        const std::string good = fleetImage(config);
        int mutations = 0;
        int rejected = 0;
        forEachMutation(
            good, kFleetCoreSection, 8,
            [&](const std::string &bad, std::size_t at) {
                ++mutations;
                FleetSim fleet(config, "CP");
                try {
                    ckpt::restoreFleet(fleet, bad);
                } catch (const ckpt::CkptError &) {
                    ++rejected;
                    ckpt::restoreFleet(fleet, good);
                    (void)fleet.finishRun();
                    return;
                }
                EXPECT_TRUE(ckpt::saveFleet(fleet) == bad)
                    << dispatcher << ": fleet core byte " << at
                    << " restored to a different state";
                (void)fleet.finishRun();
            });
        EXPECT_EQ(mutations, 89) << dispatcher;
        EXPECT_EQ(rejected, wantRejected) << dispatcher;
    }
}

// ------------------------------------------------ API misuse

TEST(Misuse, RestoreIntoOpenRunIsFatal)
{
    const SimConfig config = fastConfig();
    const std::string image = goldenImage(config);
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    const ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::restoreEngine(sim, image), FatalError);
}

TEST(Misuse, DoubleRestoreIsFatal)
{
    const SimConfig config = fastConfig();
    const std::string image = goldenImage(config);
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::restoreEngine(sim, image);
    const ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::restoreEngine(sim, image), FatalError);
}

TEST(Misuse, SaveOfClosedRunIsFatal)
{
    const SimConfig config = fastConfig();
    DenseServerSim sim(config, makeScheduler("CP"));
    const ScopedFatalThrows guard;
    EXPECT_THROW((void)ckpt::saveEngine(sim), FatalError);
}

TEST(Misuse, AdvanceAfterFailedRestoreIsFatal)
{
    // A failed restore leaves the engine *closed*: stepping it
    // without beginRun() is the same misuse as never opening it.
    const SimConfig config = fastConfig();
    const std::string image = goldenImage(config);
    DenseServerSim sim(config, makeScheduler("CP"));
    EXPECT_THROW(ckpt::restoreEngine(sim, image.substr(0, 40)),
                 ckpt::CkptError);
    const ScopedFatalThrows guard;
    EXPECT_THROW(sim.advanceEpoch(), FatalError);
    EXPECT_THROW((void)sim.finishRun(), FatalError);
}

TEST(Misuse, FleetGuardsMatchEngineGuards)
{
    SimConfig config = fastConfig();
    config.fleet.chassis = 2;
    std::string image;
    {
        FleetSim fleet(config, "CP");
        fleet.beginRun();
        ASSERT_TRUE(fleet.advanceWindow(1));
        image = ckpt::saveFleet(fleet);
    }
    FleetSim fleet(config, "CP");
    ckpt::restoreFleet(fleet, image);
    const ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::restoreFleet(fleet, image), FatalError);

    FleetSim closed(config, "CP");
    EXPECT_THROW((void)ckpt::saveFleet(closed), FatalError);
}

// ------------------------------------------------ drivers & files

TEST(Driver, CadenceCheckpointIsReadOnlyAndResumable)
{
    // A run with cadence checkpointing enabled must be bit-identical
    // to the same run without, and the last cadence file must itself
    // resume to the same result.
    SimConfig plain = fastConfig();
    const std::string expected =
        serializeSimMetrics(runStraight(plain, "CP"));

    SimConfig config = plain;
    config.ckptPath = tempPath("cadence.ckpt");
    config.ckptEveryS = 0.25;
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    ckpt::clearStopRequest();
    const ckpt::DriveOutcome out = ckpt::driveEngine(sim);
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(expected, serializeSimMetrics(sim.finishRun()));

    // The cadence left a loadable snapshot behind.
    DenseServerSim resumed(config, makeScheduler("CP"));
    ckpt::restoreEngine(resumed,
                        ckpt::readCheckpointFile(config.ckptPath));
    while (resumed.epochPending())
        resumed.advanceEpoch();
    EXPECT_EQ(expected, serializeSimMetrics(resumed.finishRun()));
    std::remove(config.ckptPath.c_str());
}

TEST(Driver, StopRequestCheckpointsAndReturns)
{
    SimConfig config = fastConfig();
    config.ckptPath = tempPath("stop.ckpt");
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    ckpt::requestStop();
    const ckpt::DriveOutcome out = ckpt::driveEngine(sim);
    ckpt::clearStopRequest();
    EXPECT_FALSE(out.completed);
    EXPECT_TRUE(out.checkpointed);

    // The stop-path snapshot resumes to the uninterrupted result.
    DenseServerSim resumed(config, makeScheduler("CP"));
    ckpt::restoreEngine(resumed,
                        ckpt::readCheckpointFile(config.ckptPath));
    const ckpt::DriveOutcome rest = ckpt::driveEngine(resumed);
    ASSERT_TRUE(rest.completed);
    EXPECT_EQ(serializeSimMetrics(runStraight(fastConfig(), "CP")),
              serializeSimMetrics(resumed.finishRun()));
    std::remove(config.ckptPath.c_str());
}

TEST(Driver, StopDuringSetUpCheckpointsTheEngineAtItsStart)
{
    // A stop that lands while the engine is built and its arrivals
    // drawn is seen by the first poll: the drive stops at t = 0 with
    // a checkpoint, and that checkpoint resumes to the straight run.
    SimConfig config = fastConfig();
    config.ckptPath = tempPath("setup_stop.ckpt");
    ckpt::requestStop();
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    const ckpt::DriveOutcome out = ckpt::driveEngine(sim);
    ckpt::clearStopRequest();
    EXPECT_FALSE(out.completed);
    EXPECT_TRUE(out.checkpointed);
    EXPECT_EQ(out.nowS, 0.0);

    DenseServerSim resumed(config, makeScheduler("CP"));
    ckpt::restoreEngine(resumed,
                        ckpt::readCheckpointFile(config.ckptPath));
    ASSERT_TRUE(ckpt::driveEngine(resumed).completed);
    EXPECT_EQ(serializeSimMetrics(runStraight(fastConfig(), "CP")),
              serializeSimMetrics(resumed.finishRun()));
    std::remove(config.ckptPath.c_str());
}

TEST(Driver, StopDuringSetUpCheckpointsTheFleetAtItsStart)
{
    SimConfig config = threeChassisConfig("roundrobin");
    FleetSim straight(config, "CP");
    const std::string expected = serializeFleetMetrics(straight.run(2));

    config.ckptPath = tempPath("setup_stop_fleet.ckpt");
    ckpt::requestStop();
    FleetSim fleet(config, "CP");
    fleet.beginRun();
    const ckpt::DriveOutcome out = ckpt::driveFleet(fleet, 2);
    ckpt::clearStopRequest();
    EXPECT_FALSE(out.completed);
    EXPECT_TRUE(out.checkpointed);
    EXPECT_EQ(out.nowS, 0.0);

    FleetSim resumed(config, "CP");
    ckpt::restoreFleet(resumed, ckpt::readCheckpointFile(config.ckptPath));
    ASSERT_TRUE(ckpt::driveFleet(resumed, 2).completed);
    EXPECT_EQ(expected, serializeFleetMetrics(resumed.finishRun()));
    std::remove(config.ckptPath.c_str());
}

TEST(Driver, CheckpointFileRoundTripsAtomically)
{
    const SimConfig config = fastConfig();
    const std::string image = goldenImage(config);
    const std::string path = tempPath("roundtrip.ckpt");
    ckpt::writeCheckpointFile(path, image);
    EXPECT_EQ(image, ckpt::readCheckpointFile(path));
    // Overwrite is atomic-replace, not append.
    ckpt::writeCheckpointFile(path, image);
    EXPECT_EQ(image, ckpt::readCheckpointFile(path));
    std::remove(path.c_str());
    EXPECT_THROW((void)ckpt::readCheckpointFile(path),
                 ckpt::CkptError);
}

TEST(Driver, SweepCellResumesFromItsCheckpoint)
{
    RunSpec spec;
    spec.scheduler = "CP";
    spec.config = fastConfig();
    const std::string dir =
        testing::TempDir() + "densim_ckpt_cells";
    (void)::mkdir(dir.c_str(), 0755); // ok if it already exists
    const std::string cell_path =
        dir + "/" + runDigest(spec) + ".ckpt";

    // An interrupted invocation: stop pending before the first
    // epoch, so the cell checkpoints immediately and reports itself
    // unfinished (the keep-going harness then keeps its digest out
    // of the resume manifest).
    ckpt::requestStop();
    EXPECT_THROW((void)ckpt::runCellCheckpointed(spec, dir),
                 ckpt::CkptError);
    ckpt::clearStopRequest();
    EXPECT_TRUE(std::ifstream(cell_path, std::ios::binary).good());

    // The re-invocation resumes from the file, matches the straight
    // run bit for bit, and cleans up after itself.
    const SimMetrics resumed = ckpt::runCellCheckpointed(spec, dir);
    EXPECT_EQ(serializeSimMetrics(runStraight(spec.config, "CP")),
              serializeSimMetrics(resumed));
    EXPECT_FALSE(std::ifstream(cell_path, std::ios::binary).good());

    // Wired through SweepOptions::cellRunner, the whole keep-going
    // sweep takes the checkpointed path.
    SweepOptions options;
    options.threads = 1;
    options.keepGoing = true;
    options.cellRunner = [&](const RunSpec &s) {
        return ckpt::runCellCheckpointed(s, dir);
    };
    const std::vector<RunOutcome> outcomes =
        runAllOutcomes({spec}, options);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(serializeSimMetrics(resumed),
              serializeSimMetrics(outcomes[0].metrics));
    (void)::rmdir(dir.c_str());
}

} // namespace
} // namespace densim
