#include "ckpt/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/config_io.hh"
#include "core/dense_server_sim.hh"
#include "fleet/fleet_sim.hh"
#include "util/fs.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/benchmark.hh"
#include "workload/job_generator.hh"

namespace densim {
namespace {

using ckpt::CkptError;
using ckpt::Reader;
using ckpt::RestoreMode;
using ckpt::SnapshotKind;
using ckpt::Writer;

// Engine section ids; a fleet file holds kSecFleet plus one
// kSecShardBase + s section per shard.
constexpr std::uint32_t kSecCore = 1;
constexpr std::uint32_t kSecRng = 2;
constexpr std::uint32_t kSecMetrics = 3;
constexpr std::uint32_t kSecObs = 4;
constexpr std::uint32_t kSecFault = 5;
constexpr std::uint32_t kSecSched = 6;
constexpr std::uint32_t kSecFleet = 10;
constexpr std::uint32_t kSecShardBase = 100;

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

[[noreturn]] void
badField(const char *what, const std::string &detail)
{
    throw CkptError(std::string("checkpoint: bad ") + what + ": " +
                    detail);
}

// --- primitive field helpers -----------------------------------------

void
writeSnapshot(Writer &w, const Rng::Snapshot &snap)
{
    for (const std::uint64_t word : snap.state)
        w.u64(word);
    w.boolean(snap.hasSpare);
    w.f64(snap.spare);
}

Rng::Snapshot
readSnapshot(Reader &r, const char *what)
{
    Rng::Snapshot snap{};
    std::uint64_t any = 0;
    for (std::uint64_t &word : snap.state) {
        word = r.u64();
        any |= word;
    }
    snap.hasSpare = r.boolean();
    snap.spare = r.f64();
    // The all-zero state is xoshiro's single degenerate orbit — no
    // legitimate save can contain it (satellite audit: RNG positions
    // must be consistent).
    if (any == 0)
        badField(what, "all-zero generator state");
    return snap;
}

void
writeStats(Writer &w, const RunningStats &stats)
{
    const RunningStats::Snapshot snap = stats.snapshot();
    w.size(snap.count);
    w.f64(snap.mean);
    w.f64(snap.m2);
    w.f64(snap.min);
    w.f64(snap.max);
}

void
readStats(Reader &r, RunningStats &stats)
{
    RunningStats::Snapshot snap{};
    snap.count = r.size();
    snap.mean = r.f64();
    snap.m2 = r.f64();
    snap.min = r.f64();
    snap.max = r.f64();
    stats.restore(snap);
}

void
writeJob(Writer &w, const Job &job)
{
    w.u64(job.id);
    w.size(job.benchmark);
    w.u8(static_cast<std::uint8_t>(job.set));
    w.f64(job.arrivalS);
    w.f64(job.nominalS);
}

Job
readJob(Reader &r, const char *what)
{
    Job job{};
    job.id = r.u64();
    job.benchmark = r.size();
    if (job.benchmark >= pcmarkCatalog().size())
        badField(what, "benchmark index " +
                           std::to_string(job.benchmark) +
                           " outside the catalog");
    const std::uint8_t set = r.u8();
    if (set > static_cast<std::uint8_t>(WorkloadSet::GeneralPurpose))
        badField(what, "workload set " + std::to_string(int(set)));
    job.set = static_cast<WorkloadSet>(set);
    job.arrivalS = r.f64();
    job.nominalS = r.f64();
    return job;
}

void
writeDecision(Writer &w, const DvfsDecision &d)
{
    w.size(d.pstate);
    w.f64(d.freqMhz);
    w.f64(d.power.value());
    w.f64(d.predictedPeak.value());
    w.boolean(d.feasible);
}

DvfsDecision
readDecision(Reader &r, std::size_t npstates, const char *what)
{
    const std::size_t pstate = r.size();
    if (pstate >= npstates)
        badField(what, "P-state index " + std::to_string(pstate) +
                           " of " + std::to_string(npstates));
    const double freq = r.f64();
    const Watts power{r.f64()};
    const Celsius peak{r.f64()};
    const bool feasible = r.boolean();
    return DvfsDecision{pstate, freq, power, peak, feasible};
}

void
writeCharVec(Writer &w, const std::vector<char> &v)
{
    w.size(v.size());
    for (const char c : v)
        w.u8(static_cast<std::uint8_t>(c));
}

// --- length/range-validated array readers ----------------------------

std::vector<double>
readF64Array(Reader &r, std::size_t n, const char *what)
{
    std::vector<double> v = r.vecF64();
    if (v.size() != n)
        badField(what, "length " + std::to_string(v.size()) +
                           " != expected " + std::to_string(n));
    return v;
}

std::vector<std::uint8_t>
readU8Array(Reader &r, std::size_t n, std::uint8_t max_value,
            const char *what)
{
    std::vector<std::uint8_t> v = r.vecU8();
    if (v.size() != n)
        badField(what, "length " + std::to_string(v.size()) +
                           " != expected " + std::to_string(n));
    for (const std::uint8_t b : v)
        if (b > max_value)
            badField(what, "value " + std::to_string(int(b)) +
                               " > " + std::to_string(int(max_value)));
    return v;
}

std::vector<char>
readCharVec(Reader &r, std::size_t n, const char *what)
{
    const std::vector<std::uint8_t> raw = readU8Array(r, n, 1, what);
    return std::vector<char>(raw.begin(), raw.end());
}

std::vector<std::size_t>
readSizeArray(Reader &r, std::size_t n, std::size_t bound,
              const char *what)
{
    std::vector<std::size_t> v = r.vecSize();
    if (v.size() != n)
        badField(what, "length " + std::to_string(v.size()) +
                           " != expected " + std::to_string(n));
    for (const std::size_t x : v)
        if (x >= bound)
            badField(what, "index " + std::to_string(x) +
                               " >= bound " + std::to_string(bound));
    return v;
}

int
readCount(Reader &r, std::size_t bound, const char *what)
{
    const std::uint64_t v = r.u64();
    if (v > bound)
        badField(what, "count " + std::to_string(v) + " > " +
                           std::to_string(bound));
    return static_cast<int>(v);
}

double
readFinite(Reader &r, const char *what)
{
    const double v = r.f64();
    if (!std::isfinite(v))
        badField(what, "non-finite value");
    return v;
}

// --- file framing -----------------------------------------------------

std::string
buildFile(SnapshotKind kind, std::uint64_t digest,
          const std::vector<std::pair<std::uint32_t, std::string>>
              &sections)
{
    Writer w;
    w.bytes(ckpt::kMagic, sizeof ckpt::kMagic);
    w.u32(ckpt::kVersion);
    w.u32(static_cast<std::uint32_t>(kind));
    w.u64(digest);
    w.u64(sections.size());
    for (const auto &[id, payload] : sections) {
        w.u32(id);
        w.u64(payload.size());
        w.u64(ckpt::sectionCrc(payload));
        w.bytes(payload.data(), payload.size());
    }
    return w.take();
}

/**
 * Validate the header and every section CRC, returning the section
 * map. Runs to completion before any engine state is touched — the
 * no-partial-mutation half of the hostile-input contract.
 */
std::map<std::uint32_t, std::string>
parseFile(std::string_view image, SnapshotKind expect_kind,
          std::uint64_t expect_digest)
{
    Reader r(image);
    if (r.remaining() < sizeof ckpt::kMagic ||
        std::memcmp(r.raw(sizeof ckpt::kMagic).data(), ckpt::kMagic,
                    sizeof ckpt::kMagic) != 0)
        throw CkptError(
            "checkpoint: not a densim checkpoint (bad magic)");
    const std::uint32_t version = r.u32();
    if (version != ckpt::kVersion)
        throw CkptError(
            "checkpoint: format version " + std::to_string(version) +
            ", this build reads version " +
            std::to_string(ckpt::kVersion) +
            " — re-create the checkpoint with this binary");
    const std::uint32_t kind = r.u32();
    if (kind != static_cast<std::uint32_t>(SnapshotKind::Engine) &&
        kind != static_cast<std::uint32_t>(SnapshotKind::Fleet))
        throw CkptError("checkpoint: unknown snapshot kind " +
                        std::to_string(kind));
    if (kind != static_cast<std::uint32_t>(expect_kind))
        throw CkptError(
            kind == static_cast<std::uint32_t>(SnapshotKind::Fleet)
                ? "checkpoint: file holds a fleet snapshot but an "
                  "engine restore was requested (fleet.chassis unset?)"
                : "checkpoint: file holds an engine snapshot but a "
                  "fleet restore was requested (fleet.chassis set?)");
    const std::uint64_t digest = r.u64();
    if (digest != expect_digest)
        throw CkptError(
            "checkpoint: config/policy digest mismatch (file " +
            hex16(digest) + ", this run " + hex16(expect_digest) +
            ") — the snapshot was written under a different "
            "configuration or scheduler");
    const std::uint64_t count = r.u64();
    // Every section costs at least its 20-byte header.
    if (count > r.remaining() / 20)
        throw CkptError("checkpoint: section count " +
                        std::to_string(count) + " overruns the file");
    std::map<std::uint32_t, std::string> sections;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t id = r.u32();
        const std::uint64_t len = r.u64();
        const std::uint64_t crc = r.u64();
        if (len > r.remaining())
            throw CkptError("checkpoint: section " +
                            std::to_string(id) + " length " +
                            std::to_string(len) +
                            " overruns the file (" +
                            std::to_string(r.remaining()) +
                            " bytes left)");
        const std::string_view payload =
            r.raw(static_cast<std::size_t>(len));
        if (ckpt::sectionCrc(payload) != crc)
            throw CkptError("checkpoint: CRC mismatch in section " +
                            std::to_string(id) +
                            " — the file is corrupted");
        if (!sections.emplace(id, std::string(payload)).second)
            throw CkptError("checkpoint: duplicate section " +
                            std::to_string(id));
    }
    r.expectEnd("checkpoint file");
    return sections;
}

const std::string &
section(const std::map<std::uint32_t, std::string> &sections,
        std::uint32_t id)
{
    const auto it = sections.find(id);
    if (it == sections.end())
        throw CkptError("checkpoint: missing section " +
                        std::to_string(id));
    return it->second;
}

} // namespace

/**
 * The one class befriended by every checkpointed component. All
 * serialization logic lives here, so the engine's streaming interface
 * stays its only behavioral surface.
 */
class CkptAccess
{
  public:
    struct EngineImage
    {
        std::string core, rng, metrics, obs, fault, sched;
    };

    static bool engineOpen(const DenseServerSim &sim)
    {
        return sim.streamOpen_;
    }

    static bool fleetOpen(const FleetSim &fleet)
    {
        return fleet.fleetOpen_;
    }

    static const char *policyName(const DenseServerSim &sim)
    {
        return sim.policy_->name();
    }

    static const char *fleetPolicyName(const FleetSim &fleet)
    {
        return fleet.shards_.front()->policy_->name();
    }

    static const SimConfig &fleetConfig(const FleetSim &fleet)
    {
        return fleet.base_;
    }

    static void flush(DenseServerSim &sim) { sim.writeObsOutputs(); }

    static void flushFleet(FleetSim &fleet)
    {
        for (const auto &shard : fleet.shards_)
            shard->writeObsOutputs();
    }

    static EngineImage captureEngine(const DenseServerSim &sim);
    static void applyEngine(DenseServerSim &sim,
                            const EngineImage &image, RestoreMode mode,
                            std::uint64_t fork_id);

    static std::string saveFleetImage(const FleetSim &fleet);
    static void restoreFleetImage(FleetSim &fleet,
                                  std::string_view image,
                                  RestoreMode mode,
                                  std::uint64_t fork_id);

  private:
    // One writer/reader pair per engine section. Readers validate
    // every length and index before touching the field they fill;
    // cross-section consistency is audited in finalizeRestore.
    static void writeCore(Writer &w, const DenseServerSim &sim);
    static void applyCore(DenseServerSim &sim, Reader r);
    static void writeRng(Writer &w, const DenseServerSim &sim);
    static void applyRng(DenseServerSim &sim, Reader r,
                         RestoreMode mode, std::uint64_t fork_id);
    static void writeMetrics(Writer &w, const DenseServerSim &sim);
    static void applyMetrics(DenseServerSim &sim, Reader r);
    static void writeObs(Writer &w, const DenseServerSim &sim);
    static void applyObs(DenseServerSim &sim, Reader r);
    static void writeFault(Writer &w, const DenseServerSim &sim);
    static void applyFault(DenseServerSim &sim, Reader r);
    static void writeSched(Writer &w, const DenseServerSim &sim);
    static void applySched(DenseServerSim &sim, Reader r);
    static void finalizeRestore(DenseServerSim &sim);

    static void applyRegistry(obs::Registry &registry, Reader &r);
    static void writeRegistry(Writer &w, const obs::Registry &registry);
};

namespace obs {

/** Friend hook into TraceSink's private event buffer. */
class TraceCkptAccess
{
  public:
    static void
    save(ckpt::Writer &w, const TraceSink &trace)
    {
        w.size(trace.dropped_);
        w.size(trace.events_.size());
        for (const TraceSink::Event &e : trace.events_) {
            w.u8(static_cast<std::uint8_t>(e.kind));
            w.u64(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(e.tid)));
            w.f64(e.tsUs);
            w.f64(e.durUs);
            w.f64(e.value);
            w.str(e.name);
            w.str(e.cat);
        }
    }

    static void
    apply(ckpt::Reader &r, TraceSink &trace)
    {
        trace.dropped_ = r.size();
        const std::size_t count = r.size();
        // Minimum wire size of one event: kind + tid + 3 doubles +
        // two empty strings = 49 bytes.
        if (count > r.remaining() / 49)
            throw ckpt::CkptError(
                "checkpoint: oversized trace event count " +
                std::to_string(count));
        trace.events_.clear();
        trace.events_.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint8_t kind = r.u8();
            if (kind > static_cast<std::uint8_t>(
                           TraceSink::Kind::CounterSample))
                throw ckpt::CkptError(
                    "checkpoint: bad trace event kind " +
                    std::to_string(int(kind)));
            TraceSink::Event e;
            e.kind = static_cast<TraceSink::Kind>(kind);
            e.tid = static_cast<int>(
                static_cast<std::int64_t>(r.u64()));
            e.tsUs = r.f64();
            e.durUs = r.f64();
            e.value = r.f64();
            e.name = r.str();
            e.cat = r.str();
            trace.events_.push_back(std::move(e));
        }
    }
};

} // namespace obs

// --- CORE: stream position, backlog, queue, SoA socket banks ----------

void
CkptAccess::writeCore(Writer &w, const DenseServerSim &sim)
{
    const std::size_t n = sim.topo_.numSockets();
    w.size(n);
    w.f64(sim.streamNowS_);
    w.f64(sim.streamHardStopS_);
    w.boolean(sim.arrivalsClosed_);

    // Only the unconsumed backlog tail: the consumed prefix can never
    // be read again, and submitJobs' periodic compaction proves the
    // representation is behavior-free.
    w.size(sim.streamJobs_.size() - sim.streamNext_);
    for (std::size_t i = sim.streamNext_; i < sim.streamJobs_.size();
         ++i)
        writeJob(w, sim.streamJobs_[i]);
    w.size(sim.queue_.size());
    for (const Job &job : sim.queue_)
        writeJob(w, job);

    w.vecF64(sim.powerW_);
    w.vecF64(sim.freqMhz_);
    w.vecF64(sim.chipTempC_);
    w.vecF64(sim.sensedTempC_);
    w.vecF64(sim.histTempC_);
    w.size(sim.runningSet_.size());
    for (const WorkloadSet set : sim.runningSet_)
        w.u8(static_cast<std::uint8_t>(set));
    w.vecU8(sim.busyFlag_);
    w.vecF64(sim.ambientC_);
    w.vecF64(sim.chipRiseC_);
    w.vecF64(sim.boostCreditS_);

    w.vecSize(sim.jobBenchmark_);
    w.vecF64(sim.jobArrivalS_);
    w.vecF64(sim.jobStartS_);
    w.vecF64(sim.jobNominalS_);
    w.vecF64(sim.jobRemainingS_);
    w.vecF64(sim.lastSyncS_);
    w.vecF64(sim.completionS_);
    w.vecSize(sim.pstate_);
    w.vecU8(sim.boostFlag_);

    w.vecSize(sim.idleList_);
    w.vecF64(sim.ambTargets_);
    w.vecF64(sim.targetPowerW_);
    writeCharVec(w, sim.powerDirty_);
    w.vecSize(sim.dirtySockets_);
    w.size(sim.epochsSinceAmbientRefresh_);

    w.vecF64(sim.rateCache_);
    w.vecF64(sim.relFreqCache_);
    writeCharVec(w, sim.inBusySums_);
    w.vecF64(sim.contribRate_);
    w.vecF64(sim.contribRel_);
    writeCharVec(w, sim.contribBoost_);

    w.f64(sim.tCursor_);
    w.f64(sim.totalPowerW_);
    w.f64(sim.workRateTotal_);
    w.f64(sim.workRateFront_);
    w.f64(sim.workRateBack_);
    w.f64(sim.workRateEven_);
    w.f64(sim.relFreqSumTotal_);
    w.f64(sim.relFreqSumFront_);
    w.f64(sim.relFreqSumBack_);
    w.f64(sim.relFreqSumEven_);
    w.u64(static_cast<std::uint64_t>(sim.busyTotal_));
    w.u64(static_cast<std::uint64_t>(sim.busyFront_));
    w.u64(static_cast<std::uint64_t>(sim.busyBack_));
    w.u64(static_cast<std::uint64_t>(sim.busyEven_));
    w.u64(static_cast<std::uint64_t>(sim.busyBoost_));
    w.size(sim.decisions_);
}

void
CkptAccess::applyCore(DenseServerSim &sim, Reader r)
{
    const std::size_t n = sim.topo_.numSockets();
    const std::size_t np = sim.pm_.pstates().size();
    const std::size_t fileN = r.size();
    if (fileN != n)
        throw CkptError("checkpoint: snapshot of " +
                        std::to_string(fileN) +
                        " sockets, this engine has " +
                        std::to_string(n));
    sim.streamNowS_ = readFinite(r, "stream position");
    sim.streamHardStopS_ = readFinite(r, "stream hard stop");
    sim.arrivalsClosed_ = r.boolean();

    const std::size_t backlog =
        static_cast<std::size_t>(readCount(
            r, r.remaining() / 33, "arrival backlog"));
    sim.streamJobs_.clear();
    sim.streamJobs_.reserve(backlog);
    for (std::size_t i = 0; i < backlog; ++i)
        sim.streamJobs_.push_back(readJob(r, "backlog job"));
    sim.streamNext_ = 0;
    const std::size_t queued = static_cast<std::size_t>(
        readCount(r, r.remaining() / 33, "job queue"));
    sim.queue_.clear();
    for (std::size_t i = 0; i < queued; ++i)
        sim.queue_.push_back(readJob(r, "queued job"));

    sim.powerW_ = readF64Array(r, n, "powerW");
    sim.freqMhz_ = readF64Array(r, n, "freqMhz");
    sim.chipTempC_ = readF64Array(r, n, "chipTempC");
    sim.sensedTempC_ = readF64Array(r, n, "sensedTempC");
    sim.histTempC_ = readF64Array(r, n, "histTempC");
    {
        const std::vector<std::uint8_t> sets = readU8Array(
            r, n,
            static_cast<std::uint8_t>(WorkloadSet::GeneralPurpose),
            "runningSet");
        sim.runningSet_.resize(n);
        for (std::size_t s = 0; s < n; ++s)
            sim.runningSet_[s] = static_cast<WorkloadSet>(sets[s]);
    }
    sim.busyFlag_ = readU8Array(r, n, 1, "busyFlag");
    sim.ambientC_ = readF64Array(r, n, "ambientC");
    sim.chipRiseC_ = readF64Array(r, n, "chipRiseC");
    sim.boostCreditS_ = readF64Array(r, n, "boostCreditS");

    sim.jobBenchmark_ =
        readSizeArray(r, n, pcmarkCatalog().size(), "jobBenchmark");
    sim.jobArrivalS_ = readF64Array(r, n, "jobArrivalS");
    sim.jobStartS_ = readF64Array(r, n, "jobStartS");
    sim.jobNominalS_ = readF64Array(r, n, "jobNominalS");
    sim.jobRemainingS_ = readF64Array(r, n, "jobRemainingS");
    sim.lastSyncS_ = readF64Array(r, n, "lastSyncS");
    sim.completionS_ = readF64Array(r, n, "completionS");
    sim.pstate_ = readSizeArray(r, n, np, "pstate");
    sim.boostFlag_ = readU8Array(r, n, 1, "boostFlag");

    {
        std::vector<std::size_t> idle = r.vecSize();
        if (idle.size() > n)
            badField("idleList", "more idle sockets than sockets");
        for (std::size_t i = 0; i < idle.size(); ++i) {
            if (idle[i] >= n)
                badField("idleList", "socket " +
                                         std::to_string(idle[i]) +
                                         " out of range");
            if (i > 0 && idle[i] <= idle[i - 1])
                badField("idleList", "not strictly ascending");
        }
        sim.idleList_ = std::move(idle);
    }
    sim.ambTargets_ = readF64Array(r, n, "ambTargets");
    sim.targetPowerW_ = readF64Array(r, n, "targetPowerW");
    sim.powerDirty_ = readCharVec(r, n, "powerDirty");
    {
        std::vector<std::size_t> dirty = r.vecSize();
        if (dirty.size() > n)
            badField("dirtySockets", "more entries than sockets");
        for (const std::size_t s : dirty)
            if (s >= n)
                badField("dirtySockets", "socket " +
                                             std::to_string(s) +
                                             " out of range");
        sim.dirtySockets_ = std::move(dirty);
    }
    sim.epochsSinceAmbientRefresh_ = r.size();

    sim.rateCache_ = readF64Array(r, n, "rateCache");
    sim.relFreqCache_ = readF64Array(r, n, "relFreqCache");
    sim.inBusySums_ = readCharVec(r, n, "inBusySums");
    sim.contribRate_ = readF64Array(r, n, "contribRate");
    sim.contribRel_ = readF64Array(r, n, "contribRel");
    sim.contribBoost_ = readCharVec(r, n, "contribBoost");

    sim.tCursor_ = readFinite(r, "tCursor");
    sim.totalPowerW_ = r.f64();
    sim.workRateTotal_ = r.f64();
    sim.workRateFront_ = r.f64();
    sim.workRateBack_ = r.f64();
    sim.workRateEven_ = r.f64();
    sim.relFreqSumTotal_ = r.f64();
    sim.relFreqSumFront_ = r.f64();
    sim.relFreqSumBack_ = r.f64();
    sim.relFreqSumEven_ = r.f64();
    sim.busyTotal_ = readCount(r, n, "busyTotal");
    sim.busyFront_ = readCount(r, n, "busyFront");
    sim.busyBack_ = readCount(r, n, "busyBack");
    sim.busyEven_ = readCount(r, n, "busyEven");
    sim.busyBoost_ = readCount(r, n, "busyBoost");
    sim.decisions_ = r.size();
    r.expectEnd("core");
}

// --- RNG: every stochastic stream position ----------------------------

void
CkptAccess::writeRng(Writer &w, const DenseServerSim &sim)
{
    writeSnapshot(w, sim.policyRng_.snapshot());
    writeSnapshot(w, sim.sensorRng_.snapshot());
    writeSnapshot(w, sim.faultRng_.snapshot());
}

void
CkptAccess::applyRng(DenseServerSim &sim, Reader r, RestoreMode mode,
                     std::uint64_t fork_id)
{
    const Rng::Snapshot policy = readSnapshot(r, "policy rng");
    const Rng::Snapshot sensor = readSnapshot(r, "sensor rng");
    const Rng::Snapshot fault = readSnapshot(r, "fault rng");
    r.expectEnd("rng");
    if (mode == RestoreMode::Exact) {
        sim.policyRng_.restore(policy);
        sim.sensorRng_.restore(sensor);
        sim.faultRng_.restore(fault);
        return;
    }
    // Fork: identical state, divergent future — every stream reseeded
    // through the avalanched domain-separation chain.
    sim.policyRng_ = Rng(domainSeed(sim.config_.seed, fork_id,
                                    ckpt::ckpt_stream::kForkPolicy));
    sim.sensorRng_ = Rng(domainSeed(sim.config_.seed, fork_id,
                                    ckpt::ckpt_stream::kForkSensor));
    sim.faultRng_ = Rng(domainSeed(
        sim.config_.fault.effectiveSeed(sim.config_.seed), fork_id,
        ckpt::ckpt_stream::kForkFault));
}

// --- METRICS: every SimMetrics accumulator, raw FP words --------------

void
CkptAccess::writeMetrics(Writer &w, const DenseServerSim &sim)
{
    const SimMetrics &m = sim.metrics_;
    w.size(m.jobsArrived);
    w.size(m.jobsCompleted);
    w.size(m.jobsUnfinished);
    w.size(m.migrations);
    writeStats(w, m.runtimeExpansion);
    writeStats(w, m.serviceExpansion);
    writeStats(w, m.queueDelayS);
    w.f64(m.energyJ);
    w.f64(m.measuredS);
    w.f64(m.makespanS);
    for (const RegionMetrics *region : {&m.front, &m.back, &m.even}) {
        w.f64(region->busyTimeS);
        w.f64(region->freqTime);
        w.f64(region->workDone);
    }
    w.f64(m.totalWork);
    w.f64(m.totalBusyTime);
    w.f64(m.totalFreqTime);
    w.vecF64(m.timelineS);
    w.size(m.zoneAmbientC.size());
    for (const std::vector<double> &row : m.zoneAmbientC)
        w.vecF64(row);
    writeStats(w, m.chipTempC);
    w.f64(m.maxChipTempC);
    w.f64(m.boostTimeS);
}

void
CkptAccess::applyMetrics(DenseServerSim &sim, Reader r)
{
    SimMetrics &m = sim.metrics_;
    m.jobsArrived = r.size();
    m.jobsCompleted = r.size();
    m.jobsUnfinished = r.size();
    m.migrations = r.size();
    readStats(r, m.runtimeExpansion);
    readStats(r, m.serviceExpansion);
    readStats(r, m.queueDelayS);
    m.energyJ = r.f64();
    m.measuredS = r.f64();
    m.makespanS = r.f64();
    for (RegionMetrics *region : {&m.front, &m.back, &m.even}) {
        region->busyTimeS = r.f64();
        region->freqTime = r.f64();
        region->workDone = r.f64();
    }
    m.totalWork = r.f64();
    m.totalBusyTime = r.f64();
    m.totalFreqTime = r.f64();
    m.timelineS = r.vecF64();
    const std::size_t rows = static_cast<std::size_t>(
        readCount(r, r.remaining() / 8, "timeline rows"));
    if (rows != m.timelineS.size())
        badField("timeline", std::to_string(rows) +
                                 " ambient rows for " +
                                 std::to_string(m.timelineS.size()) +
                                 " sample times");
    m.zoneAmbientC.clear();
    m.zoneAmbientC.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i)
        m.zoneAmbientC.push_back(readF64Array(
            r, sim.zoneSockets_.size(), "timeline zone row"));
    readStats(r, m.chipTempC);
    m.maxChipTempC = r.f64();
    m.boostTimeS = r.f64();
    r.expectEnd("metrics");
}

// --- OBS: registry values, timeline cursor, trace buffer --------------

void
CkptAccess::writeRegistry(Writer &w, const obs::Registry &registry)
{
    const std::vector<obs::CounterSample> counters =
        registry.counters();
    w.size(counters.size());
    for (const obs::CounterSample &c : counters) {
        w.str(c.name);
        w.u64(c.value);
    }
    const std::vector<obs::GaugeSample> gauges = registry.gauges();
    w.size(gauges.size());
    for (const obs::GaugeSample &g : gauges) {
        w.str(g.name);
        w.str(g.unit);
        w.f64(g.value);
    }
}

void
CkptAccess::applyRegistry(obs::Registry &registry, Reader &r)
{
    // Registry::counter()/gauge() create on first use; a hostile file
    // must not be able to inject instruments, so every name is
    // validated against the already-registered set (identical across
    // save/restore because construction registers them and the digest
    // pins config + policy).
    std::set<std::string> knownCounters;
    for (const obs::CounterSample &c : registry.counters())
        knownCounters.insert(c.name);
    std::map<std::string, std::string> knownGauges;
    for (const obs::GaugeSample &g : registry.gauges())
        knownGauges.emplace(g.name, g.unit);

    const std::size_t ncounters = static_cast<std::size_t>(
        readCount(r, r.remaining() / 16, "counter table"));
    for (std::size_t i = 0; i < ncounters; ++i) {
        const std::string name = r.str();
        const std::uint64_t value = r.u64();
        if (knownCounters.find(name) == knownCounters.end())
            badField("counter table",
                     "unknown counter '" + name + "'");
        obs::Counter &counter = registry.counter(name);
        counter.reset();
        counter.inc(value);
    }
    const std::size_t ngauges = static_cast<std::size_t>(
        readCount(r, r.remaining() / 24, "gauge table"));
    for (std::size_t i = 0; i < ngauges; ++i) {
        const std::string name = r.str();
        const std::string unit = r.str();
        const double value = r.f64();
        const auto it = knownGauges.find(name);
        if (it == knownGauges.end())
            badField("gauge table", "unknown gauge '" + name + "'");
        if (it->second != unit)
            badField("gauge table", "gauge '" + name + "' unit '" +
                                        unit + "' != registered '" +
                                        it->second + "'");
        registry.gauge(name).set(value);
    }
}

void
CkptAccess::writeObs(Writer &w, const DenseServerSim &sim)
{
    writeRegistry(w, sim.obsRegistry_);
    w.u64(sim.sampler_.nextGridIndex());
    obs::TraceCkptAccess::save(w, sim.trace_);
}

void
CkptAccess::applyObs(DenseServerSim &sim, Reader r)
{
    applyRegistry(sim.obsRegistry_, r);
    sim.sampler_.resumeAt(r.u64());
    obs::TraceCkptAccess::apply(r, sim.trace_);
    r.expectEnd("obs");
}

// --- FAULT: timeline cursor, log, sensor/offline/ladder state ---------

void
CkptAccess::writeFault(Writer &w, const DenseServerSim &sim)
{
    w.boolean(sim.faultsEnabled_);
    w.size(sim.nextFaultEvent_);
    w.size(sim.faultLog_.size());
    for (const FaultEvent &e : sim.faultLog_) {
        w.f64(e.timeS);
        w.u8(static_cast<std::uint8_t>(e.kind));
        w.u32(e.socket);
        w.f64(e.value);
    }
    w.f64(sim.fanPowerW_);
    w.boolean(sim.couplingDerated_);
    w.u64(sim.couplingEpoch_);

    const FaultState &fs = sim.faultState_;
    w.size(fs.sensorMode_.size());
    for (const SensorMode mode : fs.sensorMode_)
        w.u8(static_cast<std::uint8_t>(mode));
    w.vecF64(fs.stuckAmbientC_);
    w.vecF64(fs.stuckChipC_);
    w.vecF64(fs.noiseSigmaC_);
    w.vecF64(fs.lastGoodAmbientC_);
    w.vecU8(fs.offline_);
    w.size(fs.offlineCount_);
    w.vecU8(fs.escStage_);
    w.vecF64(fs.overTripSinceS_);
    w.f64(fs.flowFrac_);
}

void
CkptAccess::applyFault(DenseServerSim &sim, Reader r)
{
    const std::size_t n = sim.topo_.numSockets();
    const bool enabled = r.boolean();
    if (enabled != sim.faultsEnabled_)
        badField("fault section",
                 "fault arming disagrees with this configuration");
    const std::size_t cursor = r.size();
    if (cursor > sim.faultTimeline_.events().size())
        badField("fault timeline cursor",
                 std::to_string(cursor) + " past the " +
                     std::to_string(sim.faultTimeline_.events().size()) +
                     "-event timeline");
    sim.nextFaultEvent_ = cursor;
    const std::size_t logged = static_cast<std::size_t>(
        readCount(r, r.remaining() / 21, "fault log"));
    sim.faultLog_.clear();
    sim.faultLog_.reserve(logged);
    for (std::size_t i = 0; i < logged; ++i) {
        FaultEvent e{};
        e.timeS = r.f64();
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(FaultKind::JobRequeue))
            badField("fault log", "fault kind " +
                                      std::to_string(int(kind)));
        e.kind = static_cast<FaultKind>(kind);
        e.socket = r.u32();
        e.value = r.f64();
        sim.faultLog_.push_back(e);
    }
    sim.fanPowerW_ = readFinite(r, "fan power");
    sim.couplingDerated_ = r.boolean();
    sim.couplingEpoch_ = r.u64();

    FaultState &fs = sim.faultState_;
    {
        const std::vector<std::uint8_t> modes = readU8Array(
            r, n, static_cast<std::uint8_t>(SensorMode::Dropout),
            "sensorMode");
        fs.sensorMode_.resize(n);
        for (std::size_t s = 0; s < n; ++s)
            fs.sensorMode_[s] = static_cast<SensorMode>(modes[s]);
    }
    fs.stuckAmbientC_ = readF64Array(r, n, "stuckAmbientC");
    fs.stuckChipC_ = readF64Array(r, n, "stuckChipC");
    fs.noiseSigmaC_ = readF64Array(r, n, "noiseSigmaC");
    fs.lastGoodAmbientC_ = readF64Array(r, n, "lastGoodAmbientC");
    fs.offline_ = readU8Array(r, n, 2, "offline");
    const std::size_t offlineCount = r.size();
    std::size_t actual = 0;
    for (const std::uint8_t o : fs.offline_)
        actual += o != 0 ? 1 : 0;
    if (offlineCount != actual)
        badField("offline count",
                 std::to_string(offlineCount) + " recorded, " +
                     std::to_string(actual) + " sockets marked");
    fs.offlineCount_ = offlineCount;
    fs.escStage_ = readU8Array(r, n, 1, "escStage");
    fs.overTripSinceS_ = readF64Array(r, n, "overTripSinceS");
    const double flowFrac = r.f64();
    if (!std::isfinite(flowFrac) || flowFrac <= 0.0 ||
        flowFrac > 1.0)
        badField("fan flow fraction", "outside (0, 1]");
    if (sim.couplingDerated_ != (flowFrac != 1.0))
        badField("fan flow fraction",
                 "disagrees with the coupling-derated flag");
    fs.flowFrac_ = flowFrac;
    r.expectEnd("fault");
}

// --- SCHED: prediction memos ------------------------------------------
// The feasibility thresholds are construction-derived and the penalty
// snapshot a pure function of the restored socket state, so both are
// rebuilt (constructor, finalizeRestore) rather than carried.

void
CkptAccess::writeSched(Writer &w, const DenseServerSim &sim)
{
    const PredictionCache &pc = sim.predCache_;
    w.u64(pc.epoch);
    w.size(pc.place.size());
    for (const PredictionCache::PlaceEntry &e : pc.place) {
        w.u64(e.stamp);
        w.u8(static_cast<std::uint8_t>(e.set));
        writeDecision(w, e.decision);
    }
    w.size(pc.penalty.size());
    for (const PredictionCache::PenaltyEntry &e : pc.penalty) {
        w.u64(e.stamp);
        w.f64(e.extra);
        w.f64(e.mhz);
    }
}

void
CkptAccess::applySched(DenseServerSim &sim, Reader r)
{
    const std::size_t n = sim.topo_.numSockets();
    const std::size_t np = sim.pm_.pstates().size();
    const auto maxSet =
        static_cast<std::uint8_t>(WorkloadSet::GeneralPurpose);

    PredictionCache &pc = sim.predCache_;
    pc.epoch = r.u64();
    if (r.size() != n)
        badField("prediction cache", "place entry count");
    for (std::size_t s = 0; s < n; ++s) {
        PredictionCache::PlaceEntry &e = pc.place[s];
        e.stamp = r.u64();
        const std::uint8_t set = r.u8();
        if (set > maxSet)
            badField("prediction cache", "workload set " +
                                             std::to_string(int(set)));
        e.set = static_cast<WorkloadSet>(set);
        e.decision = readDecision(r, np, "placement decision");
    }
    if (r.size() != n)
        badField("prediction cache", "penalty entry count");
    for (std::size_t s = 0; s < n; ++s) {
        PredictionCache::PenaltyEntry &e = pc.penalty[s];
        e.stamp = r.u64();
        e.extra = r.f64();
        e.mhz = r.f64();
    }
    r.expectEnd("sched");
}

// --- capture / apply --------------------------------------------------

CkptAccess::EngineImage
CkptAccess::captureEngine(const DenseServerSim &sim)
{
    if (!sim.streamOpen_)
        fatal("ckpt: cannot checkpoint a closed run (beginRun?)");
    EngineImage image;
    Writer w;
    writeCore(w, sim);
    image.core = w.take();
    writeRng(w, sim);
    image.rng = w.take();
    writeMetrics(w, sim);
    image.metrics = w.take();
    writeObs(w, sim);
    image.obs = w.take();
    writeFault(w, sim);
    image.fault = w.take();
    writeSched(w, sim);
    image.sched = w.take();
    return image;
}

void
CkptAccess::finalizeRestore(DenseServerSim &sim)
{
    const std::size_t n = sim.topo_.numSockets();

    // The saved run was under a fan derate: rebuild the derated
    // coupling operator exactly as applyFanFlowFraction does, but
    // without retargeting — ambTargets_, couplingEpoch_ and the
    // prediction cache were restored verbatim.
    if (sim.couplingDerated_) {
        const double frac = sim.faultState_.flowFrac();
        std::vector<SocketSite> sites = sim.topo_.sites();
        for (SocketSite &site : sites)
            site.ductCfm = Cfm(site.ductCfm.value() * frac);
        CouplingParams params = sim.config_.coupling;
        params.kappaLocal /= frac;
        sim.coupling_ = CouplingMap(std::move(sites), params);
    }

    // Rebuild the completion heap from the busy flags in ascending-id
    // order. Observably exact: the heap's (key, id) order is total,
    // so top()/topKey()/contains() — all the engine ever reads — are
    // pure functions of the entry set, not of insertion order.
    sim.completionHeap_.reset(n);
    std::size_t busy = 0;
    for (std::size_t s = 0; s < n; ++s) {
        if (sim.busyFlag_[s]) {
            sim.completionHeap_.upsert(s, sim.completionS_[s]);
            ++busy;
        }
    }

    // Post-restore audit (always on, CkptError not assertion — these
    // double as the last line of hostile-input validation).
    if (busy != static_cast<std::size_t>(sim.busyTotal_))
        badField("restored state",
                 std::to_string(busy) + " busy flags vs busyTotal " +
                     std::to_string(sim.busyTotal_));
    const std::size_t offline = sim.faultState_.offlineCount();
    if (sim.idleList_.size() + busy + offline != n)
        badField("restored state",
                 "idle + busy + offline = " +
                     std::to_string(sim.idleList_.size() + busy +
                                    offline) +
                     " != " + std::to_string(n) + " sockets");
    for (const std::size_t s : sim.idleList_)
        if (sim.busyFlag_[s] || sim.faultState_.offline(s))
            badField("restored state",
                     "socket " + std::to_string(s) +
                         " is idle-listed but busy or offline");
    for (std::size_t s = 0; s < n; ++s)
        if (!std::isfinite(sim.chipTempC_[s]) ||
            !std::isfinite(sim.ambientC_[s]))
            badField("restored state",
                     "non-finite temperature on socket " +
                         std::to_string(s));

    // Derived state: the per-row idle counts and the penalty snapshot
    // are pure functions of the restored idle list and socket banks.
    std::fill(sim.rowIdle_.begin(), sim.rowIdle_.end(), 0);
    for (const std::size_t s : sim.idleList_)
        ++sim.rowIdle_[static_cast<std::size_t>(sim.rowCache_[s])];
    for (std::size_t s = 0; s < n; ++s)
        sim.refreshPenaltySnapshot(s);

    // Re-wire the trace sink exactly as beginRun does.
    if (!sim.config_.obsTracePath.empty()) {
        sim.trace_.enable(true);
        sim.trace_.setProcessName(std::string("densim:") +
                                  sim.policy_->name());
#if DENSIM_ENABLE_OBS
        sim.profiler_.setSink(&sim.trace_);
#endif
    }

    sim.streamOpen_ = true;
    // Debug-build invariants on top of the audits above.
    sim.checkEpochInvariants();
    sim.completionHeap_.checkInvariants();
}

void
CkptAccess::applyEngine(DenseServerSim &sim, const EngineImage &image,
                        RestoreMode mode, std::uint64_t fork_id)
{
    // A failed earlier fleet restore can leave a shard open; reset
    // handles either state (restoreEngine/restoreFleet hold the
    // user-facing open-run guards).
    sim.streamOpen_ = false;
    sim.resetState();
    applyCore(sim, Reader(image.core));
    applyRng(sim, Reader(image.rng), mode, fork_id);
    applyMetrics(sim, Reader(image.metrics));
    applyObs(sim, Reader(image.obs));
    applyFault(sim, Reader(image.fault));
    applySched(sim, Reader(image.sched));
    finalizeRestore(sim);
}

// --- fleet ------------------------------------------------------------

std::string
CkptAccess::saveFleetImage(const FleetSim &fleet)
{
    if (!fleet.fleetOpen_)
        fatal("ckpt: cannot checkpoint a closed fleet run "
              "(beginRun?)");
    std::vector<std::pair<std::uint32_t, std::string>> sections;

    Writer w;
    const std::size_t n = fleet.shards_.size();
    w.size(n);
    w.size(fleet.window_);
    w.boolean(fleet.arrivalsOpen_);
    w.u64(fleet.dispatcher_->cursor());
    const JobGenerator &arrivals = *fleet.arrivals_;
    writeSnapshot(w, arrivals.rng_.snapshot());
    w.f64(arrivals.clockS_);
    w.u64(arrivals.nextId_);
    w.boolean(arrivals.hasPending_);
    writeJob(w, arrivals.pending_);
    w.u64(fleet.metrics_.jobsArrived);
    w.u64(fleet.metrics_.jobsDispatched);
    w.size(fleet.metrics_.dispatchedPerShard.size());
    for (const std::uint64_t d : fleet.metrics_.dispatchedPerShard)
        w.u64(d);
    writeRegistry(w, fleet.registry_);
    sections.emplace_back(kSecFleet, w.take());

    for (std::size_t s = 0; s < n; ++s) {
        const EngineImage image = captureEngine(*fleet.shards_[s]);
        Writer shard;
        shard.str(image.core);
        shard.str(image.rng);
        shard.str(image.metrics);
        shard.str(image.obs);
        shard.str(image.fault);
        shard.str(image.sched);
        sections.emplace_back(
            kSecShardBase + static_cast<std::uint32_t>(s),
            shard.take());
    }
    return buildFile(SnapshotKind::Fleet,
                     ckpt::stateDigest(fleetPolicyName(fleet),
                                       fleet.base_),
                     sections);
}

void
CkptAccess::restoreFleetImage(FleetSim &fleet, std::string_view image,
                              RestoreMode mode, std::uint64_t fork_id)
{
    const std::size_t n = fleet.shards_.size();
    const auto sections = parseFile(
        image, SnapshotKind::Fleet,
        ckpt::stateDigest(fleetPolicyName(fleet), fleet.base_));
    if (sections.size() != n + 1)
        throw CkptError("checkpoint: fleet file has " +
                        std::to_string(sections.size()) +
                        " sections, expected " +
                        std::to_string(n + 1));
    const std::string &core = section(sections, kSecFleet);
    for (std::size_t s = 0; s < n; ++s)
        section(sections,
                kSecShardBase + static_cast<std::uint32_t>(s));

    // Baseline mirroring beginRun() — every field overwritten below
    // is first put in the exact state beginRun would leave it in, so
    // a restore that throws leaves a closed, fully reusable fleet.
    fleet.arrivals_ = std::make_unique<JobGenerator>(
        fleet.base_.workload, fleet.base_.load,
        static_cast<int>(fleet.totalSockets()),
        domainSeed(fleet.fleetSeed_, 0, fleet_stream::kArrivals));
    fleet.registry_.resetValues();
    fleet.windowsCtr_ = &fleet.registry_.counter("fleet/windows");
    fleet.dispatchedCtr_ =
        &fleet.registry_.counter("fleet/jobsDispatched");
    fleet.metrics_ = FleetMetrics{};
    fleet.metrics_.chassis = n;
    fleet.metrics_.dispatchedPerShard.assign(n, 0);
    fleet.batches_.assign(n, {});

    Reader r(core);
    if (r.size() != n)
        throw CkptError("checkpoint: fleet snapshot chassis count "
                        "!= this fleet's " +
                        std::to_string(n));
    fleet.window_ = r.size();
    fleet.arrivalsOpen_ = r.boolean();
    fleet.dispatcher_->setCursor(r.u64());
    {
        JobGenerator &arrivals = *fleet.arrivals_;
        const Rng::Snapshot snap = readSnapshot(r, "arrival rng");
        if (mode == RestoreMode::Exact)
            arrivals.rng_.restore(snap);
        else
            arrivals.rng_ =
                Rng(domainSeed(fleet.fleetSeed_, fork_id,
                               ckpt::ckpt_stream::kForkArrivals));
        arrivals.clockS_ = readFinite(r, "arrival clock");
        arrivals.nextId_ = r.u64();
        arrivals.hasPending_ = r.boolean();
        arrivals.pending_ = readJob(r, "arrival lookahead");
    }
    fleet.metrics_.jobsArrived = r.u64();
    fleet.metrics_.jobsDispatched = r.u64();
    {
        const std::size_t count = r.size();
        if (count != n)
            badField("dispatch counts", "length != chassis count");
        for (std::size_t s = 0; s < n; ++s)
            fleet.metrics_.dispatchedPerShard[s] = r.u64();
    }
    applyRegistry(fleet.registry_, r);
    r.expectEnd("fleet");

    for (std::size_t s = 0; s < n; ++s) {
        Reader shard(section(
            sections, kSecShardBase + static_cast<std::uint32_t>(s)));
        EngineImage shard_image;
        shard_image.core = shard.str();
        shard_image.rng = shard.str();
        shard_image.metrics = shard.str();
        shard_image.obs = shard.str();
        shard_image.fault = shard.str();
        shard_image.sched = shard.str();
        shard.expectEnd("shard");
        applyEngine(*fleet.shards_[s], shard_image, mode, fork_id);
    }
    fleet.fleetOpen_ = true;
}

} // namespace densim

// --- public API --------------------------------------------------------

namespace densim::ckpt {

std::uint64_t
stateDigest(const std::string &policy, const SimConfig &config)
{
    SimConfig identity = config;
    identity.ckptPath.clear();
    identity.ckptEveryS = 0.0;
    return fnv1a64(policy + "\n" + saveConfig(identity));
}

std::string
saveEngine(const DenseServerSim &sim)
{
    const CkptAccess::EngineImage image =
        CkptAccess::captureEngine(sim);
    return buildFile(
        SnapshotKind::Engine,
        stateDigest(CkptAccess::policyName(sim), sim.config()),
        {{kSecCore, image.core},
         {kSecRng, image.rng},
         {kSecMetrics, image.metrics},
         {kSecObs, image.obs},
         {kSecFault, image.fault},
         {kSecSched, image.sched}});
}

void
restoreEngine(DenseServerSim &sim, std::string_view image,
              RestoreMode mode, std::uint64_t fork_id)
{
    if (CkptAccess::engineOpen(sim))
        fatal("ckpt: restore into an open run — finishRun() first "
              "(double restore?)");
    const auto sections = parseFile(
        image, SnapshotKind::Engine,
        stateDigest(CkptAccess::policyName(sim), sim.config()));
    if (sections.size() != 6)
        throw CkptError("checkpoint: engine file has " +
                        std::to_string(sections.size()) +
                        " sections, expected 6");
    CkptAccess::EngineImage img;
    img.core = section(sections, kSecCore);
    img.rng = section(sections, kSecRng);
    img.metrics = section(sections, kSecMetrics);
    img.obs = section(sections, kSecObs);
    img.fault = section(sections, kSecFault);
    img.sched = section(sections, kSecSched);
    CkptAccess::applyEngine(sim, img, mode, fork_id);
}

std::string
saveFleet(const FleetSim &fleet)
{
    return CkptAccess::saveFleetImage(fleet);
}

void
restoreFleet(FleetSim &fleet, std::string_view image,
             RestoreMode mode, std::uint64_t fork_id)
{
    if (CkptAccess::fleetOpen(fleet))
        fatal("ckpt: restore into an open fleet run — finishRun() "
              "first (double restore?)");
    CkptAccess::restoreFleetImage(fleet, image, mode, fork_id);
}

void
writeCheckpointFile(const std::string &path, const std::string &image)
{
    if (!atomicWriteFile(path, image))
        fatal("ckpt: cannot write checkpoint '", path, "': ",
              std::strerror(errno));
}

std::string
readCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CkptError("checkpoint: cannot open '" + path + "': " +
                        std::strerror(errno));
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        throw CkptError("checkpoint: read error on '" + path + "'");
    return std::move(buffer).str();
}

void
flushSinks(DenseServerSim &sim)
{
    CkptAccess::flush(sim);
}

void
flushSinks(FleetSim &fleet)
{
    CkptAccess::flushFleet(fleet);
}

} // namespace densim::ckpt
