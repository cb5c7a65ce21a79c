#include "ckpt/checkpoint.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>
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

// A fleet file holds kSecFleet plus one kSecShardBase + s section per
// shard; the engine section ids live in CkptAccess's section table.
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

// --- the two directions of one transfer function ---------------------
//
// Every section is one function template over the direction
// (CkptAccess below). Instantiated with a Saver over a const object,
// each field operation writes the field; with a Loader over a mutable
// one, the same operation reads it back and validates it before the
// next field is read. Saver and Loader implement the same primitive
// operations; Archive composes the compound ones from them.

template <class Ar>
class Archive
{
  public:
    /** A count the loader must find equal to @p n. */
    void length(std::size_t n, const char *what)
    {
        std::size_t got = n;
        self().u64(got);
        self().require(got == n, what, "length disagrees with this run");
    }

    template <class F>
    void finite(F &v, const char *what)
    {
        self().f64(v);
        self().require(std::isfinite(v), what, "non-finite value");
    }

    template <class U>
    void index(U &v, std::size_t bound, const char *what)
    {
        self().u64(v);
        self().require(v < bound, what, "index out of range");
    }

    /** A non-negative int, at most @p bound. */
    template <class I>
    void count(I &v, std::size_t bound, const char *what)
    {
        auto x = static_cast<std::uint64_t>(v);
        self().u64(x);
        self().require(x <= bound, what, "count out of range");
        if constexpr (Ar::kLoading)
            v = static_cast<int>(x);
    }

    /** An int, sign-extended to 8 bytes. */
    template <class I>
    void integer(I &v, const char *what)
    {
        auto x = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
        self().u64(x);
        const auto wide = static_cast<std::int64_t>(x);
        self().require(wide >= INT_MIN && wide <= INT_MAX, what,
                       "value outside int");
        if constexpr (Ar::kLoading)
            v = static_cast<int>(wide);
    }

    /** Exactly @p n doubles. */
    template <class V>
    void f64s(V &v, std::size_t n, const char *what)
    {
        self().each(v, n, what, [this](auto &x) { self().f64(x); });
    }

    /** Exactly @p n byte-wide values (flags, enums), each <= @p max. */
    template <class V>
    void bytes(V &v, std::size_t n, typename V::value_type max,
               const char *what)
    {
        self().each(v, n, what,
                    [&](auto &x) { self().u8(x, max, what); });
    }

    /** Exactly @p n indices, each below @p bound. */
    template <class V>
    void indices(V &v, std::size_t n, std::size_t bound,
                 const char *what)
    {
        self().each(v, n, what,
                    [&](auto &x) { index(x, bound, what); });
    }

    /** At most @p n socket ids below @p n, strictly ascending if asked. */
    template <class V>
    void sockets(V &v, std::size_t n, bool ascending, const char *what)
    {
        self().seq(v, 8, what, [&](auto &s) { index(s, n, what); });
        self().require(v.size() <= n, what, "more entries than sockets");
        self().require(!ascending ||
                           std::adjacent_find(v.begin(), v.end(),
                                              std::greater_equal<>()) ==
                               v.end(),
                       what, "not strictly ascending");
    }

    template <class J>
    void job(J &j, const char *what)
    {
        self().u64(j.id);
        index(j.benchmark, pcmarkCatalog().size(), what);
        self().u8(j.set, WorkloadSet::GeneralPurpose, what);
        self().f64(j.arrivalS);
        self().f64(j.nominalS);
    }

    /** A generator's full stream position, Gaussian spare included. */
    template <class G>
    void rng(G &g, const char *what)
    {
        Rng::Snapshot snap = g.snapshot();
        std::uint64_t any = 0;
        for (std::uint64_t &word : snap.state) {
            self().u64(word);
            any |= word;
        }
        self().boolean(snap.hasSpare);
        self().f64(snap.spare);
        // The all-zero state is xoshiro's single degenerate orbit: no
        // legitimate save can contain it.
        self().require(any != 0, what, "all-zero generator state");
        if constexpr (Ar::kLoading)
            g.restore(snap);
    }

    /** RunningStats as its raw accumulator words. */
    template <class S>
    void stats(S &s)
    {
        RunningStats::Snapshot snap = s.snapshot();
        self().u64(snap.count);
        self().f64(snap.mean);
        self().f64(snap.m2);
        self().f64(snap.min);
        self().f64(snap.max);
        if constexpr (Ar::kLoading)
            s.restore(snap);
    }

  private:
    Ar &self() { return static_cast<Ar &>(*this); }
};

/** Writes each field: every size as 8 bytes, doubles as raw bits. */
class Saver : public Archive<Saver>
{
  public:
    static constexpr bool kLoading = false;

    /** The bytes written so far; the saver starts over empty. */
    std::string take() { return w_.take(); }

    template <class U>
    void u64(const U &v)
    {
        static_assert(std::is_unsigned_v<U>);
        w_.u64(static_cast<std::uint64_t>(v));
    }

    void u32(std::uint32_t v) { w_.u32(v); }
    void boolean(bool v) { w_.boolean(v); }
    void f64(double v) { w_.f64(v); }

    /** A typed quantity (Watts, Celsius) as its raw double. */
    template <class Q>
        requires requires(const Q &q) { q.value(); }
    void f64(const Q &q)
    {
        w_.f64(q.value());
    }

    void str(const std::string &s) { w_.str(s); }

    template <class T>
    void u8(const T &v, std::type_identity_t<T>, const char *)
    {
        w_.u8(static_cast<std::uint8_t>(v));
    }

    void require(bool, const char *, const char *) {}

    /** A fixed-length sequence: its length, then each element. */
    template <class C, class F>
    void each(const C &c, std::size_t, const char *what, F &&field)
    {
        length(c.size(), what);
        for (const auto &e : c)
            field(e);
    }

    /**
     * A variable-length sequence of the elements from index @p from
     * on; each takes at least @p min_bytes on the wire.
     */
    template <class C, class F>
    void seq(const C &c, std::size_t /*min_bytes*/, const char *,
             F &&field, std::size_t from = 0)
    {
        w_.size(c.size() - from);
        for (auto it = c.begin() + static_cast<std::ptrdiff_t>(from);
             it != c.end(); ++it)
            field(*it);
    }

  private:
    Writer w_;
};

/** Reads each field back, validating it before the next is read. */
class Loader : public Archive<Loader>
{
  public:
    static constexpr bool kLoading = true;

    explicit Loader(std::string_view payload) : r_(payload) {}

    /** The whole payload must have been read. */
    void expectEnd(const char *what) const { r_.expectEnd(what); }

    template <class U>
    void u64(U &v)
    {
        static_assert(std::is_unsigned_v<U>);
        const std::uint64_t x = r_.u64();
        if constexpr (sizeof(U) < sizeof(std::uint64_t))
            require(x <= std::numeric_limits<U>::max(), "word",
                    "value overflows its field");
        v = static_cast<U>(x);
    }

    void u32(std::uint32_t &v) { v = r_.u32(); }
    void boolean(bool &v) { v = r_.boolean(); }
    void f64(double &v) { v = r_.f64(); }

    template <class Q>
        requires requires(const Q &q) { q.value(); }
    void f64(Q &q)
    {
        q = Q(r_.f64());
    }

    void str(std::string &s) { s = r_.str(); }

    template <class T>
    void u8(T &v, std::type_identity_t<T> max, const char *what)
    {
        const std::uint8_t b = r_.u8();
        require(b <= static_cast<std::uint8_t>(max), what,
                "value out of range");
        v = static_cast<T>(b);
    }

    void require(bool ok, const char *what, const char *detail)
    {
        if (!ok)
            badField(what, detail);
    }

    template <class C, class F>
    void each(C &c, std::size_t n, const char *what, F &&field)
    {
        length(n, what);
        c.resize(n);
        for (auto &e : c)
            field(e);
    }

    /** Replaces the whole container; @p from only shapes the save. */
    template <class C, class F>
    void seq(C &c, std::size_t min_bytes, const char *what, F &&field,
             std::size_t /*from*/ = 0)
    {
        // The count is bounded by the bytes left before anything is
        // allocated for it.
        const std::uint64_t n = r_.u64();
        require(n <= r_.remaining() / min_bytes, what,
                "count overruns the section");
        c.clear();
        if constexpr (requires { c.reserve(n); })
            c.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            typename C::value_type e{};
            field(e);
            c.push_back(std::move(e));
        }
    }

  private:
    Reader r_;
};

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
    static void flush(DenseServerSim &sim) { sim.writeObsOutputs(); }

    static void flushFleet(FleetSim &fleet)
    {
        for (const auto &shard : fleet.shards_)
            shard->writeObsOutputs();
    }

    static std::string saveEngineFile(const DenseServerSim &sim);
    static void restoreEngineFile(DenseServerSim &sim,
                                  std::string_view image,
                                  RestoreMode mode,
                                  std::uint64_t fork_id);
    static std::string saveFleetFile(const FleetSim &fleet);
    static void restoreFleetFile(FleetSim &fleet, std::string_view image,
                                 RestoreMode mode,
                                 std::uint64_t fork_id);

  private:
    // One transfer function per section, over the direction: Sim is
    // const DenseServerSim when saving. Each validates every length
    // and index as it loads; cross-section consistency is audited in
    // finalizeRestore.
    template <class Ar, class Sim>
    static void core(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void rngs(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void metrics(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void obs(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void fault(Ar &ar, Sim &sim);
    template <class Ar, class Registry>
    static void registry(Ar &ar, Registry &registry);
    template <class Ar, class Fleet>
    static void fleetCore(Ar &ar, Fleet &fleet);

    template <class Ar, class Sim>
    struct Section
    {
        std::uint32_t id;
        const char *name;
        void (*transfer)(Ar &, Sim &);
    };

    /**
     * The engine sections in file order: the one list engine and
     * fleet files, saves and restores all walk. A fleet shard section
     * holds the same payloads as length-prefixed strings, in this
     * order, without their ids.
     */
    template <class Ar, class Sim>
    static constexpr std::array<Section<Ar, Sim>, 5> kEngineSections{{
        {1, "core", &core<Ar, Sim>},
        {2, "rng", &rngs<Ar, Sim>},
        {3, "metrics", &metrics<Ar, Sim>},
        {4, "obs", &obs<Ar, Sim>},
        {5, "fault", &fault<Ar, Sim>},
    }};

    /** Section payloads of one engine, in table order. */
    using EngineImage = std::array<std::string, 5>;

    static EngineImage saveSections(const DenseServerSim &sim);
    static void loadSections(DenseServerSim &sim,
                             const EngineImage &image, RestoreMode mode,
                             std::uint64_t fork_id);
    static void finalizeRestore(DenseServerSim &sim);
};

namespace obs {

/** Friend hook into TraceSink's private event buffer. */
class TraceCkptAccess
{
  public:
    template <class Ar, class Sink>
    static void
    transfer(Ar &ar, Sink &trace)
    {
        ar.u64(trace.dropped_);
        // Minimum wire size of one event: kind + tid + 3 doubles +
        // two empty strings = 49 bytes.
        ar.seq(trace.events_, 49, "trace events", [&](auto &e) {
            ar.u8(e.kind, TraceSink::Kind::CounterSample,
                  "trace event kind");
            ar.integer(e.tid, "trace event tid");
            ar.f64(e.tsUs);
            ar.f64(e.durUs);
            ar.f64(e.value);
            ar.str(e.name);
            ar.str(e.cat);
        });
    }
};

} // namespace obs

// --- CORE: stream position, backlog, queue, SoA socket banks ----------

template <class Ar, class Sim>
void
CkptAccess::core(Ar &ar, Sim &sim)
{
    const std::size_t n = sim.topo_.numSockets();
    const std::size_t np = sim.pm_.pstates().size();
    ar.length(n, "socket count");
    ar.finite(sim.streamNowS_, "stream position");
    ar.finite(sim.streamHardStopS_, "stream hard stop");
    ar.boolean(sim.arrivalsClosed_);

    // Only the unconsumed backlog tail: the consumed prefix can never
    // be read again, and submitJobs' periodic compaction proves the
    // representation is behavior-free. A restored backlog is all tail.
    const auto job = [&](auto &j) { ar.job(j, "job"); };
    ar.seq(sim.streamJobs_, 33, "arrival backlog", job,
           sim.streamNext_);
    if constexpr (Ar::kLoading)
        sim.streamNext_ = 0;
    ar.seq(sim.queue_, 33, "job queue", job);

    ar.f64s(sim.powerW_, n, "powerW");
    ar.f64s(sim.freqMhz_, n, "freqMhz");
    ar.f64s(sim.chipTempC_, n, "chipTempC");
    ar.f64s(sim.sensedTempC_, n, "sensedTempC");
    ar.f64s(sim.histTempC_, n, "histTempC");
    ar.bytes(sim.runningSet_, n, WorkloadSet::GeneralPurpose,
             "runningSet");
    ar.bytes(sim.busyFlag_, n, 1, "busyFlag");
    ar.f64s(sim.ambientC_, n, "ambientC");
    ar.f64s(sim.chipRiseC_, n, "chipRiseC");
    ar.f64s(sim.boostCreditS_, n, "boostCreditS");

    ar.indices(sim.jobBenchmark_, n, pcmarkCatalog().size(),
               "jobBenchmark");
    ar.f64s(sim.jobArrivalS_, n, "jobArrivalS");
    ar.f64s(sim.jobStartS_, n, "jobStartS");
    ar.f64s(sim.jobNominalS_, n, "jobNominalS");
    ar.f64s(sim.jobRemainingS_, n, "jobRemainingS");
    ar.f64s(sim.lastSyncS_, n, "lastSyncS");
    ar.f64s(sim.completionS_, n, "completionS");
    ar.indices(sim.pstate_, n, np, "pstate");

    ar.sockets(sim.idleList_, n, true, "idleList");
    ar.f64s(sim.ambTargets_, n, "ambTargets");
    ar.f64s(sim.targetPowerW_, n, "targetPowerW");
    ar.bytes(sim.powerDirty_, n, 1, "powerDirty");
    ar.sockets(sim.dirtySockets_, n, false, "dirtySockets");
    ar.u64(sim.epochsSinceAmbientRefresh_);

    ar.finite(sim.tCursor_, "tCursor");
    ar.f64(sim.totalPowerW_);
    ar.f64(sim.sums_.workRateTotal);
    ar.f64(sim.sums_.workRateFront);
    ar.f64(sim.sums_.workRateBack);
    ar.f64(sim.sums_.workRateEven);
    ar.f64(sim.sums_.relFreqSumTotal);
    ar.f64(sim.sums_.relFreqSumFront);
    ar.f64(sim.sums_.relFreqSumBack);
    ar.f64(sim.sums_.relFreqSumEven);
    ar.count(sim.sums_.busyTotal, n, "busyTotal");
    ar.count(sim.sums_.busyFront, n, "busyFront");
    ar.count(sim.sums_.busyBack, n, "busyBack");
    ar.count(sim.sums_.busyEven, n, "busyEven");
    ar.count(sim.sums_.busyBoost, n, "busyBoost");
    ar.u64(sim.decisions_);
}

// --- RNG: every stochastic stream position ----------------------------

template <class Ar, class Sim>
void
CkptAccess::rngs(Ar &ar, Sim &sim)
{
    ar.rng(sim.policyRng_, "policy rng");
    ar.rng(sim.sensorRng_, "sensor rng");
    ar.rng(sim.faultRng_, "fault rng");
}

// --- METRICS: every SimMetrics accumulator, raw FP words --------------

template <class Ar, class Sim>
void
CkptAccess::metrics(Ar &ar, Sim &sim)
{
    auto &m = sim.metrics_;
    ar.u64(m.jobsArrived);
    ar.u64(m.jobsCompleted);
    ar.u64(m.jobsUnfinished);
    ar.u64(m.migrations);
    ar.stats(m.runtimeExpansion);
    ar.stats(m.serviceExpansion);
    ar.stats(m.queueDelayS);
    ar.f64(m.energyJ);
    ar.f64(m.measuredS);
    ar.f64(m.makespanS);
    for (auto *region : {&m.front, &m.back, &m.even}) {
        ar.f64(region->busyTimeS);
        ar.f64(region->freqTime);
        ar.f64(region->workDone);
    }
    ar.f64(m.totalWork);
    ar.f64(m.totalBusyTime);
    ar.f64(m.totalFreqTime);
    ar.seq(m.timelineS, 8, "timeline", [&](auto &t) { ar.f64(t); });
    ar.each(m.zoneAmbientC, m.timelineS.size(), "timeline rows",
            [&](auto &row) {
                ar.f64s(row, sim.zoneSockets_.size(),
                        "timeline zone row");
            });
    ar.stats(m.chipTempC);
    ar.f64(m.maxChipTempC);
    ar.f64(m.boostTimeS);
}

// --- OBS: registry values, timeline cursor, trace buffer --------------

template <class Ar, class Registry>
void
CkptAccess::registry(Ar &ar, Registry &registry)
{
    std::vector<obs::CounterSample> counters;
    std::vector<obs::GaugeSample> gauges;
    if constexpr (!Ar::kLoading) {
        counters = registry.counters();
        gauges = registry.gauges();
    }
    ar.seq(counters, 16, "counter table", [&](auto &c) {
        ar.str(c.name);
        ar.u64(c.value);
    });
    ar.seq(gauges, 24, "gauge table", [&](auto &g) {
        ar.str(g.name);
        ar.str(g.unit);
        ar.f64(g.value);
    });
    if constexpr (Ar::kLoading) {
        // Registry::counter()/gauge() create on first use; a hostile
        // file must not be able to inject instruments, so every name
        // is validated against the already-registered set (identical
        // across save/restore because construction registers them and
        // the digest pins config + policy).
        std::set<std::string> knownCounters;
        for (const obs::CounterSample &c : registry.counters())
            knownCounters.insert(c.name);
        std::set<std::pair<std::string, std::string>> knownGauges;
        for (const obs::GaugeSample &g : registry.gauges())
            knownGauges.emplace(g.name, g.unit);
        for (const obs::CounterSample &c : counters) {
            if (knownCounters.find(c.name) == knownCounters.end())
                badField("counter table",
                         "unknown counter '" + c.name + "'");
            obs::Counter &counter = registry.counter(c.name);
            counter.reset();
            counter.inc(c.value);
        }
        for (const obs::GaugeSample &g : gauges) {
            if (knownGauges.find({g.name, g.unit}) == knownGauges.end())
                badField("gauge table", "no gauge '" + g.name +
                                            "' registered in unit '" +
                                            g.unit + "'");
            registry.gauge(g.name).set(g.value);
        }
    }
}

template <class Ar, class Sim>
void
CkptAccess::obs(Ar &ar, Sim &sim)
{
    registry(ar, sim.obsRegistry_);
    std::uint64_t grid = sim.sampler_.nextGridIndex();
    ar.u64(grid);
    if constexpr (Ar::kLoading)
        sim.sampler_.resumeAt(grid);
    obs::TraceCkptAccess::transfer(ar, sim.trace_);
}

// --- FAULT: timeline cursor, log, sensor/offline/ladder state ---------

template <class Ar, class Sim>
void
CkptAccess::fault(Ar &ar, Sim &sim)
{
    const std::size_t n = sim.topo_.numSockets();
    bool enabled = sim.faultsEnabled_;
    ar.boolean(enabled);
    ar.require(enabled == sim.faultsEnabled_, "fault section",
               "fault arming disagrees with this configuration");
    ar.index(sim.nextFaultEvent_, sim.faultTimeline_.events().size() + 1,
             "fault timeline cursor");
    ar.seq(sim.faultLog_, 21, "fault log", [&](auto &e) {
        ar.f64(e.timeS);
        ar.u8(e.kind, FaultKind::JobRequeue, "fault log kind");
        ar.u32(e.socket);
        ar.f64(e.value);
    });
    ar.finite(sim.fanPowerW_, "fan power");
    ar.boolean(sim.couplingDerated_);
    ar.u64(sim.couplingEpoch_);

    auto &fs = sim.faultState_;
    ar.bytes(fs.sensorMode_, n, SensorMode::Dropout, "sensorMode");
    ar.f64s(fs.stuckAmbientC_, n, "stuckAmbientC");
    ar.f64s(fs.stuckChipC_, n, "stuckChipC");
    ar.f64s(fs.noiseSigmaC_, n, "noiseSigmaC");
    ar.f64s(fs.lastGoodAmbientC_, n, "lastGoodAmbientC");
    ar.bytes(fs.offline_, n, 2, "offline");
    ar.u64(fs.offlineCount_);
    ar.require(fs.offlineCount_ ==
                   static_cast<std::size_t>(std::count_if(
                       fs.offline_.begin(), fs.offline_.end(),
                       [](std::uint8_t o) { return o != 0; })),
               "offline count", "disagrees with the sockets marked");
    ar.bytes(fs.escStage_, n, 1, "escStage");
    ar.f64s(fs.overTripSinceS_, n, "overTripSinceS");
    ar.f64(fs.flowFrac_);
    ar.require(std::isfinite(fs.flowFrac_) && fs.flowFrac_ > 0.0 &&
                   fs.flowFrac_ <= 1.0,
               "fan flow fraction", "outside (0, 1]");
    ar.require(sim.couplingDerated_ == (fs.flowFrac_ != 1.0),
               "fan flow fraction",
               "disagrees with the coupling-derated flag");
}

// --- FLEET core: window, dispatcher cursor, committed arrivals --------

template <class Ar, class Fleet>
void
CkptAccess::fleetCore(Ar &ar, Fleet &fleet)
{
    const std::size_t n = fleet.shards_.size();
    ar.length(n, "fleet chassis count");
    ar.u64(fleet.window_);
    ar.boolean(fleet.arrivalsOpen_);
    std::uint64_t cursor = fleet.dispatcher_->cursor();
    ar.u64(cursor);
    if constexpr (Ar::kLoading)
        fleet.dispatcher_->setCursor(cursor);
    // A stateless dispatcher keeps no cursor: a nonzero one must fail
    // here rather than vanish from the next save.
    ar.require(fleet.dispatcher_->cursor() == cursor, "dispatcher cursor",
               "this dispatcher keeps no such cursor");
    auto &arrivals = *fleet.arrivals_;
    ar.rng(arrivals.rng_, "arrival rng");
    ar.finite(arrivals.clockS_, "arrival clock");
    ar.u64(arrivals.nextId_);
    ar.boolean(arrivals.hasPending_);
    ar.job(arrivals.pending_, "arrival lookahead");
    ar.u64(fleet.metrics_.jobsArrived);
    ar.u64(fleet.metrics_.jobsDispatched);
    ar.each(fleet.metrics_.dispatchedPerShard, n, "dispatch counts",
            [&](auto &d) { ar.u64(d); });
    registry(ar, fleet.registry_);
}

// --- engine save / restore --------------------------------------------

CkptAccess::EngineImage
CkptAccess::saveSections(const DenseServerSim &sim)
{
    if (!sim.streamOpen_)
        fatal("ckpt: cannot checkpoint a closed run (beginRun?)");
    EngineImage image;
    Saver ar;
    const auto &table = kEngineSections<Saver, const DenseServerSim>;
    for (std::size_t i = 0; i < table.size(); ++i) {
        table[i].transfer(ar, sim);
        image[i] = ar.take();
    }
    return image;
}

void
CkptAccess::finalizeRestore(DenseServerSim &sim)
{
    const std::size_t n = sim.topo_.numSockets();

    // The saved run was under a fan derate: rebuild the derated
    // coupling operator as applyFanFlowFraction does, but without
    // retargeting — ambTargets_ and couplingEpoch_ were restored
    // verbatim.
    if (sim.couplingDerated_)
        sim.coupling_ = sim.deratedCoupling(sim.faultState_.flowFrac());

    // The completion list stays empty (resetState): at an epoch
    // boundary it holds nothing, and the next powerManage lists the
    // epoch's completions before anything reads it.
    std::size_t busy = 0;
    for (std::size_t s = 0; s < n; ++s)
        busy += sim.busyFlag_[s] ? 1 : 0;

    // Post-restore audit (always on, CkptError not assertion — these
    // double as the last line of hostile-input validation).
    if (busy != static_cast<std::size_t>(sim.sums_.busyTotal))
        badField("restored state",
                 std::to_string(busy) + " busy flags vs busyTotal " +
                     std::to_string(sim.sums_.busyTotal));
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

    if (!sim.config_.obsTracePath.empty())
        sim.enableTrace();

    sim.streamOpen_ = true;
    // Debug-build invariants on top of the audits above.
    sim.checkEpochInvariants();
}

void
CkptAccess::loadSections(DenseServerSim &sim, const EngineImage &image,
                         RestoreMode mode, std::uint64_t fork_id)
{
    // A failed earlier fleet restore can leave a shard open; reset
    // handles either state (the public restore functions hold the
    // user-facing open-run guards).
    sim.streamOpen_ = false;
    sim.resetState();
    const auto &table = kEngineSections<Loader, DenseServerSim>;
    for (std::size_t i = 0; i < table.size(); ++i) {
        Loader ar(image[i]);
        table[i].transfer(ar, sim);
        ar.expectEnd(table[i].name);
    }
    if (mode == RestoreMode::Fork) {
        // Identical state, divergent future: every stream reseeded
        // through the avalanched domain-separation chain.
        sim.policyRng_ = Rng(domainSeed(sim.config_.seed, fork_id,
                                        ckpt::ckpt_stream::kForkPolicy));
        sim.sensorRng_ = Rng(domainSeed(sim.config_.seed, fork_id,
                                        ckpt::ckpt_stream::kForkSensor));
        sim.faultRng_ = Rng(domainSeed(
            sim.config_.fault.effectiveSeed(sim.config_.seed), fork_id,
            ckpt::ckpt_stream::kForkFault));
    }
    finalizeRestore(sim);
}

std::string
CkptAccess::saveEngineFile(const DenseServerSim &sim)
{
    EngineImage image = saveSections(sim);
    const auto &table = kEngineSections<Saver, const DenseServerSim>;
    std::vector<std::pair<std::uint32_t, std::string>> sections;
    for (std::size_t i = 0; i < table.size(); ++i)
        sections.emplace_back(table[i].id, std::move(image[i]));
    return buildFile(SnapshotKind::Engine,
                     ckpt::stateDigest(sim.policy_->name(), sim.config_),
                     sections);
}

void
CkptAccess::restoreEngineFile(DenseServerSim &sim,
                              std::string_view image, RestoreMode mode,
                              std::uint64_t fork_id)
{
    if (sim.streamOpen_)
        fatal("ckpt: restore into an open run — finishRun() first "
              "(double restore?)");
    const auto sections =
        parseFile(image, SnapshotKind::Engine,
                  ckpt::stateDigest(sim.policy_->name(), sim.config_));
    const auto &table = kEngineSections<Loader, DenseServerSim>;
    if (sections.size() != table.size())
        throw CkptError("checkpoint: engine file has " +
                        std::to_string(sections.size()) +
                        " sections, expected " +
                        std::to_string(table.size()));
    EngineImage payloads;
    for (std::size_t i = 0; i < table.size(); ++i)
        payloads[i] = section(sections, table[i].id);
    loadSections(sim, payloads, mode, fork_id);
}

// --- fleet ------------------------------------------------------------

std::string
CkptAccess::saveFleetFile(const FleetSim &fleet)
{
    if (!fleet.fleetOpen_)
        fatal("ckpt: cannot checkpoint a closed fleet run "
              "(beginRun?)");
    std::vector<std::pair<std::uint32_t, std::string>> sections;
    Saver ar;
    fleetCore(ar, fleet);
    sections.emplace_back(kSecFleet, ar.take());
    for (std::size_t s = 0; s < fleet.shards_.size(); ++s) {
        for (const std::string &payload :
             saveSections(*fleet.shards_[s]))
            ar.str(payload);
        sections.emplace_back(
            kSecShardBase + static_cast<std::uint32_t>(s), ar.take());
    }
    return buildFile(
        SnapshotKind::Fleet,
        ckpt::stateDigest(fleet.shards_.front()->policy_->name(),
                          fleet.base_),
        sections);
}

void
CkptAccess::restoreFleetFile(FleetSim &fleet, std::string_view image,
                             RestoreMode mode, std::uint64_t fork_id)
{
    if (fleet.fleetOpen_)
        fatal("ckpt: restore into an open fleet run — finishRun() "
              "first (double restore?)");
    const std::size_t n = fleet.shards_.size();
    const auto sections = parseFile(
        image, SnapshotKind::Fleet,
        ckpt::stateDigest(fleet.shards_.front()->policy_->name(),
                          fleet.base_));
    if (sections.size() != n + 1)
        throw CkptError("checkpoint: fleet file has " +
                        std::to_string(sections.size()) +
                        " sections, expected " +
                        std::to_string(n + 1));
    const std::string &core = section(sections, kSecFleet);
    for (std::size_t s = 0; s < n; ++s)
        section(sections,
                kSecShardBase + static_cast<std::uint32_t>(s));

    // Baseline: every field overwritten below is first put in the
    // exact state beginRun() would leave it in, arrival lookahead
    // dropped, so a restore that throws leaves a closed, fully
    // reusable fleet and a restored one draws its next window from
    // the restored stream.
    fleet.resetRun();

    Loader ar(core);
    fleetCore(ar, fleet);
    ar.expectEnd("fleet");
    if (mode == RestoreMode::Fork)
        fleet.arrivals_->rng_ =
            Rng(domainSeed(fleet.fleetSeed_, fork_id,
                           ckpt::ckpt_stream::kForkArrivals));

    for (std::size_t s = 0; s < n; ++s) {
        Reader shard(section(
            sections, kSecShardBase + static_cast<std::uint32_t>(s)));
        EngineImage payloads;
        for (std::string &payload : payloads)
            payload = shard.str();
        shard.expectEnd("shard");
        loadSections(*fleet.shards_[s], payloads, mode, fork_id);
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
    return CkptAccess::saveEngineFile(sim);
}

void
restoreEngine(DenseServerSim &sim, std::string_view image,
              RestoreMode mode, std::uint64_t fork_id)
{
    CkptAccess::restoreEngineFile(sim, image, mode, fork_id);
}

std::string
saveFleet(const FleetSim &fleet)
{
    return CkptAccess::saveFleetFile(fleet);
}

void
restoreFleet(FleetSim &fleet, std::string_view image,
             RestoreMode mode, std::uint64_t fork_id)
{
    CkptAccess::restoreFleetFile(fleet, image, mode, fork_id);
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
