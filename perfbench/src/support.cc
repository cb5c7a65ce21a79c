#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hh"

namespace perfbench {

namespace {

Ns
readClock(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<Ns>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void
putDouble(std::string &out, const char *key, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s=%a;", key, v);
    out += buf;
}

void
putCount(std::string &out, const char *key, std::uint64_t v)
{
    out += key;
    out += '=';
    out += std::to_string(v);
    out += ';';
}

void
putStats(std::string &out, const char *key,
         const densim::RunningStats &s)
{
    out += key;
    out += '{';
    putCount(out, "n", s.count());
    putDouble(out, "mean", s.mean());
    putDouble(out, "var", s.variance());
    putDouble(out, "min", s.min());
    putDouble(out, "max", s.max());
    out += '}';
}

void
putRegion(std::string &out, const char *key,
          const densim::RegionMetrics &r)
{
    out += key;
    out += '{';
    putDouble(out, "busy", r.busyTimeS);
    putDouble(out, "freq", r.freqTime);
    putDouble(out, "work", r.workDone);
    out += '}';
}

volatile double gProbeSink = 0.0;

/** A fixed integer/FP loop; its time tracks the vCPU's speed. */
double
speedProbeMs()
{
    const Ns t0 = wallNs();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 8'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += static_cast<double>(x & 0xffu) * 1e-9;
    }
    gProbeSink = acc;
    return static_cast<double>(wallNs() - t0) * 1e-6;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(std::min(colon + 2, line.size()));
        }
    }
    return "unknown";
}

} // namespace

Ns
wallNs()
{
    return readClock(CLOCK_MONOTONIC);
}

Ns
processCpuNs()
{
    return readClock(CLOCK_PROCESS_CPUTIME_ID);
}

Ns
threadCpuNs()
{
    return readClock(CLOCK_THREAD_CPUTIME_ID);
}

CpuRotation::CpuRotation()
{
    CPU_ZERO(&initial_);
    if (sched_getaffinity(0, sizeof initial_, &initial_) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &initial_))
            cpus_.push_back(c);
    }
    if (cpus_.empty())
        throw std::runtime_error("no CPU in the affinity mask");
}

CpuRotation::~CpuRotation()
{
    unpin();
}

void
CpuRotation::pin(std::size_t k)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu(k), &one);
    sched_setaffinity(0, sizeof one, &one);
}

void
CpuRotation::unpin()
{
    sched_setaffinity(0, sizeof initial_, &initial_);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double
minimum(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool
BlockMin::add(const BlockTimes &rep)
{
    if (reps_ == 0) {
        min_ = rep;
    } else {
        if (rep.wallNs.size() != min_.wallNs.size())
            return false;
        for (std::size_t b = 0; b < rep.wallNs.size(); ++b) {
            min_.wallNs[b] = std::min(min_.wallNs[b], rep.wallNs[b]);
            min_.cpuNs[b] = std::min(min_.cpuNs[b], rep.cpuNs[b]);
        }
    }
    ++reps_;
    return true;
}

double
BlockMin::wallNs() const
{
    double sum = 0.0;
    for (double t : min_.wallNs)
        sum += t;
    return sum;
}

double
BlockMin::cpuNs() const
{
    double sum = 0.0;
    for (double t : min_.cpuNs)
        sum += t;
    return sum;
}

std::uint32_t
Tracer::open(const char *name)
{
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back({name, parent, run_, wallNs(), 0});
    const auto id = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
}

void
Tracer::close(std::uint32_t span)
{
    spans_[span - 1].end = wallNs();
    stack_.pop_back();
}

std::vector<double>
Tracer::durations(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (std::strcmp(s.name, name) == 0)
            out.push_back(static_cast<double>(s.end - s.start));
    }
    return out;
}

std::vector<Tracer::Totals>
Tracer::totals() const
{
    std::vector<double> childNs(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent != 0)
            childNs[s.parent - 1] += static_cast<double>(s.end - s.start);
    }
    std::vector<Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto it = std::find_if(out.begin(), out.end(), [&](const Totals &t) {
            return std::strcmp(t.name, s.name) == 0;
        });
        if (it == out.end()) {
            out.push_back({s.name, 0, 0.0, 0.0});
            it = out.end() - 1;
        }
        const auto dur = static_cast<double>(s.end - s.start);
        ++it->calls;
        it->totalNs += dur;
        it->selfNs += dur - childNs[i];
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id,parent,run,name,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu,%u,%u,%s,%lld,%lld\n", i + 1, s.parent,
                     s.run, s.name, static_cast<long long>(s.start),
                     static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::expectSame(const std::string &check, const std::string &want,
                   const std::string &got)
{
    if (want == got)
        return;
    ++failed;
    std::fprintf(stderr, "perfbench: output check '%s' failed: "
                         "digests differ\n",
                 check.c_str());
}

densim::SimConfig
makeConfig(const WorkloadSpec &spec, const Options &opt)
{
    densim::SimConfig c;
    c.workload = densim::WorkloadSet::Computation;
    c.load = spec.load;
    c.simTimeS = opt.horizonS > 0.0 ? opt.horizonS : spec.horizonS;
    c.warmupS = std::min(0.2, c.simTimeS / 4.0);
    // Job durations reach 300x their application mean (2.7 s nominal
    // for this set), longer still on a throttled socket: drain for 10 s
    // past the arrival window so no seed leaves a job unfinished.
    c.drainFactor = 1.0 + 10.0 / c.simTimeS;
    c.socketTauS = 3.0;
    c.warmStart = true;
    c.seed = opt.seed;
    if (spec.chassis > 0) {
        c.fleet.chassis = spec.chassis;
        c.fleet.dispatcher =
            opt.dispatcher.empty() ? "roundrobin" : opt.dispatcher;
    }
    return c;
}

std::string
backlogProblem(std::size_t unfinished, double expansion)
{
    char buf[200];
    if (unfinished > 0) {
        std::snprintf(buf, sizeof buf,
                      "%zu jobs unfinished at the drain limit",
                      unfinished);
        return buf;
    }
    if (!(expansion <= kMaxRuntimeExpansion)) {
        std::snprintf(buf, sizeof buf,
                      "mean runtime expansion %.3g exceeds %.3g: the "
                      "queue is growing",
                      expansion, kMaxRuntimeExpansion);
        return buf;
    }
    return "";
}

std::string
digest(const densim::SimMetrics &m)
{
    std::string out;
    putCount(out, "arrived", m.jobsArrived);
    putCount(out, "completed", m.jobsCompleted);
    putCount(out, "unfinished", m.jobsUnfinished);
    putCount(out, "migrations", m.migrations);
    putStats(out, "runtimeExpansion", m.runtimeExpansion);
    putStats(out, "serviceExpansion", m.serviceExpansion);
    putStats(out, "queueDelayS", m.queueDelayS);
    putDouble(out, "energyJ", m.energyJ);
    putDouble(out, "measuredS", m.measuredS);
    putDouble(out, "makespanS", m.makespanS);
    putRegion(out, "front", m.front);
    putRegion(out, "back", m.back);
    putRegion(out, "even", m.even);
    putDouble(out, "totalWork", m.totalWork);
    putDouble(out, "totalBusyTime", m.totalBusyTime);
    putDouble(out, "totalFreqTime", m.totalFreqTime);
    putStats(out, "chipTempC", m.chipTempC);
    putDouble(out, "maxChipTempC", m.maxChipTempC);
    putDouble(out, "boostTimeS", m.boostTimeS);
    for (double t : m.timelineS)
        putDouble(out, "timeline", t);
    for (const auto &row : m.zoneAmbientC) {
        for (double v : row)
            putDouble(out, "zone", v);
    }
    return out;
}

namespace {

/** @p name without a leading "shard<N>/" namespace. */
std::string
unsharded(const std::string &name)
{
    if (name.rfind("shard", 0) != 0)
        return name;
    const auto slash = name.find('/');
    return slash == std::string::npos ? name : name.substr(slash + 1);
}

} // namespace

double
counterSum(const Counters &counters, const std::string &name)
{
    double sum = 0.0;
    bool found = false;
    for (const auto &c : counters) {
        if (unsharded(c.name) == name) {
            sum += static_cast<double>(c.value);
            found = true;
        }
    }
    return found ? sum : -1.0;
}

void
printCounters(const Counters &counters)
{
    std::vector<std::pair<std::string, double>> rows;
    for (const auto &c : counters) {
        const std::string name = unsharded(c.name);
        auto it = std::find_if(rows.begin(), rows.end(),
                               [&](const auto &r) { return r.first == name; });
        if (it == rows.end())
            rows.emplace_back(name, static_cast<double>(c.value));
        else
            it->second += static_cast<double>(c.value);
    }
    std::printf("counters (one repetition, summed over shards):\n");
    for (const auto &[name, value] : rows)
        std::printf("  %-32s %.0f\n", name.c_str(), value);
}

void
printRetiringRates(const Counters &counters, double epochs)
{
    const double hits = counterSum(counters, "dvfs.memoHits");
    const double misses = counterSum(counters, "dvfs.memoMisses");
    if (hits >= 0.0 && misses >= 0.0 && hits + misses > 0.0)
        std::printf("power.dvfs_memo_hit_rate: %.4f\n",
                    hits / (hits + misses));
    const double deltas =
        counterSum(counters, "thermal.ambientDeltaUpdates");
    if (deltas >= 0.0)
        std::printf("thermal.delta_updates_per_epoch: %.2f\n",
                    perEpoch(deltas, epochs));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

void
printHost(CpuRotation &cpus, const char *when)
{
    if (std::strcmp(when, "start") == 0) {
        std::printf("host: nproc=%ld allowed_cpus=%zu fleet_workers=%u "
                    "cpu_model=\"%s\"\n",
                    sysconf(_SC_NPROCESSORS_ONLN), cpus.size(),
                    kFleetWorkers, cpuModel().c_str());
    }
    std::printf("host: speed probe at %s, ms per vCPU:", when);
    for (std::size_t k = 0; k < cpus.size(); ++k) {
        cpus.pin(k);
        std::printf(" cpu%d=%.2f", cpus.cpu(k), speedProbeMs());
    }
    cpus.unpin();
    std::printf("\n");
}

void
reportSpans(const Tracer &tracer, const Options &opt)
{
    const auto totals = tracer.totals();
    double all = 0.0;
    for (const auto &t : totals)
        all += t.selfNs;
    std::printf("spans (traced repetitions; self = span minus its "
                "child spans):\n");
    std::printf("  %-14s %10s %12s %12s %7s\n", "span", "calls",
                "total_ms", "self_ms", "self%");
    for (const auto &t : totals) {
        std::printf("  %-14s %10zu %12.3f %12.3f %7.2f\n", t.name,
                    t.calls, t.totalNs * 1e-6, t.selfNs * 1e-6,
                    all > 0.0 ? 100.0 * t.selfNs / all : 0.0);
    }
    if (!opt.spansPath.empty()) {
        if (tracer.write(opt.spansPath))
            std::printf("spans: %zu written to %s\n",
                        tracer.spans().size(), opt.spansPath.c_str());
        else
            std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                         opt.spansPath.c_str());
    }
}

} // namespace perfbench
