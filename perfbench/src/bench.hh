/**
 * @file
 * Shared pieces of the densim benchmark: host clocks and vCPU
 * rotation, the per-block-minimum estimator, in-memory spans, and the
 * report every workload fills in.
 *
 * Host timing model. A vCPU of a shared KVM guest swings between fast
 * and slow for seconds at a time, so one wall-clock pass of a workload
 * is a poor estimate of its cost. Every workload therefore repeats its
 * horizon in-process on a fresh engine, cuts each repetition into fixed
 * blocks of simulated time, and reports the sum over blocks of each
 * block's minimum across repetitions. The single-chassis workloads move
 * the benchmark thread to the next vCPU before every repetition so each
 * block is sampled on every vCPU; the fleet is left unpinned because
 * its workers inherit the caller's CPU mask. Each repetition also
 * samples one set-up (reported as the median) and a few checkpoint
 * round trips (reported as the minimum, which measured steadier than
 * the median across runs at these sample counts).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sched.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "core/sim_config.hh"
#include "obs/registry.hh"

namespace perfbench {

using Ns = std::int64_t;

Ns wallNs();       //!< CLOCK_MONOTONIC.
Ns processCpuNs(); //!< CPU of every thread of the process, ended ones too.
Ns threadCpuNs();  //!< CPU of the calling thread.

/** The CPUs this process may use; pins the calling thread to one. */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    std::size_t size() const { return cpus_.size(); }
    int cpu(std::size_t k) const { return cpus_[k % cpus_.size()]; }

    /** Pin the calling thread to the k-th allowed CPU (modulo). */
    void pin(std::size_t k);
    /** Give the calling thread its initial mask back. */
    void unpin();

  private:
    cpu_set_t initial_;
    std::vector<int> cpus_;
};

double median(std::vector<double> v);
double minimum(const std::vector<double> &v);
/** Nearest-rank percentile, @p q in [0, 1]. */
double percentile(std::vector<double> v, double q);

/** Times of one repetition, one entry per block. */
struct BlockTimes
{
    std::vector<double> wallNs;
    std::vector<double> cpuNs; //!< Process CPU.
};

/** Sum over blocks of each block's minimum across repetitions. */
class BlockMin
{
  public:
    /** Fold one repetition in; false if its block count differs. */
    bool add(const BlockTimes &rep);
    double wallNs() const;
    double cpuNs() const;
    std::size_t reps() const { return reps_; }

  private:
    BlockTimes min_;
    std::size_t reps_ = 0;
};

/** One traced call: name, interval, parent span and run. */
struct Span
{
    const char *name;
    std::uint32_t parent; //!< Index + 1 of the parent span, 0 = root.
    std::uint32_t run;
    Ns start;
    Ns end;
};

/**
 * In-memory span recorder. Spans nest by call order on one thread;
 * they are written out once, after the run.
 */
class Tracer
{
  public:
    /** Start a new run ID (one per traced repetition). */
    void newRun() { ++run_; }
    std::uint32_t open(const char *name);
    void close(std::uint32_t span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ns) of every span named @p name. */
    std::vector<double> durations(const char *name) const;

    /** Total and self time (ns) per span name, in first-seen order. */
    struct Totals
    {
        const char *name;
        std::size_t calls;
        double totalNs;
        double selfNs;
    };
    std::vector<Totals> totals() const;

    /** Write every span as CSV to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
    std::uint32_t run_ = 0;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::uint32_t id_;
};

/** One of the seeded workloads. */
struct WorkloadSpec
{
    const char *name;
    const char *scheduler;
    double load;
    double horizonS;     //!< Arrival window (simTimeS).
    std::size_t chassis; //!< 0 = one DenseServerSim.
};

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    // Self-test hooks (perfbench/run.py --selftest).
    double horizonS = 0.0;   //!< Override the workload horizon.
    std::string perturb;     //!< Output check to feed a perturbed digest.
    std::string dispatcher;  //!< Override the fleet dispatcher.
    std::string spansPath;   //!< Where the traced run writes its spans.
};

/** What a run prints: metrics, operation counts, check outcomes. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const std::string &name, double value,
             const std::string &unit);

    /**
     * Output check @p check: @p got must equal @p want. A mismatch is
     * a failed operation.
     */
    void expectSame(const std::string &check, const std::string &want,
                    const std::string &got);
};

/** Checkpoint round trips per repetition, back to back. */
inline constexpr std::size_t kTrips = 3;

/** Refuse runs whose mean runtime expansion shows a growing queue. */
inline constexpr double kMaxRuntimeExpansion = 1.5;
/** Worker threads of the fleet workload. */
inline constexpr unsigned kFleetWorkers = 4;
/** Simulated epochs per timing block of the single-chassis drive. */
inline constexpr std::size_t kBlockEpochs = 50;

/** The workload's SimConfig for @p opt (seed, horizon overrides). */
densim::SimConfig makeConfig(const WorkloadSpec &spec,
                             const Options &opt);

/**
 * Backlog guard: an empty string when @p unfinished and the mean
 * runtime expansion are acceptable, else why timing is refused.
 */
std::string backlogProblem(std::size_t unfinished, double expansion);

/**
 * Full-precision (hex-float) rendering of every SimMetrics field,
 * built here rather than from metricsToJson, which rounds doubles.
 */
std::string digest(const densim::SimMetrics &m);

/**
 * @p m with energyJ moved by one ulp when @p opt.perturb names
 * @p check: the self-test's proof that each output check catches a
 * last-bit difference.
 */
template <class Metrics>
Metrics
perturbFor(Metrics m, const Options &opt, const char *check)
{
    if (opt.perturb == check)
        m.energyJ = std::nextafter(m.energyJ, m.energyJ + 1.0);
    return m;
}

using Counters = std::vector<densim::obs::CounterSample>;

/**
 * Counter @p name summed over its plain and every "<shard>/" form;
 * -1 when the program registers no such counter.
 */
double counterSum(const Counters &counters, const std::string &name);

/** @p count per epoch; 0 when the counter is absent. */
inline double
perEpoch(double count, double epochs)
{
    return count < 0.0 || epochs <= 0.0 ? 0.0 : count / epochs;
}

/** Print every counter, summed over shard namespaces. */
void printCounters(const Counters &counters);

/**
 * Print the DVFS memo hit rate and the incremental thermal updates per
 * epoch while their counters exist. They are not metrics: both
 * mechanisms are slated for removal, and a metric must exist in every
 * run.
 */
void printRetiringRates(const Counters &counters, double epochs);

/** Peak resident set size of the process, MB. */
double peakRssMb();

/** Minor page faults of the process so far. */
long minorFaults();

/** nproc, CPU model and a fixed speed-probe loop on every vCPU. */
void printHost(CpuRotation &cpus, const char *when);

/** Per-layer probes on state shaped like the workload. */
void probeLayers(const densim::SimConfig &config,
                 const std::string &scheduler, CpuRotation &cpus,
                 Report &report);

void runChassis(const WorkloadSpec &spec, const Options &opt,
                CpuRotation &cpus, Report &report);
void runFleet(const WorkloadSpec &spec, const Options &opt,
              CpuRotation &cpus, Report &report);

/** Print the span self-time table and write the spans out. */
void reportSpans(const Tracer &tracer, const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
