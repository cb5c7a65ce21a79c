/**
 * @file
 * Single-chassis workloads (cp_load70, cf_load30): one DenseServerSim
 * driven through its streaming API, block by block.
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "ckpt/checkpoint.hh"
#include "core/dense_server_sim.hh"
#include "sched/factory.hh"
#include "workload/job_generator.hh"

namespace perfbench {

namespace {

using densim::DenseServerSim;
using densim::SimConfig;
using densim::SimMetrics;

constexpr std::size_t kMinReps = 3;

/**
 * One engine fed by the benchmark's own JobGenerator, one block of
 * kBlockEpochs epochs per step(). Each step submits the arrivals of
 * the block after the current one too, so no arrival near a block
 * boundary can reach the engine late; the arrival stream is the one
 * DenseServerSim::run() generates, so the result equals a one-shot
 * run (an output check).
 */
class ChassisDrive
{
  public:
    ChassisDrive(const SimConfig &config, const std::string &scheduler,
                 Tracer *tracer)
        : config_(config), tracer_(tracer)
    {
        ScopedSpan span(tracer_, "construct");
        sim_ = std::make_unique<DenseServerSim>(
            config, densim::makeScheduler(scheduler));
    }

    void
    begin()
    {
        {
            ScopedSpan span(tracer_, "beginRun");
            sim_->beginRun();
        }
        resetStream();
    }

    /** Run one block; false once the run has no pending work. */
    bool
    step()
    {
        if (!closed_) {
            const double blockS =
                static_cast<double>(kBlockEpochs) * config_.pmEpochS;
            const double horizon =
                std::min(static_cast<double>(block_ + 2) * blockS,
                         config_.simTimeS);
            std::vector<densim::Job> jobs;
            {
                ScopedSpan span(tracer_, "nextWindow");
                jobs = gen_->nextWindow(horizon);
            }
            {
                ScopedSpan span(tracer_, "submitJobs");
                sim_->submitJobs(jobs);
            }
            submitted_ += jobs.size();
            if (horizon >= config_.simTimeS) {
                sim_->closeArrivals();
                closed_ = true;
            }
        }
        for (std::size_t e = 0;
             e < kBlockEpochs && sim_->epochPending(); ++e) {
            ScopedSpan span(tracer_, "advanceEpoch");
            sim_->advanceEpoch();
            ++epochs_;
        }
        ++block_;
        return sim_->epochPending();
    }

    SimMetrics
    finish()
    {
        ScopedSpan span(tracer_, "finishRun");
        return sim_->finishRun();
    }

    /** Close a restored run without finishing the drive. */
    void close() { sim_->finishRun(); }

    /**
     * Restore @p image (saved from @p open) into this closed engine
     * and take over @p open's arrival stream position.
     */
    void
    restoreFrom(const ChassisDrive &open, const std::string &image,
                Tracer *tracer)
    {
        {
            ScopedSpan span(tracer, "restoreEngine");
            densim::ckpt::restoreEngine(*sim_, image);
        }
        gen_ = open.gen_;
        block_ = open.block_;
        closed_ = open.closed_;
        submitted_ = open.submitted_;
        epochs_ = open.epochs_;
    }

    std::string
    save(Tracer *tracer) const
    {
        ScopedSpan span(tracer, "saveEngine");
        return densim::ckpt::saveEngine(*sim_);
    }

    const DenseServerSim &sim() const { return *sim_; }
    std::uint64_t submitted() const { return submitted_; }
    std::uint64_t epochs() const { return epochs_; }

  private:
    void
    resetStream()
    {
        gen_.emplace(config_.workload, config_.load,
                     static_cast<int>(sim_->topology().numSockets()),
                     config_.seed);
        block_ = 0;
        closed_ = false;
        submitted_ = 0;
        epochs_ = 0;
    }

    SimConfig config_;
    Tracer *tracer_;
    std::unique_ptr<DenseServerSim> sim_;
    std::optional<densim::JobGenerator> gen_;
    std::size_t block_ = 0;
    bool closed_ = false;
    std::uint64_t submitted_ = 0;
    std::uint64_t epochs_ = 0;
};

/** What one timed repetition leaves behind besides its times. */
struct RepResult
{
    double setupNs = 0.0; //!< Construction plus beginRun.
    SimMetrics metrics;
    std::uint64_t jobs = 0;
    std::uint64_t epochs = 0;
    std::size_t decisions = 0;
    Counters counters;
};

/** One repetition on a fresh engine; set-up is timed on its own. */
RepResult
timedRep(const SimConfig &config, const std::string &scheduler,
         Tracer *tracer, BlockTimes &times)
{
    ScopedSpan rep(tracer, "rep");
    RepResult out;
    const Ns s0 = wallNs();
    ChassisDrive drive(config, scheduler, tracer);
    drive.begin();
    out.setupNs = static_cast<double>(wallNs() - s0);
    bool more = true;
    while (more) {
        const Ns w0 = wallNs();
        const Ns c0 = processCpuNs();
        more = drive.step();
        if (!more)
            out.metrics = drive.finish();
        times.wallNs.push_back(static_cast<double>(wallNs() - w0));
        times.cpuNs.push_back(static_cast<double>(processCpuNs() - c0));
    }
    out.jobs = drive.submitted();
    out.epochs = drive.epochs();
    out.decisions = drive.sim().decisions();
    out.counters = drive.sim().observability().counters();
    return out;
}

} // namespace

void
runChassis(const WorkloadSpec &spec, const Options &opt,
           CpuRotation &cpus, Report &report)
{
    const SimConfig config = makeConfig(spec, opt);
    const std::string scheduler = spec.scheduler;
    Tracer tracer;
    Tracer *traced = opt.trace ? &tracer : nullptr;

    // The one-shot reference run, and the backlog guard on it.
    SimMetrics reference;
    {
        DenseServerSim oneShot(config, densim::makeScheduler(scheduler));
        reference = oneShot.run();
    }
    const std::string problem = backlogProblem(
        reference.jobsUnfinished, reference.runtimeExpansion.mean());
    if (!problem.empty())
        throw std::runtime_error(std::string("backlog guard: refusing "
                                             "to time ") +
                                 spec.name + ": " + problem);
    const std::string referenceDigest = digest(reference);

    // The checkpoint pair: a run left open at mid-horizon, and an
    // already-built closed engine to restore it into.
    ChassisDrive open(config, scheduler, nullptr);
    open.begin();
    while (open.sim().nowS() < config.simTimeS / 2.0 && open.step()) {
    }
    ChassisDrive resumed(config, scheduler, nullptr);

    // Timed repetitions, each on the next vCPU, each followed by
    // kTrips checkpoint round trips there; set-up and round trips are
    // thus sampled across the whole run. A traced run alternates
    // untraced and traced repetitions so both estimates see the same
    // host.
    BlockMin plain;
    BlockMin withSpans;
    std::vector<double> repWallNs, setupNs;
    std::vector<double> saveNs, restoreNs, roundTripNs;
    std::size_t imageBytes = 0;
    RepResult first;
    std::uint64_t tracedJobs = 0;
    const long faults0 = minorFaults();
    const Ns deadline =
        wallNs() + static_cast<Ns>(opt.seconds * 1e9);
    for (std::size_t r = 0; r < kMinReps || wallNs() < deadline; ++r) {
        const bool tracedRep = traced != nullptr && r % 2 == 1;
        Tracer *repTracer = tracedRep ? traced : nullptr;
        if (tracedRep)
            tracer.newRun();
        cpus.pin(r);
        BlockTimes times;
        RepResult rep = timedRep(config, scheduler, repTracer, times);
        report.attempted += rep.jobs;
        report.failed += rep.metrics.jobsUnfinished;
        double wall = 0.0;
        for (double t : times.wallNs)
            wall += t;
        repWallNs.push_back(wall);
        setupNs.push_back(rep.setupNs);
        if (r == 0) {
            report.expectSame(
                "oneshot", referenceDigest,
                digest(perturbFor(rep.metrics, opt, "oneshot")));
            first = std::move(rep);
        } else {
            report.expectSame(
                "repeat", digest(first.metrics),
                digest(perturbFor(rep.metrics, opt, "repeat")));
            if (tracedRep)
                tracedJobs += rep.jobs;
        }
        if (!(tracedRep ? withSpans : plain).add(times))
            report.expectSame("repeat", "same block count",
                              "different block count");

        for (std::size_t k = 0; k < kTrips; ++k) {
            if (r > 0 || k > 0)
                resumed.close();
            const Ns t0 = wallNs();
            const std::string image = open.save(repTracer);
            const Ns t1 = wallNs();
            resumed.restoreFrom(open, image, repTracer);
            const Ns t2 = wallNs();
            saveNs.push_back(static_cast<double>(t1 - t0));
            restoreNs.push_back(static_cast<double>(t2 - t1));
            roundTripNs.push_back(static_cast<double>(t2 - t0));
            imageBytes = image.size();
        }
    }
    cpus.unpin();
    const double rssMb = peakRssMb();
    const double faultsPerRep = static_cast<double>(minorFaults() - faults0) /
                                static_cast<double>(repWallNs.size());

    // The last restore resumes: it must reproduce the straight run.
    while (resumed.step()) {
    }
    report.expectSame(
        "resume", referenceDigest,
        digest(perturbFor(resumed.finish(), opt, "resume")));

    std::printf("%s: %zu timed repetitions (%zu untraced), horizon "
                "%.3g s, median repetition %.2f ms\n",
                spec.name, repWallNs.size(), plain.reps(),
                config.simTimeS, median(repWallNs) * 1e-6);

    std::printf("%s: %.0f minor page faults per repetition\n", spec.name,
                faultsPerRep);
    std::printf("%s: checkpoint image %.1f KB, round trip min %.3f ms, "
                "median %.3f ms; set-up min %.3f ms, median %.3f ms\n",
                spec.name, static_cast<double>(imageBytes) / 1024.0,
                minimum(roundTripNs) * 1e-6,
                median(roundTripNs) * 1e-6, minimum(setupNs) * 1e-6,
                median(setupNs) * 1e-6);
    const double simS = config.simTimeS;
    if (!opt.trace) {
        report.add("host_ms_per_sim_s", plain.wallNs() * 1e-6 / simS,
                   "ms");
        report.add("cpu_ms_per_sim_s", plain.cpuNs() * 1e-6 / simS,
                   "ms");
        report.add("setup_s", median(setupNs) * 1e-9, "s");
        report.add("peak_rss_mb", rssMb, "MB");
        report.add("ckpt_roundtrip_ms", minimum(roundTripNs) * 1e-6,
                   "ms");
        report.add("sim.runtime_expansion",
                   reference.runtimeExpansion.mean(), "x");
        report.add("sim.ed2", reference.ed2(), "J");
        report.add("sim.max_chip_c", reference.maxChipTempC, "C");
        return;
    }

    // Per-layer table. Counts come from the engine's registry, read
    // by name; the rest from spans and probes.
    const Counters &counters = first.counters;
    printCounters(counters);
    const auto epochs = static_cast<double>(first.epochs);
    const std::vector<double> epochNs = tracer.durations("advanceEpoch");
    auto spanSum = [&](const char *name) {
        double sum = 0.0;
        for (double t : tracer.durations(name))
            sum += t;
        return sum;
    };
    const double jobs = static_cast<double>(tracedJobs);
    report.add("core.epochs", epochs, "count");
    report.add("core.jobs", static_cast<double>(first.jobs), "count");
    report.add("core.decisions", static_cast<double>(first.decisions),
               "count");
    report.add("core.advance_epoch_us_p50",
               percentile(epochNs, 0.50) * 1e-3, "us");
    report.add("core.advance_epoch_us_p99",
               percentile(epochNs, 0.99) * 1e-3, "us");
    report.add("core.advance_epoch_samples",
               static_cast<double>(epochNs.size()), "count");
    report.add("core.begin_run_us",
               median(tracer.durations("beginRun")) * 1e-3, "us");
    report.add("core.submit_ns_per_job",
               jobs > 0.0 ? spanSum("submitJobs") / jobs : 0.0, "ns");
    report.add("core.finish_run_us",
               median(tracer.durations("finishRun")) * 1e-3, "us");
    report.add("sched.picks_per_epoch",
               perEpoch(counterSum(counters,
                                   "sched." + scheduler + ".picks"),
                        epochs),
               "1/epoch");
    report.add("power.dvfs_searches_per_epoch",
               perEpoch(counterSum(counters, "power.dvfsSearches"),
                        epochs),
               "1/epoch");
    report.add("workload.gen_ns_per_job",
               jobs > 0.0 ? spanSum("nextWindow") / jobs : 0.0, "ns");
    // One chassis has no fleet layer.
    report.add("fleet.windows", 0.0, "count");
    report.add("fleet.window_ms_p50", 0.0, "ms");
    report.add("fleet.window_ms_p90", 0.0, "ms");
    report.add("fleet.serial_ms_per_window", 0.0, "ms");
    report.add("fleet.worker_util", 0.0, "fraction");
    report.add("fleet.drain_share", 0.0, "fraction");
    report.add("fleet.construct_ms", 0.0, "ms");
    report.add("ckpt.save_ms", minimum(saveNs) * 1e-6, "ms");
    report.add("ckpt.restore_ms", minimum(restoreNs) * 1e-6, "ms");
    report.add("ckpt.image_kb", static_cast<double>(imageBytes) / 1024.0,
               "KB");
    report.add("trace.overhead_pct",
               100.0 * (withSpans.wallNs() / plain.wallNs() - 1.0), "%");
    probeLayers(config, scheduler, cpus, report);

    printRetiringRates(counters, epochs);
    reportSpans(tracer, opt);
}

} // namespace perfbench
