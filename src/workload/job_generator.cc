#include "workload/job_generator.hh"

#include <algorithm>
#include <cmath>

#include "power/pstate.hh"
#include "util/logging.hh"
#include "workload/curves.hh"

namespace densim {

JobGenerator::JobGenerator(WorkloadSet gen_set, double load, int sockets,
                           std::uint64_t seed,
                           double max_duration_factor)
    : set_(gen_set), apps_(benchmarksInSet(gen_set)),
      maxDurationFactor_(max_duration_factor), rng_(seed)
{
    if (load <= 0.0 || load > 1.0)
        fatal("JobGenerator: load ", load, " outside (0, 1]");
    if (sockets < 1)
        fatal("JobGenerator: need at least one socket, got ", sockets);
    if (maxDurationFactor_ <= 1.0)
        fatal("JobGenerator: max duration factor must exceed 1, got ",
              maxDurationFactor_);
    // Load is normalized the way the paper's Xperf captures imply:
    // job durations were measured on hardware running at maximum
    // frequency, so 100% load means arrivals fill all sockets with
    // max-frequency-length jobs. Nominal durations here are defined
    // at the highest *sustained* frequency, hence the perfRel
    // correction (a 100% Computation load slightly oversubscribes a
    // server that throttles to 1500 MHz — exactly the regime the
    // paper's high-load results live in).
    const auto &curve = freqCurveFor(set_);
    const double sustained_perf =
        curve.perfRel[PStateTable::x2150().highestSustainedIndex()];
    rate_ = load * sockets / (setMeanDurationS(set_) * sustained_perf);
}

Job
JobGenerator::next()
{
    clockS_ += rng_.exponential(1.0 / rate_);
    const std::size_t app =
        apps_[rng_.nextBounded(apps_.size())];
    const Benchmark &bench = pcmarkCatalog()[app];

    // Lognormal with the application's mean: mean = exp(mu + s^2/2)
    // => mu = ln(mean) - s^2/2.
    const double mean_s = bench.meanDurationMs * 1e-3;
    const double mu =
        std::log(mean_s) - 0.5 * bench.sigmaLn * bench.sigmaLn;
    double duration = rng_.lognormal(mu, bench.sigmaLn);
    duration = std::min(duration, maxDurationFactor_ * mean_s);

    Job job;
    job.id = nextId_++;
    job.benchmark = app;
    job.set = set_;
    job.arrivalS = clockS_;
    job.nominalS = duration;
    return job;
}

std::vector<Job>
JobGenerator::generateUntil(double horizon_s)
{
    std::vector<Job> jobs;
    for (;;) {
        Job job = next();
        if (job.arrivalS >= horizon_s)
            return jobs;
        jobs.push_back(job);
    }
}

void
JobGenerator::nextWindow(double horizon_s, std::vector<Job> &out)
{
    out.clear();
    if (hasPending_) {
        if (pending_.arrivalS >= horizon_s)
            return;
        out.push_back(pending_);
        hasPending_ = false;
    }
    for (;;) {
        Job job = next();
        if (job.arrivalS >= horizon_s) {
            pending_ = job;
            hasPending_ = true;
            return;
        }
        out.push_back(job);
    }
}

std::vector<Job>
JobGenerator::nextWindow(double horizon_s)
{
    std::vector<Job> jobs;
    nextWindow(horizon_s, jobs);
    return jobs;
}

} // namespace densim
