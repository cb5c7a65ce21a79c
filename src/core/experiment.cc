#include "core/experiment.hh"

#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/config_io.hh"
#include "obs/json.hh"
#include "sched/factory.hh"
#include "util/digest.hh"
#include "util/fs.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace densim {

namespace {

/** Digests already completed according to the resume manifest. */
std::set<std::string>
loadResumeManifest(const std::string &path)
{
    std::set<std::string> done;
    std::ifstream in(path);
    // A missing manifest is a fresh sweep, not an error.
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            done.insert(line);
    }
    return done;
}

} // namespace

RunResult
runOne(const RunSpec &spec)
{
    DenseServerSim sim(spec.config, makeScheduler(spec.scheduler));
    RunResult result;
    result.spec = spec;
    result.metrics = sim.run();
    return result;
}

std::vector<RunResult>
runAll(const std::vector<RunSpec> &specs, unsigned threads)
{
    SweepOptions options;
    options.threads = threads;
    const std::vector<RunOutcome> outcomes =
        runAllOutcomes(specs, options);
    return {outcomes.begin(), outcomes.end()};
}

std::string
runDigest(const RunSpec &spec)
{
    std::uint64_t h = fnv1a64(spec.scheduler);
    h = fnv1a64("\n", h);
    h = fnv1a64(saveConfig(spec.config), h);
    return hex64(h);
}

std::vector<RunOutcome>
runAllOutcomes(const std::vector<RunSpec> &specs,
               const SweepOptions &options)
{
    std::vector<RunOutcome> outcomes(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        outcomes[i].spec = specs[i];
        if (specs.size() > 1)
            outcomes[i].spec.config = perRunSinks(specs[i].config, i);
        outcomes[i].digest = runDigest(specs[i]);
    }

    if (!options.resumePath.empty()) {
        const std::set<std::string> done =
            loadResumeManifest(options.resumePath);
        for (RunOutcome &outcome : outcomes) {
            if (done.count(outcome.digest) != 0) {
                outcome.skipped = true;
                outcome.ok = true;
            }
        }
    }

    std::ofstream manifest;
    std::mutex manifest_mu;
    if (!options.resumePath.empty()) {
        manifest.open(options.resumePath, std::ios::app);
        if (!manifest) {
            fatal("experiment: cannot open resume manifest '",
                  options.resumePath, "' for append");
        }
    }

    if (!specs.empty()) {
        // In keep-going mode fatal() throws for the duration of the
        // sweep, so one cell's bad configuration becomes a captured
        // outcome instead of exiting the process.
        std::optional<ScopedFatalThrows> guard;
        if (options.keepGoing)
            guard.emplace();
        parallelFor(specs.size(), options.threads, [&](std::size_t i) {
            RunOutcome &outcome = outcomes[i];
            if (outcome.skipped)
                return;
            const auto runCell = [&] {
                return options.cellRunner
                           ? options.cellRunner(outcome.spec)
                           : runOne(outcome.spec).metrics;
            };
            if (options.keepGoing) {
                try {
                    outcome.metrics = runCell();
                    outcome.ok = true;
                } catch (const std::exception &e) {
                    outcome.error = e.what();
                }
            } else {
                outcome.metrics = runCell();
                outcome.ok = true;
            }
            if (outcome.ok && manifest.is_open()) {
                const std::lock_guard<std::mutex> lock(manifest_mu);
                manifest << outcome.digest << '\n' << std::flush;
                // An unchecked append (full disk, closed fd) would
                // silently drop the digest and the cell would
                // silently re-run on resume — a durability bug, not
                // a per-cell simulation failure, so it escapes the
                // keep-going containment.
                if (!manifest) {
                    fatal("experiment: cannot append digest ",
                          outcome.digest, " to resume manifest '",
                          options.resumePath, "'");
                }
            }
        });
    }

    if (!options.summaryPath.empty()) {
        // Atomic replace: a sweep killed mid-write must leave the
        // previous summary intact, not a torn JSON document.
        if (!atomicWriteFile(options.summaryPath,
                             sweepSummaryJson(outcomes))) {
            fatal("experiment: cannot write sweep summary '",
                  options.summaryPath, "'");
        }
    }
    return outcomes;
}

std::string
sweepSummaryJson(const std::vector<RunOutcome> &outcomes)
{
    std::size_t completed = 0;
    std::size_t skipped = 0;
    std::size_t failed = 0;
    for (const RunOutcome &o : outcomes) {
        if (o.skipped)
            ++skipped;
        else if (o.ok)
            ++completed;
        else
            ++failed;
    }
    std::string out;
    out += "{\"total\":";
    obs::json::appendNumber(out, static_cast<double>(outcomes.size()));
    out += ",\"completed\":";
    obs::json::appendNumber(out, static_cast<double>(completed));
    out += ",\"skipped\":";
    obs::json::appendNumber(out, static_cast<double>(skipped));
    out += ",\"failed\":";
    obs::json::appendNumber(out, static_cast<double>(failed));
    out += ",\"runs\":[";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunOutcome &o = outcomes[i];
        if (i != 0)
            out += ',';
        out += "{\"index\":";
        obs::json::appendNumber(out, static_cast<double>(i));
        out += ",\"scheduler\":";
        obs::json::appendString(out, o.spec.scheduler);
        out += ",\"load\":";
        obs::json::appendNumber(out, o.spec.config.load);
        out += ",\"digest\":";
        obs::json::appendString(out, o.digest);
        out += ",\"status\":";
        obs::json::appendString(
            out, o.skipped ? "skipped" : (o.ok ? "ok" : "failed"));
        if (!o.ok) {
            out += ",\"error\":";
            obs::json::appendString(out, o.error);
        }
        out += '}';
    }
    out += "]}\n";
    return out;
}

std::vector<RunSpec>
makeGrid(const std::vector<std::string> &schedulers, WorkloadSet set,
         const std::vector<double> &loads, const SimConfig &base)
{
    std::vector<RunSpec> specs;
    specs.reserve(schedulers.size() * loads.size());
    for (const std::string &scheduler : schedulers) {
        for (double load : loads) {
            RunSpec spec;
            spec.scheduler = scheduler;
            spec.config = base;
            spec.config.workload = set;
            spec.config.load = load;
            specs.push_back(spec);
        }
    }
    return specs;
}

std::map<std::string, std::map<double, SimMetrics>>
indexResults(const std::vector<RunResult> &results)
{
    std::map<std::string, std::map<double, SimMetrics>> index;
    for (const RunResult &r : results)
        index[r.spec.scheduler][r.spec.config.load] = r.metrics;
    return index;
}

} // namespace densim
