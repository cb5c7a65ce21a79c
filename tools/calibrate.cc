/**
 * @file
 * Calibration sweep tool for the coupling-model parameters
 * (DESIGN.md Sec. 3.1).
 *
 * Runs the scheduler suite at low and high load for one parameter
 * set and prints performance relative to CF, so the operating point
 * can be matched against the paper's qualitative targets:
 *
 *   @30% load:  Predictive >= CF, HF and MinHR several % worse
 *   @70% load:  HF and MinHR better than CF, Predictive ~ CF
 *   CP at or near the best scheme at every load
 *
 * Usage: calibrate [kappa [wake [decayInch [boostRefill
 *                  [verticalLeak [load ...]]]]]]
 *
 * Each argument is parsed as its config key (coupling.kappaLocal,
 * coupling.wakeFactor, coupling.decayLengthInch, boostRefillRate,
 * coupling.verticalLeak, then load for every remaining one), so a
 * malformed value fails naming the key. An absent argument keeps the
 * SimConfig default; the loads default to 0.3 and 0.7.
 */

#include <iostream>
#include <iterator>

#include "core/config_io.hh"
#include "core/experiment.hh"
#include "util/table.hh"

using namespace densim;

int
main(int argc, char **argv)
{
    const char *const keys[] = {
        "coupling.kappaLocal", "coupling.wakeFactor",
        "coupling.decayLengthInch", "boostRefillRate",
        "coupling.verticalLeak"};
    const int nkeys = static_cast<int>(std::size(keys));
    SimConfig base;
    for (int i = 1; i < argc && i <= nkeys; ++i)
        applyConfigKey(base, keys[i - 1], argv[i]);
    std::vector<double> loads;
    for (int i = nkeys + 1; i < argc; ++i) {
        applyConfigKey(base, "load", argv[i]);
        loads.push_back(base.load);
    }
    if (loads.empty())
        loads = {0.3, 0.7};

    base.socketTauS = 3.0;
    base.simTimeS = 15.0;
    base.warmupS = 7.0;

    const std::vector<std::string> schemes{
        "CF", "HF", "Random", "MinHR", "Predictive", "CP",
        "CP-nocoupling", "CP-global"};

    std::cout << "kappa=" << base.coupling.kappaLocal
              << " wake=" << base.coupling.wakeFactor
              << " decay=" << base.coupling.decayLengthInch
              << " refill=" << base.boostRefillRate
              << " vleak=" << base.coupling.verticalLeak << "\n";

    // Average relative performance across seeds: high loads sit near
    // queue saturation, so single runs are noisy.
    const std::vector<std::uint64_t> seeds{11, 42, 1234};
    std::vector<RunSpec> specs;
    for (std::uint64_t seed : seeds) {
        SimConfig cfg = base;
        cfg.seed = seed;
        auto grid =
            makeGrid(schemes, WorkloadSet::Computation, loads, cfg);
        specs.insert(specs.end(), grid.begin(), grid.end());
    }
    // makeGrid keeps base.seed; re-stamp per block.
    for (std::size_t i = 0; i < specs.size(); ++i)
        specs[i].config.seed = seeds[i / (schemes.size() * loads.size())];
    auto results = runAll(specs);

    TableWriter table({"Scheme", "Load", "PerfVsCF", "AvgFreq",
                       "Boost%", "MaxT", "Front%", "Even%", "FreqF",
                       "FreqB"});
    const std::size_t block = schemes.size() * loads.size();
    for (std::size_t g = 0; g < block; ++g) {
        const std::string &scheme = specs[g].scheduler;
        const double load = specs[g].config.load;
        double perf = 0, freq = 0, boost = 0, maxt = 0;
        double frontw = 0, evenw = 0, freqf = 0, freqb = 0;
        for (std::size_t k = 0; k < seeds.size(); ++k) {
            const SimMetrics &m = results[g + k * block].metrics;
            // CF for this load within the same seed block.
            const SimMetrics *cf = nullptr;
            for (std::size_t j = 0; j < block; ++j) {
                if (specs[j].scheduler == "CF" &&
                    specs[j].config.load == load)
                    cf = &results[j + k * block].metrics;
            }
            perf += relativePerformance(m, *cf);
            freq += m.avgRelFreq();
            boost += 100 * m.boostFraction();
            maxt += m.maxChipTempC;
            frontw += 100 * m.workFraction(m.front);
            evenw += 100 * m.workFraction(m.even);
            freqf += m.front.avgRelFreq();
            freqb += m.back.avgRelFreq();
        }
        const double n = static_cast<double>(seeds.size());
        table.newRow()
            .cell(scheme)
            .cell(load, 2)
            .cell(perf / n, 4)
            .cell(freq / n, 3)
            .cell(boost / n, 1)
            .cell(maxt / n, 1)
            .cell(frontw / n, 1)
            .cell(evenw / n, 1)
            .cell(freqf / n, 3)
            .cell(freqb / n, 3);
    }
    table.print(std::cout);
    return 0;
}
