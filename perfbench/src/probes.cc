/**
 * @file
 * Per-layer probes: each times one layer's public function on state
 * shaped like the workload (its topology, scheduler and busy fraction).
 */

#include <algorithm>
#include <numeric>

#include "bench.hh"
#include "power/leakage.hh"
#include "power/power_manager.hh"
#include "power/pstate.hh"
#include "sched/factory.hh"
#include "sched/scheduler.hh"
#include "server/topology.hh"
#include "thermal/coupling_map.hh"
#include "thermal/simple_peak_model.hh"
#include "util/rng.hh"
#include "workload/curves.hh"

namespace perfbench {

namespace {

volatile double gSink = 0.0;

/**
 * Median ns per call of @p fn(i) over rotated batches, each batch long
 * enough (about 2 ms) for the clock to resolve it.
 */
template <typename Fn>
double
nsPerCall(CpuRotation &cpus, Fn &&fn)
{
    std::size_t batch = 1;
    for (;;) {
        const Ns t0 = wallNs();
        for (std::size_t i = 0; i < batch; ++i)
            fn(i);
        if (wallNs() - t0 > 2'000'000 || batch >= (1u << 22))
            break;
        batch *= 2;
    }
    std::vector<double> perCall;
    for (std::size_t b = 0; b < 9; ++b) {
        cpus.pin(b);
        const Ns t0 = wallNs();
        for (std::size_t i = 0; i < batch; ++i)
            fn(i);
        perCall.push_back(static_cast<double>(wallNs() - t0) /
                          static_cast<double>(batch));
    }
    cpus.unpin();
    return median(perCall);
}

} // namespace

void
probeLayers(const densim::SimConfig &config, const std::string &scheduler,
            CpuRotation &cpus, Report &report)
{
    using namespace densim;

    // The topology itself is a validated spec; its build cost is the
    // per-socket geometry (sites) the coupling map is made from.
    report.add("server.topology_build_us", nsPerCall(cpus, [&](std::size_t) {
                   const ServerTopology topo(config.topo);
                   gSink = gSink +
                           static_cast<double>(topo.sites().size());
               }) * 1e-3,
               "us");

    const ServerTopology topo(config.topo);
    const std::vector<SocketSite> sites = topo.sites();
    report.add("thermal.coupling_build_us",
               nsPerCall(cpus, [&](std::size_t) {
                   const CouplingMap map(sites, config.coupling);
                   gSink = gSink + static_cast<double>(map.size());
               }) * 1e-3,
               "us");

    // A power field at the workload's busy fraction: a seeded subset
    // of sockets runs at the state the power manager picks for it.
    const CouplingMap coupling(sites, config.coupling);
    const PowerManager pm(PStateTable::x2150(),
                          SimplePeakModel(config.rInt()), config.tLimit(),
                          config.gatedFracTdp);
    const LeakageModel &leak = LeakageModel::x2150();
    const FreqCurve &curve = freqCurveFor(config.workload);
    const std::size_t n = topo.numSockets();
    const std::size_t cap = pm.pstates().size() - 1;
    const Celsius inlet = config.topo.inlet();

    Rng rng(config.seed);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    // At least one socket stays idle: pick() needs a candidate.
    const std::size_t busyCount = std::min(
        static_cast<std::size_t>(config.load * static_cast<double>(n) + 0.5),
        n - 1);

    std::vector<double> power(n, pm.gatedPower(leak).value());
    std::vector<double> freq(n, 0.0);
    std::vector<std::uint8_t> busy(n, 0);
    std::vector<WorkloadSet> sets(n, config.workload);
    const std::vector<double> ambient0 = coupling.ambientTemps(power, inlet);
    for (std::size_t k = 0; k < busyCount; ++k) {
        const std::size_t s = order[k];
        const DvfsDecision d = pm.chooseAtAmbientCapped(
            curve, leak, Celsius(ambient0[s]), topo.sinkOf(s), cap);
        busy[s] = 1;
        power[s] = d.power.value();
        freq[s] = d.freqMhz;
    }
    const std::vector<double> ambient = coupling.ambientTemps(power, inlet);
    std::vector<double> chip(n), credit(n, config.boostBurstS);
    std::vector<int> rows(n);
    std::vector<std::size_t> idle;
    for (std::size_t s = 0; s < n; ++s) {
        chip[s] = ambient[s] +
                  power[s] * (config.rIntCW + topo.sinkOf(s).rExt.value());
        rows[s] = topo.rowOf(s);
        if (busy[s] == 0)
            idle.push_back(s);
    }

    report.add("thermal.field_us", nsPerCall(cpus, [&](std::size_t i) {
                   gSink = gSink +
                           coupling.ambientTemps(power, inlet)[i % n];
               }) * 1e-3,
               "us");

    report.add("power.dvfs_ns", nsPerCall(cpus, [&](std::size_t i) {
                   const double amb =
                       inlet.value() + 5.0 + 0.5 * static_cast<double>(i % 64);
                   const DvfsDecision d = pm.chooseAtAmbientCapped(
                       curve, leak, Celsius(amb), topo.sinkOf(i % n), cap);
                   gSink = gSink + d.freqMhz;
               }),
               "ns");

    // A cache-less scheduling context (no prediction memo, no arena).
    Rng policyRng(config.seed ^ 0x5eedu);
    SchedContext ctx{};
    ctx.topo = &topo;
    ctx.coupling = &coupling;
    ctx.pm = &pm;
    ctx.leak = &leak;
    ctx.inletC = inlet.value();
    ctx.idle = &idle;
    ctx.nSockets = n;
    ctx.chipTempC = chip.data();
    ctx.histTempC = chip.data();
    ctx.ambientC = ambient.data();
    ctx.boostCreditS = credit.data();
    ctx.powerW = power.data();
    ctx.freqMhz = freq.data();
    ctx.runningSet = sets.data();
    ctx.busy = busy.data();
    ctx.socketRow = rows.data();
    ctx.rng = &policyRng;
    auto policy = makeScheduler(scheduler);
    const Job job{0, 0, config.workload, 0.0, 5e-3};
    report.add("sched.pick_ns", nsPerCall(cpus, [&](std::size_t) {
                   gSink = gSink +
                           static_cast<double>(policy->pick(job, ctx));
               }),
               "ns");
}

} // namespace perfbench
