/**
 * @file
 * google-benchmark microbenchmarks for densim's hot kernels: the
 * coupling-map field evaluation (once per 1 ms epoch), the RC-network
 * steady solve (Fig. 9/10 machinery), scheduler decisions, a full
 * simulated server-second — the numbers that determine how long the
 * experiment benches take — and the checkpoint round trip with its
 * section checksum.
 */

#include <limits>
#include <string>

#include <benchmark/benchmark.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/run_driver.hh"
#include "core/dense_server_sim.hh"
#include "fleet/fleet_sim.hh"
#include "power/leakage.hh"
#include "sched/factory.hh"
#include "sched/prediction.hh"
#include "server/sut.hh"
#include "thermal/hotspot_model.hh"
#include "util/rng.hh"
#include "workload/curves.hh"

using namespace densim;

namespace {

void
BM_CouplingAmbientField(benchmark::State &state)
{
    const ServerTopology sut = makeSutTopology();
    const CouplingMap map =
        makeCouplingMap(sut, defaultCouplingParams());
    std::vector<double> powers(sut.numSockets(), 13.6);
    for (auto _ : state) {
        auto temps = map.ambientTemps(powers, Celsius(18.0));
        benchmark::DoNotOptimize(temps);
    }
}
BENCHMARK(BM_CouplingAmbientField);

void
BM_RcNetworkSteadySolve(benchmark::State &state)
{
    ChipStackParams params;
    params.grid = static_cast<int>(state.range(0));
    const HotSpotModel model(params, HeatSink::fin30());
    const PowerMap map = PowerMap::uniform(params.grid);
    for (auto _ : state) {
        auto field = model.steady(Watts(15.0), map, Celsius(40.0));
        benchmark::DoNotOptimize(field);
    }
}
BENCHMARK(BM_RcNetworkSteadySolve)->Arg(4)->Arg(8)->Arg(12);

void
BM_CouplingDeltaFlush(benchmark::State &state)
{
    // One epoch's delta flush over a seeded ascending dirty list that
    // holds each socket with probability range(0) %: 32 and 79 are the
    // dirty densities of perfbench's cf_load30 and cp_load70. Every
    // flush moves each listed socket between two power levels, so no
    // delta is zero.
    const ServerTopology sut = makeSutTopology();
    const CouplingMap map =
        makeCouplingMap(sut, defaultCouplingParams());
    const std::size_t n = sut.numSockets();
    Rng rng(0xd1f7u);
    std::vector<std::size_t> dirty;
    for (std::size_t s = 0; s < n; ++s)
        if (rng.uniform(0.0, 100.0) < static_cast<double>(state.range(0)))
            dirty.push_back(s);
    const std::vector<double> levels[2] = {std::vector<double>(n, 13.6),
                                           std::vector<double>(n, 2.2)};
    std::vector<double> field = levels[0];
    std::vector<double> temps = map.ambientTemps(field, Celsius(18.0));
    std::size_t next = 1;
    for (auto _ : state) {
        map.applyPowerDeltas(temps, dirty, field, levels[next]);
        next ^= 1;
        benchmark::DoNotOptimize(temps.data());
    }
    state.counters["dirty"] = static_cast<double>(dirty.size());
}
BENCHMARK(BM_CouplingDeltaFlush)->Arg(32)->Arg(79);

void
BM_DvfsDecision(benchmark::State &state)
{
    const PowerManager pm(PStateTable::x2150(), SimplePeakModel(),
                          Celsius(95.0), 0.10);
    const auto &curve = freqCurveFor(WorkloadSet::Computation);
    double amb = 30.0;
    for (auto _ : state) {
        amb = 30.0 + (amb > 60.0 ? -30.0 : 0.01);
        auto d = pm.chooseAtAmbient(curve, LeakageModel::x2150(),
                                    Celsius(amb),
                                    HeatSink::fin18());
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_DvfsDecision);

void
BM_SchedulerDecision(benchmark::State &state)
{
    // One placement decision on a half-busy SUT.
    const char *names[] = {"CF", "Predictive", "CP"};
    const char *name = names[state.range(0)];
    state.SetLabel(name);

    const ServerTopology topo = makeSutTopology();
    const CouplingMap coupling =
        makeCouplingMap(topo, defaultCouplingParams());
    const PowerManager pm(PStateTable::x2150(), SimplePeakModel(),
                          Celsius(95.0), 0.10);
    Rng rng(1);
    const std::size_t n = topo.numSockets();
    std::vector<double> chip(n, 40.0), hist(n, 40.0), amb(n, 35.0),
        credit(n, 2.0), power(n, 2.2), freq(n, 0.0);
    std::vector<WorkloadSet> sets(n, WorkloadSet::Computation);
    std::vector<std::uint8_t> busy(n, 0);
    std::vector<std::size_t> idle;
    for (std::size_t s = 0; s < n; ++s) {
        if (s % 2 == 0) {
            busy[s] = true;
            freq[s] = 1500.0;
            power[s] = 13.6;
        } else {
            idle.push_back(s);
            chip[s] = 30.0 + static_cast<double>(s % 17);
        }
    }
    SchedContext ctx;
    ctx.topo = &topo;
    ctx.coupling = &coupling;
    ctx.pm = &pm;
    ctx.leak = &LeakageModel::x2150();
    ctx.inletC = 18.0;
    ctx.idle = &idle;
    ctx.nSockets = n;
    ctx.chipTempC = chip.data();
    ctx.histTempC = hist.data();
    ctx.ambientC = amb.data();
    ctx.boostCreditS = credit.data();
    ctx.powerW = power.data();
    ctx.freqMhz = freq.data();
    ctx.runningSet = sets.data();
    ctx.busy = busy.data();
    ctx.rng = &rng;

    auto policy = makeScheduler(name);
    Job job{0, 0, WorkloadSet::Computation, 0.0, 5e-3};
    for (auto _ : state) {
        auto pick = policy->pick(job, ctx);
        benchmark::DoNotOptimize(pick);
    }
}
BENCHMARK(BM_SchedulerDecision)->Arg(0)->Arg(1)->Arg(2);

void
BM_SchedulerDecisionBatch(benchmark::State &state)
{
    // A scheduling epoch's worth of placement decisions with the full
    // engine-side fast path wired up: prediction cache (feasibility
    // thresholds and the penalty snapshot), precomputed row map and
    // per-row idle counts. Unlike BM_SchedulerDecision this measures
    // the amortized per-decision cost the simulator actually pays when
    // several jobs land in one epoch.
    constexpr std::size_t kBatch = 8;
    const char *names[] = {"CF", "Predictive", "CP"};
    const char *name = names[state.range(0)];
    state.SetLabel(name);

    const ServerTopology topo = makeSutTopology();
    const CouplingMap coupling =
        makeCouplingMap(topo, defaultCouplingParams());
    const PStateTable &table = PStateTable::x2150();
    const PowerManager pm(table, SimplePeakModel(), Celsius(95.0),
                          0.10);
    const LeakageModel &leak = LeakageModel::x2150();
    Rng rng(1);
    const std::size_t n = topo.numSockets();
    std::vector<double> chip(n, 40.0), hist(n, 40.0), amb(n, 35.0),
        credit(n, 0.0), power(n, 2.2), freq(n, 0.0);
    std::vector<WorkloadSet> sets(n, WorkloadSet::Computation);
    std::vector<std::uint8_t> busy(n, 0);
    std::vector<std::size_t> pstates(n, 0), idle;
    std::vector<int> rows(n, 0);
    std::vector<int> idlePerRow(static_cast<std::size_t>(topo.numRows()),
                                0);
    std::vector<const HeatSink *> sinks(n);
    for (std::size_t s = 0; s < n; ++s) {
        rows[s] = topo.rowOf(s);
        sinks[s] = &topo.sinkOf(s);
    }
    for (std::size_t s = 0; s < n; ++s) {
        if (s % 2 == 0) {
            // The penalty snapshot's premise: each busy socket's
            // P-state really was chosen at its current ambient.
            busy[s] = true;
            const DvfsDecision d = pm.chooseAtAmbientCapped(
                freqCurveFor(sets[s]), leak, Celsius(amb[s]),
                topo.sinkOf(s), table.highestSustainedIndex());
            pstates[s] = d.pstate;
            freq[s] = d.freqMhz;
            power[s] = d.power.value();
        } else {
            idle.push_back(s);
            ++idlePerRow[static_cast<std::size_t>(rows[s])];
            chip[s] = 30.0 + static_cast<double>(s % 17);
        }
    }

    PredictionCache cache;
    cache.feas.build(pm, leak, sinks);
    cache.reset(n);
    cache.snapshot = true;
    for (std::size_t s = 0; s < n; ++s)
        if (busy[s])
            cache.snapshotBusy(s, pstates[s], sets[s]);

    SchedContext ctx;
    ctx.topo = &topo;
    ctx.coupling = &coupling;
    ctx.pm = &pm;
    ctx.leak = &leak;
    ctx.inletC = 18.0;
    ctx.idle = &idle;
    ctx.idlePerRow = idlePerRow.data();
    ctx.nSockets = n;
    ctx.chipTempC = chip.data();
    ctx.histTempC = hist.data();
    ctx.ambientC = amb.data();
    ctx.boostCreditS = credit.data();
    ctx.powerW = power.data();
    ctx.freqMhz = freq.data();
    ctx.runningSet = sets.data();
    ctx.busy = busy.data();
    ctx.socketRow = rows.data();
    ctx.rng = &rng;
    ctx.cache = &cache;

    auto policy = makeScheduler(name);
    Job job{0, 0, WorkloadSet::Computation, 0.0, 5e-3};
    for (auto _ : state) {
        for (std::size_t k = 0; k < kBatch; ++k) {
            auto pick = policy->pick(job, ctx);
            benchmark::DoNotOptimize(pick);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_SchedulerDecisionBatch)->Arg(0)->Arg(1)->Arg(2);

void
BM_SimulatedServerSecond(benchmark::State &state)
{
    // One iteration simulates 1 s of arrivals plus the drain, from
    // construction and a cold start; ms_per_sim_s divides the time by
    // the simulated seconds, drain included.
    double simulated_s = 0.0;
    for (auto _ : state) {
        SimConfig config;
        config.load = 0.7;
        config.simTimeS = 1.0;
        config.warmupS = 0.2;
        config.socketTauS = 3.0;
        DenseServerSim sim(config, makeScheduler("CP"));
        auto metrics = sim.run();
        simulated_s += config.warmupS + metrics.measuredS;
        benchmark::DoNotOptimize(metrics);
    }
    state.counters["ms_per_sim_s"] =
        benchmark::Counter(simulated_s / 1e3, benchmark::Counter::kIsRate |
                                                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulatedServerSecond)->Unit(benchmark::kMillisecond);

void
BM_FleetServerSecond(benchmark::State &state)
{
    // A 16-chassis fleet simulating one server-second per shard,
    // swept over worker-thread counts: the lockstep-barrier scaling
    // number. Results are bit-identical across the Arg values (the
    // fleet determinism contract), so this measures pure wall-clock
    // scaling.
    const auto threads = static_cast<unsigned>(state.range(0));
    SimConfig config;
    config.load = 0.7;
    config.simTimeS = 1.0;
    config.warmupS = 0.2;
    config.socketTauS = 3.0;
    config.fleet.chassis = 16;
    // Construction (16 topology + coupling-map builds) is one-time
    // setup; the timed section is the lockstep run itself.
    FleetSim fleet(config, "CP");
    for (auto _ : state) {
        auto metrics = fleet.run(threads);
        benchmark::DoNotOptimize(metrics);
    }
}
BENCHMARK(BM_FleetServerSecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- checkpoint round trip (DESIGN.md Sec. 16) -----------------------

void
BM_SectionChecksum(benchmark::State &state)
{
    // The integrity checksum a save computes once per section and a
    // restore once more: 4 KB is a small section, 64 KB about a
    // chassis image, 576 KB a 16-chassis fleet's.
    std::string payload(static_cast<std::size_t>(state.range(0)), '\0');
    Rng rng(0x5ec7u);
    for (char &c : payload)
        c = static_cast<char>(rng.nextU64() & 0xff);
    for (auto _ : state) {
        auto crc = ckpt::sectionCrc(payload);
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SectionChecksum)->Arg(4 << 10)->Arg(64 << 10)->Arg(576 << 10);

void
BM_EngineCheckpointRoundTrip(benchmark::State &state)
{
    // saveEngine plus restoreEngine into a second, already-built
    // engine: a CF engine at load 0.3 stopped at t = 2 s, every
    // arrival consumed, as perfbench's cf_load30 round trip. Closing
    // the restored run between iterations is not timed.
    SimConfig config;
    config.load = 0.3;
    config.simTimeS = 2.0;
    config.warmupS = 1.0;
    DenseServerSim open(config, makeScheduler("CF"));
    open.beginGeneratedRun();
    while (open.epochPending() && open.nowS() < config.simTimeS)
        open.advanceEpoch();
    DenseServerSim resumed(config, makeScheduler("CF"));
    std::size_t image_bytes = 0;
    for (auto _ : state) {
        const std::string image = ckpt::saveEngine(open);
        ckpt::restoreEngine(resumed, image);
        image_bytes = image.size();
        state.PauseTiming();
        (void)resumed.finishRun();
        state.ResumeTiming();
    }
    state.counters["image_kb"] = static_cast<double>(image_bytes) / 1024.0;
}
BENCHMARK(BM_EngineCheckpointRoundTrip)->Unit(benchmark::kMicrosecond);

// --- observability overhead (DESIGN.md Sec. 10) ---------------------
// The always-compiled counter increment must stay a plain u64 add.

void
BM_ObsCounterIncrement(benchmark::State &state)
{
    obs::Registry registry;
    obs::Counter *c = &registry.counter("bench.counter");
    for (auto _ : state) {
        c->inc();
        benchmark::DoNotOptimize(*c);
    }
}
BENCHMARK(BM_ObsCounterIncrement);

} // namespace
