/**
 * @file
 * Tests for the observability layer (src/obs) and its engine wiring:
 * strict-JSON helpers, the counter/gauge registry, the sampled phase
 * timers, the Chrome trace rendered from the fault log, and — the
 * regression the layer grew out of — the fixed-grid timeline sampler
 * that replaced the drifting ad-hoc one.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"
#include "core/metrics_io.hh"
#include "fault/fault_log.hh"
#include "json_validate.hh"
#include "obs/json.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"
#include "sched/factory.hh"

namespace densim {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Small, fast configuration (36 sockets) for engine-level tests. */
SimConfig
smallConfig()
{
    SimConfig config;
    config.topo.rows = 3;
    config.simTimeS = 2.0;
    config.warmupS = 0.5;
    config.socketTauS = 0.5;
    config.load = 0.7;
    config.seed = 42;
    return config;
}

// ------------------------------------------------------ JSON helpers

TEST(ObsJson, NumbersAreStrict)
{
    std::string out;
    obs::json::appendNumber(out, 1.5);
    EXPECT_EQ(out, "1.5");

    out.clear();
    obs::json::appendNumber(out,
                            std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(out, "null");

    out.clear();
    obs::json::appendNumber(out,
                            -std::numeric_limits<double>::infinity());
    EXPECT_EQ(out, "null");

    // Finite values print in the shortest form that round-trips, so
    // a last-bit difference between two runs shows in their JSON.
    out.clear();
    obs::json::appendNumber(out, 0.1 + 0.2);
    EXPECT_EQ(out, "0.30000000000000004");
    const double subnormal =
        std::numeric_limits<double>::denorm_min() * 3;
    ASSERT_EQ(std::fpclassify(subnormal), FP_SUBNORMAL);
    const double pow53_plus_1 =
        static_cast<double>((std::uint64_t{1} << 53) + 1);
    for (const double v : {0.1 + 0.2, 1e-300, subnormal, pow53_plus_1}) {
        out.clear();
        obs::json::appendNumber(out, v);
        EXPECT_TRUE(obs::json::validate(out)) << out;
        EXPECT_EQ(std::strtod(out.c_str(), nullptr), v) << out;
    }
}

TEST(ObsJson, StringsAreEscaped)
{
    std::string out;
    obs::json::appendString(out, "a\"b\\c\n\t\x01");
    EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
    EXPECT_TRUE(obs::json::validate(out));
}

TEST(ObsJson, ValidateAcceptsDocuments)
{
    for (const char *doc :
         {"{}", "[]", "null", "true", "-1.5e3", "\"x\"",
          R"({"a":[1,2,{"b":null}],"c":"d"})"}) {
        std::string error;
        EXPECT_TRUE(obs::json::validate(doc, &error))
            << doc << ": " << error;
    }
}

TEST(ObsJson, ValidateRejectsNonsense)
{
    for (const char *doc :
         {"", "{", "{}x", "{\"a\":nan}", "{\"a\":inf}", "[1,]",
          "{,\"a\":1}", "{'a':1}", "01", "+1", "{\"a\" 1}"}) {
        EXPECT_FALSE(obs::json::validate(doc)) << doc;
    }
}

TEST(ObsJson, ValidateLinesCountsAndFails)
{
    EXPECT_EQ(obs::json::validateLines("{}\n[1]\n\n\"x\"\n"), 3);
    std::string error;
    EXPECT_EQ(obs::json::validateLines("{}\nnan\n", &error), -1);
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------- registry

TEST(ObsRegistry, CounterRegistrationIsIdempotent)
{
    obs::Registry registry;
    obs::Counter &a = registry.counter("x");
    obs::Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.inc();
    b.inc(2);
    EXPECT_EQ(a.value(), 3u);
}

TEST(ObsRegistry, AddressesStableAcrossLaterRegistrations)
{
    obs::Registry registry;
    obs::Counter *first = &registry.counter("a");
    for (int i = 0; i < 100; ++i) {
        std::string name = "b";
        name += std::to_string(i);
        registry.counter(name);
    }
    EXPECT_EQ(first, &registry.counter("a"));
}

TEST(ObsRegistry, ResetValuesKeepsRegistrations)
{
    obs::Registry registry;
    obs::Counter &c = registry.counter("events");
    registry.gauge("tempC", "C").set(42.0);
    c.inc(7);

    registry.resetValues();
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(registry.gauge("tempC", "C").value(), 0.0);
    EXPECT_EQ(&c, &registry.counter("events"));
}

TEST(ObsRegistry, TypedGaugeTakesQuantities)
{
    obs::Registry registry;
    obs::TypedGauge<Watts> g =
        registry.typedGauge<Watts>("powerW", "W");
    g.set(Watts(13.5));
    EXPECT_EQ(registry.gauge("powerW", "W").value(), 13.5);
    const auto samples = registry.gauges();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].name, "powerW");
    EXPECT_EQ(samples[0].unit, "W");
}

// ------------------------------------------------------ phase timers

TEST(ObsProfiler, EngineSamplesEveryPhaseAndResetsPerRun)
{
    // Migrations are attempted every epoch, so every timed epoch runs
    // every phase: the ambient flush, the socket walk and the three
    // after it.
    SimConfig config = smallConfig();
    config.migrationEnabled = true;
    config.migrationIntervalS = config.pmEpochS;
    DenseServerSim sim(config, makeScheduler("CP"));
    sim.run();
    obs::Registry counters = sim.observability();
    const obs::PhaseProfiler &phases = sim.phaseProfile();
    EXPECT_GT(phases.sampledEpochs(), 0u);
    EXPECT_EQ(phases.sampledEpochs(),
              counters.counter("engine.epochs").value() /
                  obs::PhaseProfiler::kStride);
    for (const obs::Phase p : {obs::Phase::AmbientFlush,
                               obs::Phase::ThermalStep,
                               obs::Phase::PowerManage,
                               obs::Phase::Migration,
                               obs::Phase::ProcessWindow})
        EXPECT_GT(phases.ns(p), 0u) << obs::phaseName(p);
    std::string error;
    EXPECT_TRUE(obs::json::validate(phasesToJson(phases), &error))
        << error;

    sim.beginRun();
    EXPECT_EQ(sim.phaseProfile().sampledEpochs(), 0u);
    for (const obs::Phase p : obs::kPhases)
        EXPECT_EQ(sim.phaseProfile().ns(p), 0u) << obs::phaseName(p);
}

// ------------------------------------------- trace from the fault log

TEST(ObsTrace, JsonIsWellFormed)
{
    // The exact bytes for a server-wide event (tid -1), a per-socket
    // event and a counter, under a process name that needs escaping.
    // to_chars prints the shortest form, so 0.5 s is 5e+05 us.
    const std::vector<FaultEvent> events = {
        {0.5, FaultKind::FanDerate, kFaultNoSocket, 0.3},
        {1.25, FaultKind::SocketFail, 7, 0.0}};
    const std::string json = faultLogToChromeTrace(
        events, 0, "unit \"test\"", {{"engine.epochs", 42}});
    EXPECT_EQ(
        json,
        R"({"traceEvents":[)"
        R"({"ph":"M","pid":0,"tid":0,"name":"process_name",)"
        R"("args":{"name":"unit \"test\""}},)"
        R"({"ph":"X","pid":0,"tid":-1,"ts":5e+05,"name":"fanDerate",)"
        R"("dur":0,"cat":"fault"},)"
        R"({"ph":"X","pid":0,"tid":7,"ts":1250000,"name":"socketFail",)"
        R"("dur":0,"cat":"fault"},)"
        R"({"ph":"C","pid":0,"tid":0,"ts":0,"name":"engine.epochs",)"
        R"("args":{"value":42}}],"displayTimeUnit":"ms"})");
    std::string error;
    EXPECT_TRUE(obs::json::validate(json, &error)) << error;
}

TEST(ObsTrace, CapDropsAndReports)
{
    // No test run reaches the log's cap, so the drop path is checked
    // where it is rendered: the trace carries the count, and writing
    // either file warns.
    const std::vector<FaultEvent> events = {
        {0.25, FaultKind::Quarantine, 3, 97.5}};
    const std::string json = faultLogToChromeTrace(events, 3, "d", {});
    EXPECT_NE(json.find(R"(],"displayTimeUnit":"ms",)"
                        R"("metadata":{"densimDroppedEvents":3}})"),
              std::string::npos)
        << json;
    EXPECT_TRUE(obs::json::validate(json));
    EXPECT_EQ(faultLogToChromeTrace(events, 0, "d", {}).find("metadata"),
              std::string::npos);

    const std::string log_path = testing::TempDir() + "obs_dropped.jsonl";
    const std::string trace_path = testing::TempDir() + "obs_dropped.json";
    testing::internal::CaptureStderr();
    writeFaultLogFile(log_path, events, 3);
    writeChromeTraceFile(trace_path, events, 3, "d", {});
    const std::string warned = testing::internal::GetCapturedStderr();
    EXPECT_NE(warned.find("fault log '" + log_path + "' misses 3 fault "
                          "events past the 100000-event cap"),
              std::string::npos)
        << warned;
    EXPECT_NE(warned.find("trace '" + trace_path + "' misses 3"),
              std::string::npos)
        << warned;
    EXPECT_EQ(slurp(trace_path), json + "\n");
    std::remove(log_path.c_str());
    std::remove(trace_path.c_str());
}

// -------------------------------------------------- timeline sampler

TEST(ObsTimeline, GridIsExactUnderAccumulatedEpochError)
{
    // Feed the sampler accumulated `t += epoch` boundaries — the
    // engine's loop variable, carrying float error — and require the
    // *emitted* stamps to sit exactly on k * period.
    obs::TimelineSampler sampler;
    sampler.configure(0.25);
    double t = 0.0;
    std::vector<double> stamps;
    for (int i = 0; i < 100000; ++i) {
        double grid = 0.0;
        if (sampler.due(t, &grid))
            stamps.push_back(grid);
        t += 1e-3; // accumulates rounding error against 0.25 grid
    }
    ASSERT_GE(stamps.size(), 400u);
    for (std::size_t k = 0; k < stamps.size(); ++k)
        EXPECT_DOUBLE_EQ(stamps[k], 0.25 * static_cast<double>(k));
}

TEST(ObsTimeline, SubEpochPeriodSkipsToLatestGridPoint)
{
    // period < epoch: the historical sampler advanced its mark once
    // per epoch and fell permanently behind. The fixed sampler emits
    // at most one sample per epoch, stamped with the *latest*
    // straddled grid point.
    obs::TimelineSampler sampler;
    sampler.configure(0.4);
    double grid = 0.0;
    ASSERT_TRUE(sampler.due(0.0, &grid));
    EXPECT_DOUBLE_EQ(grid, 0.0);
    ASSERT_TRUE(sampler.due(1.0, &grid)); // straddles 0.4 and 0.8
    EXPECT_DOUBLE_EQ(grid, 0.8);          // 0.4 skipped, not replayed
    EXPECT_FALSE(sampler.due(1.1, &grid));
    ASSERT_TRUE(sampler.due(1.2, &grid));
    EXPECT_DOUBLE_EQ(grid, 1.2);
}

TEST(ObsTimeline, DisabledAndResetBehave)
{
    obs::TimelineSampler sampler;
    double grid = 0.0;
    EXPECT_FALSE(sampler.due(10.0, &grid)); // period 0: disabled
    sampler.configure(1.0);
    ASSERT_TRUE(sampler.due(0.0, &grid));
    EXPECT_FALSE(sampler.due(0.5, &grid));
    sampler.reset();
    ASSERT_TRUE(sampler.due(0.0, &grid));
    EXPECT_DOUBLE_EQ(grid, 0.0);
}

TEST(ObsTimeline, JsonlWriterEmitsStrictLines)
{
    std::ostringstream os;
    obs::writeTimelineJsonl(
        os, {0.0, 0.25}, {{18.0, 19.5}, {18.2, 20.1}});
    std::string error;
    EXPECT_EQ(obs::json::validateLines(os.str(), &error), 2) << error;
    EXPECT_NE(os.str().find("\"tS\":0.25"), std::string::npos);
}

// ----------------------------------------------------- engine wiring

TEST(ObsEngine, TimelineStampsLieOnTheExactGrid)
{
    // Regression for the drifting sampler: every emitted timestamp is
    // exactly k * timelineSampleS (EXPECT_DOUBLE_EQ, not NEAR).
    SimConfig config = smallConfig();
    config.timelineSampleS = 0.25;
    DenseServerSim sim(config, makeScheduler("CP"));
    const SimMetrics m = sim.run();
    ASSERT_GE(m.timelineS.size(), 8u);
    ASSERT_EQ(m.timelineS.size(), m.zoneAmbientC.size());
    for (std::size_t k = 0; k < m.timelineS.size(); ++k)
        EXPECT_DOUBLE_EQ(m.timelineS[k],
                         0.25 * static_cast<double>(k));
}

TEST(ObsEngine, SubEpochPeriodEmitsOnePerEpochOnGrid)
{
    // timelineSampleS < pmEpochS: the historical sampler emitted a
    // sample *every* epoch with off-grid stamps forever. Now: still at
    // most one sample per epoch, but stamped on the exact grid.
    SimConfig config = smallConfig();
    config.simTimeS = 0.5;
    config.warmupS = 0.1;
    config.pmEpochS = 1e-2;
    config.timelineSampleS = 4e-3;
    DenseServerSim sim(config, makeScheduler("CP"));
    const SimMetrics m = sim.run();

    ASSERT_FALSE(m.timelineS.empty());
    double prev = -1.0;
    for (double t : m.timelineS) {
        const double k = t / 4e-3;
        EXPECT_DOUBLE_EQ(t, 4e-3 * std::round(k));
        EXPECT_GT(t, prev);
        prev = t;
    }
    // One sample per epoch, no more (the old bug fired every epoch
    // *and* drifted; here the count equals the epoch count only
    // because every epoch straddles a fresh grid point).
    std::size_t engine_epochs = 0;
    for (const auto &c : sim.observability().counters()) {
        if (c.name == "engine.epochs")
            engine_epochs = c.value;
    }
    EXPECT_EQ(m.timelineS.size(), engine_epochs);
}

TEST(ObsEngine, WarmupStraddlingDoesNotShiftTheGrid)
{
    // A warmup boundary that is not a grid multiple must not offset
    // the sampling grid — samples cover the whole run from t = 0.
    SimConfig config = smallConfig();
    config.warmupS = 0.33;
    config.timelineSampleS = 0.25;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    ASSERT_GE(m.timelineS.size(), 3u);
    EXPECT_DOUBLE_EQ(m.timelineS[0], 0.0);
    EXPECT_DOUBLE_EQ(m.timelineS[1], 0.25);
    EXPECT_DOUBLE_EQ(m.timelineS[2], 0.5);
}

TEST(ObsEngine, CountersResetBetweenRunsAndMatchMetrics)
{
    SimConfig config = smallConfig();
    config.timelineSampleS = 0.25;
    DenseServerSim sim(config, makeScheduler("CP"));
    const SimMetrics m1 = sim.run();
    const auto counters1 = sim.observability().counters();
    const SimMetrics m2 = sim.run();
    const auto counters2 = sim.observability().counters();

    // Deterministic engine + per-run reset: identical snapshots.
    ASSERT_EQ(counters1.size(), counters2.size());
    for (std::size_t i = 0; i < counters1.size(); ++i) {
        EXPECT_EQ(counters1[i].name, counters2[i].name);
        EXPECT_EQ(counters1[i].value, counters2[i].value)
            << counters1[i].name;
    }

    std::map<std::string, std::uint64_t> byName;
    for (const auto &c : counters1)
        byName[c.name] = c.value;
    EXPECT_GT(byName["engine.epochs"], 0u);
    EXPECT_EQ(byName["engine.schedDecisions"], sim.decisions());
    EXPECT_EQ(byName["obs.timelineSamples"], m1.timelineS.size());
    // The metric only counts post-warmup completions; the counter
    // counts all of them.
    EXPECT_GE(byName["engine.jobsCompleted"], m1.jobsCompleted);
    EXPECT_GT(byName["engine.jobsPlaced"], 0u);
    EXPECT_GT(byName["sched.CP.picks"], 0u);
    EXPECT_GT(byName["power.dvfsSearches"], 0u);
    (void)m2;
}

TEST(ObsEngine, WritesValidTraceAndTimelineFiles)
{
    const std::string trace_path =
        testing::TempDir() + "obs_test_trace.json";
    const std::string timeline_path =
        testing::TempDir() + "obs_test_timeline.jsonl";
    SimConfig config = smallConfig();
    config.simTimeS = 1.0;
    config.warmupS = 0.2;
    config.timelineSampleS = 0.25;
    config.obsTracePath = trace_path;
    config.obsTimelinePath = timeline_path;
    config.fault.socketFailCount = 2;
    config.fault.socketFailS = 0.5;
    DenseServerSim sim(config, makeScheduler("CP"));
    const SimMetrics m = sim.run();

    std::string error;
    const std::string trace = slurp(trace_path);
    EXPECT_TRUE(obs::json::validate(trace, &error)) << error;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    // Simulated-time fault spans, and no wall-clock phase span.
    EXPECT_NE(trace.find("\"cat\":\"fault\""), std::string::npos);
    EXPECT_EQ(trace.find("\"cat\":\"engine\""), std::string::npos);

    const std::string timeline = slurp(timeline_path);
    EXPECT_EQ(obs::json::validateLines(timeline, &error),
              static_cast<long>(m.timelineS.size()))
        << error;
}

// ------------------------------------------------------- metrics I/O

TEST(ObsMetricsIo, JsonIsStrictEvenWithNonFiniteStats)
{
    // A run that completed zero jobs leaves RunningStats::max() at
    // -inf; the historical emitter wrote that straight into the JSON.
    const SimMetrics empty{};
    const std::string json = metricsToJson(empty);
    std::string error;
    EXPECT_TRUE(obs::json::validate(json, &error)) << error;
    EXPECT_NE(json.find("\"runtimeExpansionMax\":null"),
              std::string::npos);
    // First-field placement: opens cleanly, no "{," artifact from the
    // historical mismatched field() overloads.
    EXPECT_EQ(json.rfind("{\"jobsArrived\":", 0), 0u);
}

TEST(ObsMetricsIo, CountersToJsonIsStrict)
{
    SimConfig config = smallConfig();
    DenseServerSim sim(config, makeScheduler("CP"));
    sim.run();
    const std::string json = countersToJson(sim.observability());
    std::string error;
    EXPECT_TRUE(obs::json::validate(json, &error)) << error;
    EXPECT_NE(json.find("\"engine.epochs\""), std::string::npos);
    EXPECT_NE(json.find("\"unit\":\"W\""), std::string::npos);
}

TEST(ObsMetricsIo, TimelineToJsonlMatchesFileFormat)
{
    SimConfig config = smallConfig();
    config.timelineSampleS = 0.5;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    const std::string jsonl = timelineToJsonl(m);
    std::string error;
    EXPECT_EQ(obs::json::validateLines(jsonl, &error),
              static_cast<long>(m.timelineS.size()))
        << error;
    EXPECT_EQ(timelineToJsonl(SimMetrics{}), "");
}

} // namespace
} // namespace densim
