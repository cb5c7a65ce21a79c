/**
 * @file
 * Tests for configuration and metrics I/O: key application, file
 * round-trips, error handling, JSON/CSV export.
 */

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config_io.hh"
#include "core/dense_server_sim.hh"
#include "core/metrics_io.hh"
#include "sched/factory.hh"

namespace densim {
namespace {

TEST(ConfigIo, AppliesScalarKeys)
{
    SimConfig config;
    applyConfigKey(config, "load", "0.75");
    applyConfigKey(config, "seed", "99");
    applyConfigKey(config, "tLimitC", "90");
    EXPECT_DOUBLE_EQ(config.load, 0.75);
    EXPECT_EQ(config.seed, 99u);
    EXPECT_DOUBLE_EQ(config.tLimitC, 90.0);
}

TEST(ConfigIo, AppliesNestedKeys)
{
    SimConfig config;
    applyConfigKey(config, "topo.rows", "5");
    applyConfigKey(config, "topo.inletC", "25.5");
    applyConfigKey(config, "coupling.wakeFactor", "2.0");
    EXPECT_EQ(config.topo.rows, 5);
    EXPECT_DOUBLE_EQ(config.topo.inletC, 25.5);
    EXPECT_DOUBLE_EQ(config.coupling.wakeFactor, 2.0);
}

TEST(ConfigIo, AppliesEnumAndBool)
{
    SimConfig config;
    applyConfigKey(config, "workload", "Storage");
    applyConfigKey(config, "migrationEnabled", "true");
    applyConfigKey(config, "warmStart", "no");
    EXPECT_EQ(config.workload, WorkloadSet::Storage);
    EXPECT_TRUE(config.migrationEnabled);
    EXPECT_FALSE(config.warmStart);
}

TEST(ConfigIo, UnknownKeyIsFatal)
{
    SimConfig config;
    EXPECT_EXIT(applyConfigKey(config, "loda", "0.5"),
                ::testing::ExitedWithCode(1), "unknown key");
}

TEST(ConfigIo, BadValueIsFatal)
{
    SimConfig config;
    EXPECT_EXIT(applyConfigKey(config, "load", "fast"),
                ::testing::ExitedWithCode(1), "cannot parse");
    EXPECT_EXIT(applyConfigKey(config, "topo.rows", "2.5"),
                ::testing::ExitedWithCode(1), "integer");
    EXPECT_EXIT(applyConfigKey(config, "warmStart", "maybe"),
                ::testing::ExitedWithCode(1), "boolean");
    EXPECT_EXIT(applyConfigKey(config, "load", "nan"),
                ::testing::ExitedWithCode(1), "'load' needs a finite");
    EXPECT_EXIT(applyConfigKey(config, "simTimeS", "inf"),
                ::testing::ExitedWithCode(1), "'simTimeS' needs a finite");
    EXPECT_EXIT(applyConfigKey(config, "socketTauS", "-inf"),
                ::testing::ExitedWithCode(1),
                "'socketTauS' needs a finite");
    EXPECT_EXIT(applyConfigKey(config, "topo.rows", "1e10"),
                ::testing::ExitedWithCode(1), "integer");
    EXPECT_EXIT(applyConfigKey(config, "topo.rows", "nan"),
                ::testing::ExitedWithCode(1), "'topo.rows' needs a finite");
    // Unsigned keys take digits only: a sign must not wrap around.
    EXPECT_EXIT(applyConfigKey(config, "seed", "-1"),
                ::testing::ExitedWithCode(1),
                "cannot parse '-1' for key 'seed'");
    EXPECT_EXIT(applyConfigKey(config, "fleet.seed", "-3"),
                ::testing::ExitedWithCode(1),
                "cannot parse '-3' for key 'fleet.seed'");
    EXPECT_EXIT(applyConfigKey(config, "fault.seed", "-1"),
                ::testing::ExitedWithCode(1),
                "cannot parse '-1' for key 'fault.seed'");
}

TEST(ConfigIo, ParsesStreamWithCommentsAndBlanks)
{
    SimConfig config;
    std::stringstream in("# experiment\n\nload = 0.6  # mid\n"
                         "topo.rows = 4\nworkload = GP\n");
    loadConfig(config, in);
    EXPECT_DOUBLE_EQ(config.load, 0.6);
    EXPECT_EQ(config.topo.rows, 4);
    EXPECT_EQ(config.workload, WorkloadSet::GeneralPurpose);
}

TEST(ConfigIo, MalformedLineIsFatal)
{
    SimConfig config;
    std::stringstream in("load 0.6\n");
    EXPECT_EXIT(loadConfig(config, in), ::testing::ExitedWithCode(1),
                "key = value");
}

TEST(ConfigIo, SaveLoadRoundTrip)
{
    SimConfig config;
    config.load = 0.42;
    config.workload = WorkloadSet::Storage;
    config.topo.rows = 7;
    config.coupling.kappaLocal = 2.25;
    config.migrationEnabled = true;

    const std::string text = saveConfig(config);
    SimConfig loaded;
    std::stringstream in(text);
    loadConfig(loaded, in);
    EXPECT_DOUBLE_EQ(loaded.load, 0.42);
    EXPECT_EQ(loaded.workload, WorkloadSet::Storage);
    EXPECT_EQ(loaded.topo.rows, 7);
    EXPECT_DOUBLE_EQ(loaded.coupling.kappaLocal, 2.25);
    EXPECT_TRUE(loaded.migrationEnabled);

    // Doubles that need all 17 significant digits come back exactly.
    config.load = 0.1 + 0.2;
    config.coupling.kappaLocal = 1.2345678901234567;
    SimConfig exact;
    std::stringstream full(saveConfig(config));
    loadConfig(exact, full);
    EXPECT_EQ(exact.load, config.load);
    EXPECT_EQ(exact.coupling.kappaLocal, config.coupling.kappaLocal);
}

TEST(ConfigIo, SaveCoversEveryAppliedDefault)
{
    // Every key printed by saveConfig must be re-loadable.
    SimConfig config;
    const std::string text = saveConfig(config);
    SimConfig loaded;
    std::stringstream in(text);
    loadConfig(loaded, in); // would be fatal on any bad key
    EXPECT_DOUBLE_EQ(loaded.load, config.load);
    EXPECT_DOUBLE_EQ(loaded.socketTauS, config.socketTauS);
}

TEST(ConfigIo, UnknownKeySuggestsTheNearestKey)
{
    SimConfig config;
    EXPECT_EXIT(applyConfigKey(config, "socketTauX", "3"),
                ::testing::ExitedWithCode(1),
                "did you mean 'socketTauS'");
    EXPECT_EXIT(applyConfigKey(config, "fault.fanFails", "1"),
                ::testing::ExitedWithCode(1),
                "did you mean 'fault.fanFailS'");
}

TEST(ConfigIo, StreamErrorsCarryLineNumbers)
{
    {
        SimConfig config;
        std::stringstream in("load = 0.5\n\n# comment\nloda = 0.6\n");
        EXPECT_EXIT(loadConfig(config, in),
                    ::testing::ExitedWithCode(1),
                    "line 4: unknown key 'loda'");
    }
    {
        SimConfig config;
        std::stringstream in("load = 0.5\nseed = 1\nload = 0.6\n");
        EXPECT_EXIT(loadConfig(config, in),
                    ::testing::ExitedWithCode(1),
                    "line 3: duplicate key 'load' \\(first set at "
                    "line 1\\)");
    }
}

TEST(ConfigIo, FaultKeysRoundTrip)
{
    SimConfig config;
    applyConfigKey(config, "fault.fanFailS", "2.5");
    applyConfigKey(config, "fault.fanSpeedFrac", "0.25");
    applyConfigKey(config, "fault.sensorStuckCount", "3");
    applyConfigKey(config, "fault.dropoutPolicy", "conservative");
    applyConfigKey(config, "fault.seed", "12345678901234567");
    EXPECT_DOUBLE_EQ(config.fault.fanFailS, 2.5);
    EXPECT_EQ(config.fault.sensorStuckCount, 3);
    EXPECT_EQ(config.fault.dropoutPolicy,
              DropoutPolicy::Conservative);
    EXPECT_EQ(config.fault.seed, 12345678901234567ULL);
    EXPECT_TRUE(config.fault.enabled());

    const std::string text = saveConfig(config);
    SimConfig loaded;
    std::stringstream in(text);
    loadConfig(loaded, in);
    EXPECT_DOUBLE_EQ(loaded.fault.fanFailS, 2.5);
    EXPECT_DOUBLE_EQ(loaded.fault.fanSpeedFrac, 0.25);
    EXPECT_EQ(loaded.fault.sensorStuckCount, 3);
    EXPECT_EQ(loaded.fault.dropoutPolicy,
              DropoutPolicy::Conservative);
    EXPECT_EQ(loaded.fault.seed, 12345678901234567ULL);

    EXPECT_EXIT(
        applyConfigKey(config, "fault.dropoutPolicy", "optimistic"),
        ::testing::ExitedWithCode(1),
        "'lastGood' or 'conservative'");
}

TEST(ConfigIo, UnwritableSinkDirectoryIsFatalAtApplyTime)
{
    SimConfig config;
    EXPECT_EXIT(applyConfigKey(config, "obs.tracePath",
                               "/no/such/dir/trace.json"),
                ::testing::ExitedWithCode(1),
                "does not exist or is not writable");
    EXPECT_EXIT(applyConfigKey(config, "fault.logPath",
                               "/no/such/dir/faults.jsonl"),
                ::testing::ExitedWithCode(1),
                "does not exist or is not writable");
    // A writable directory is accepted.
    applyConfigKey(config, "obs.timelinePath",
                   testing::TempDir() + "timeline.jsonl");
}

TEST(MetricsIo, JsonContainsHeadlineFields)
{
    SimConfig config;
    config.topo.rows = 2;
    config.simTimeS = 0.5;
    config.warmupS = 0.1;
    config.socketTauS = 0.3;
    DenseServerSim sim(config, makeScheduler("CF"));
    const SimMetrics m = sim.run();
    const std::string json = metricsToJson(m);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    for (const char *key :
         {"jobsCompleted", "runtimeExpansionMean", "energyJ", "ed2",
          "avgRelFreq", "workFront", "maxChipTempC", "migrations"}) {
        EXPECT_NE(json.find(std::string("\"") + key + "\":"),
                  std::string::npos)
            << key;
    }
}

TEST(MetricsIo, CsvRowMatchesHeaderArity)
{
    SimMetrics m;
    m.runtimeExpansion.add(1.0);
    m.energyJ = 0.1 + 0.2;
    m.maxChipTempC = 77.679241643214953;
    const std::string header = metricsCsvHeader();
    const std::string row =
        metricsToCsvRow("CP", "Computation", 0.5, m);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
    EXPECT_EQ(row.rfind("CP,Computation,0.5,", 0), 0u);

    // Doubles parse back exactly (the column order of the header).
    std::vector<std::string> cells;
    std::stringstream in(row);
    for (std::string cell; std::getline(in, cell, ',');)
        cells.push_back(cell);
    ASSERT_EQ(cells.size(), 16u);
    EXPECT_EQ(std::strtod(cells[6].c_str(), nullptr), 0.1 + 0.2);
    EXPECT_EQ(std::strtod(cells[14].c_str(), nullptr),
              77.679241643214953);
}

} // namespace
} // namespace densim
