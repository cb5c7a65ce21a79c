/**
 * @file
 * Unit tests for the workload substrate: the 19-application catalog
 * and its Fig. 6 statistics, the Fig. 7 power/performance curves, the
 * Poisson job generator, and Xperf-style trace round-trips.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "util/stats.hh"
#include "workload/benchmark.hh"
#include "workload/curves.hh"
#include "workload/job_generator.hh"
#include "workload/xperf_trace.hh"

namespace densim {
namespace {

TEST(Catalog, NineteenApplications)
{
    EXPECT_EQ(pcmarkCatalog().size(), 19u);
}

TEST(Catalog, EverySetNonEmpty)
{
    for (WorkloadSet set : allWorkloadSets())
        EXPECT_FALSE(benchmarksInSet(set).empty());
}

TEST(Catalog, SetsPartitionTheCatalog)
{
    std::size_t total = 0;
    for (WorkloadSet set : allWorkloadSets())
        total += benchmarksInSet(set).size();
    EXPECT_EQ(total, pcmarkCatalog().size());
}

class CatalogSet : public ::testing::TestWithParam<WorkloadSet>
{
};

TEST_P(CatalogSet, MeanDurationsMillisecondScale)
{
    // Fig. 6(a): average job durations are on the order of a few ms.
    const double mean_s = setMeanDurationS(GetParam());
    EXPECT_GT(mean_s, 1e-3);
    EXPECT_LT(mean_s, 20e-3);
}

TEST_P(CatalogSet, CovAcrossAppsInPaperBand)
{
    // Fig. 6(b): the coefficient of variance across the average
    // durations of a set's applications is between 0.25 and 0.33.
    std::vector<double> means;
    for (std::size_t i : benchmarksInSet(GetParam()))
        means.push_back(pcmarkCatalog()[i].meanDurationMs);
    const double cov = coefficientOfVariation(means);
    EXPECT_GE(cov, 0.25);
    EXPECT_LE(cov, 0.33);
}

TEST_P(CatalogSet, CurveSizesMatchPStates)
{
    const FreqCurve &curve = freqCurveFor(GetParam());
    EXPECT_EQ(curve.totalPowerAt90C.size(), 5u);
    EXPECT_EQ(curve.perfRel.size(), 5u);
}

TEST_P(CatalogSet, PowerAndPerfMonotoneInFrequency)
{
    const FreqCurve &curve = freqCurveFor(GetParam());
    for (std::size_t i = 1; i < curve.perfRel.size(); ++i) {
        EXPECT_GT(curve.totalPowerAt90C[i],
                  curve.totalPowerAt90C[i - 1]);
        EXPECT_GT(curve.perfRel[i], curve.perfRel[i - 1]);
    }
    EXPECT_DOUBLE_EQ(curve.perfRel.back(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSets, CatalogSet,
    ::testing::ValuesIn(allWorkloadSets()),
    [](const ::testing::TestParamInfo<WorkloadSet> &param_info) {
        return workloadSetName(param_info.param);
    });

TEST(Curves, Figure7HeadlineFacts)
{
    // Computation: 18 W at 1900 MHz, ~35% perf loss over 800 MHz.
    const FreqCurve &comp = freqCurveFor(WorkloadSet::Computation);
    EXPECT_NEAR(comp.totalPowerAt90C.back(), 18.0, 1e-9);
    EXPECT_NEAR(comp.perfRel.front(), 0.65, 1e-9);
    // Storage: 10.5 W, least frequency sensitive.
    const FreqCurve &storage = freqCurveFor(WorkloadSet::Storage);
    EXPECT_NEAR(storage.totalPowerAt90C.back(), 10.5, 1e-9);
    EXPECT_GE(storage.perfRel.front(), 0.88);
    // GP sits between on power.
    const FreqCurve &gp = freqCurveFor(WorkloadSet::GeneralPurpose);
    EXPECT_GT(gp.totalPowerAt90C.back(),
              storage.totalPowerAt90C.back());
    EXPECT_LT(gp.totalPowerAt90C.back(),
              comp.totalPowerAt90C.back());
}

TEST(Curves, PerfInterpolationEndpointsAndMidpoint)
{
    EXPECT_DOUBLE_EQ(perfAtFreq(WorkloadSet::Computation, 1900.0), 1.0);
    EXPECT_DOUBLE_EQ(perfAtFreq(WorkloadSet::Computation, 1100.0),
                     0.65);
    EXPECT_NEAR(perfAtFreq(WorkloadSet::Computation, 1200.0),
                (0.65 + 0.7375) / 2.0, 1e-9);
    // Clamped outside the table.
    EXPECT_DOUBLE_EQ(perfAtFreq(WorkloadSet::Storage, 500.0), 0.90);
    EXPECT_DOUBLE_EQ(perfAtFreq(WorkloadSet::Storage, 2500.0), 1.0);
}

TEST(Curves, PeakPowerAccessor)
{
    EXPECT_DOUBLE_EQ(peakPowerW(WorkloadSet::Computation), 18.0);
    EXPECT_DOUBLE_EQ(peakPowerW(WorkloadSet::Storage), 10.5);
}

TEST(JobGenerator, DeterministicGivenSeed)
{
    JobGenerator a(WorkloadSet::Computation, 0.5, 180, 99);
    JobGenerator b(WorkloadSet::Computation, 0.5, 180, 99);
    for (int i = 0; i < 100; ++i) {
        const Job ja = a.next();
        const Job jb = b.next();
        EXPECT_DOUBLE_EQ(ja.arrivalS, jb.arrivalS);
        EXPECT_DOUBLE_EQ(ja.nominalS, jb.nominalS);
        EXPECT_EQ(ja.benchmark, jb.benchmark);
    }
}

TEST(JobGenerator, ArrivalsStrictlyIncrease)
{
    JobGenerator gen(WorkloadSet::Storage, 0.7, 180, 5);
    double last = -1.0;
    for (int i = 0; i < 1000; ++i) {
        const Job job = gen.next();
        EXPECT_GT(job.arrivalS, last);
        last = job.arrivalS;
    }
}

TEST(JobGenerator, RateScalesWithLoad)
{
    JobGenerator half(WorkloadSet::Computation, 0.5, 180, 1);
    JobGenerator full(WorkloadSet::Computation, 1.0, 180, 1);
    EXPECT_NEAR(full.arrivalRate(), 2.0 * half.arrivalRate(), 1e-9);
}

TEST(JobGenerator, EmpiricalRateMatchesNominal)
{
    JobGenerator gen(WorkloadSet::GeneralPurpose, 0.6, 180, 77);
    const auto jobs = gen.generateUntil(5.0);
    EXPECT_NEAR(static_cast<double>(jobs.size()) / 5.0,
                gen.arrivalRate(), 0.05 * gen.arrivalRate());
}

TEST(JobGenerator, WindowsIntoAReusedBufferReproduceGenerateUntil)
{
    // Windows drawn into one buffer, some empty, and a copy of the
    // generator taken mid-stream must both replay generateUntil's
    // stream exactly: the fleet draws each window on a copy.
    JobGenerator whole(WorkloadSet::Computation, 0.7, 180, 21);
    const std::vector<Job> expected = whole.generateUntil(0.2);
    ASSERT_GT(expected.size(), 100u);

    JobGenerator gen(WorkloadSet::Computation, 0.7, 180, 21);
    std::vector<Job> window;
    std::vector<Job> joined;
    for (int w = 1; w <= 400; ++w) {
        const double horizon = 0.0005 * w;
        if (w == 200) {
            JobGenerator copy = gen;
            copy.nextWindow(horizon, window);
            gen = copy;
        } else {
            gen.nextWindow(horizon, window);
        }
        joined.insert(joined.end(), window.begin(), window.end());
    }
    ASSERT_EQ(joined.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(joined[i].id, expected[i].id);
        EXPECT_EQ(joined[i].arrivalS, expected[i].arrivalS);
        EXPECT_EQ(joined[i].nominalS, expected[i].nominalS);
        EXPECT_EQ(joined[i].benchmark, expected[i].benchmark);
    }
}

TEST(JobGenerator, DurationsMatchCatalogMeans)
{
    JobGenerator gen(WorkloadSet::Computation, 0.5, 180, 3);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(gen.next().nominalS);
    EXPECT_NEAR(s.mean(), setMeanDurationS(WorkloadSet::Computation),
                0.05 * setMeanDurationS(WorkloadSet::Computation));
}

TEST(JobGenerator, HeavyTailTwoOrdersOfMagnitude)
{
    // Fig. 6(a): maximum job durations run ~2 orders of magnitude
    // above the mean.
    JobGenerator gen(WorkloadSet::Computation, 0.5, 180, 3);
    RunningStats s;
    for (int i = 0; i < 300000; ++i)
        s.add(gen.next().nominalS);
    EXPECT_GT(s.max(), 30.0 * s.mean());
    EXPECT_LT(s.max(), 1000.0 * s.mean());
}

TEST(JobGenerator, DrawsOnlyFromItsSet)
{
    JobGenerator gen(WorkloadSet::Storage, 0.5, 180, 9);
    for (int i = 0; i < 1000; ++i) {
        const Job job = gen.next();
        EXPECT_EQ(pcmarkCatalog()[job.benchmark].set,
                  WorkloadSet::Storage);
    }
}

TEST(JobGenerator, CoversAllAppsOfSet)
{
    JobGenerator gen(WorkloadSet::GeneralPurpose, 0.5, 180, 13);
    std::vector<bool> seen(pcmarkCatalog().size(), false);
    for (int i = 0; i < 5000; ++i)
        seen[gen.next().benchmark] = true;
    for (std::size_t idx : benchmarksInSet(WorkloadSet::GeneralPurpose))
        EXPECT_TRUE(seen[idx]) << pcmarkCatalog()[idx].name;
}

TEST(JobGenerator, InvalidLoadIsFatal)
{
    EXPECT_EXIT(JobGenerator(WorkloadSet::Computation, 0.0, 180, 1),
                ::testing::ExitedWithCode(1), "load");
    EXPECT_EXIT(JobGenerator(WorkloadSet::Computation, 1.5, 180, 1),
                ::testing::ExitedWithCode(1), "load");
}

TEST(XperfTrace, RoundTripPreservesJobs)
{
    JobGenerator gen(WorkloadSet::Computation, 0.5, 180, 21);
    XperfTrace trace = XperfTrace::capture(gen, 500);

    std::stringstream buffer;
    trace.save(buffer);
    const XperfTrace loaded = XperfTrace::load(buffer);

    ASSERT_EQ(loaded.jobs().size(), trace.jobs().size());
    EXPECT_EQ(loaded.set(), trace.set());
    for (std::size_t i = 0; i < trace.jobs().size(); ++i) {
        EXPECT_EQ(loaded.jobs()[i].benchmark, trace.jobs()[i].benchmark);
        EXPECT_NEAR(loaded.jobs()[i].arrivalS, trace.jobs()[i].arrivalS,
                    1e-6);
        EXPECT_NEAR(loaded.jobs()[i].nominalS, trace.jobs()[i].nominalS,
                    1e-6);
    }
}

TEST(XperfTrace, CommentsAndBlankLinesIgnored)
{
    std::stringstream in("densim-xperf 1\nset Storage\n"
                         "# a comment\n\n1000 6 2000\n");
    const XperfTrace trace = XperfTrace::load(in);
    ASSERT_EQ(trace.jobs().size(), 1u);
    EXPECT_EQ(trace.set(), WorkloadSet::Storage);
    EXPECT_NEAR(trace.jobs()[0].arrivalS, 1e-3, 1e-12);
}

TEST(XperfTrace, BadMagicIsFatal)
{
    std::stringstream in("not-a-trace\n");
    EXPECT_EXIT(XperfTrace::load(in), ::testing::ExitedWithCode(1),
                "magic");
}

TEST(XperfTrace, UnknownSetIsFatal)
{
    std::stringstream in("densim-xperf 1\nset Gaming\n");
    EXPECT_EXIT(XperfTrace::load(in), ::testing::ExitedWithCode(1),
                "unknown workload set");
}

TEST(XperfTrace, NonMonotoneArrivalIsFatal)
{
    std::stringstream in(
        "densim-xperf 1\nset Storage\n2000 6 100\n1000 6 100\n");
    EXPECT_EXIT(XperfTrace::load(in), ::testing::ExitedWithCode(1),
                "non-decreasing");
}

TEST(XperfTrace, OutOfRangeBenchmarkIsFatal)
{
    std::stringstream in("densim-xperf 1\nset Storage\n1000 99 100\n");
    EXPECT_EXIT(XperfTrace::load(in), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(XperfTrace, MalformedRecordsAreFatalAndQuoted)
{
    // Each field is a whole non-negative integer and nothing follows
    // the third: a trailing token, an exponent, a sign or a negative
    // benchmark index is one fatal error that quotes the line.
    for (const char *record :
         {"20 4 50 junk", "20 4 1e300", "-20 4 50", "20 -1 50"}) {
        std::stringstream in(std::string("densim-xperf 1\nset Storage\n") +
                             record + "\n");
        EXPECT_EXIT(XperfTrace::load(in), ::testing::ExitedWithCode(1),
                    std::string("malformed record '") + record + "'")
            << record;
    }
}

TEST(XperfTrace, TrailingTokenOnSetLineIsFatal)
{
    std::stringstream in("densim-xperf 1\nset Storage GP\n1000 6 100\n");
    EXPECT_EXIT(XperfTrace::load(in), ::testing::ExitedWithCode(1),
                "expected 'set <name>', got 'set Storage GP'");
}

TEST(WorkloadSetNames, RoundTrip)
{
    EXPECT_STREQ(workloadSetName(WorkloadSet::Computation),
                 "Computation");
    EXPECT_STREQ(workloadSetName(WorkloadSet::Storage), "Storage");
    EXPECT_STREQ(workloadSetName(WorkloadSet::GeneralPurpose), "GP");
}

} // namespace
} // namespace densim
