/**
 * @file
 * Tests for the experiment harness and its worker pool: empty-grid
 * handling, worker-exception propagation and pool reuse
 * (util/parallel.hh), and the
 * ordering-independence regression — the same grid run on 1 and on 4
 * threads must produce bit-identical metrics, since every cell is
 * independently seeded and deterministic.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "util/parallel.hh"

namespace densim {
namespace {

/** Small grid config: 24 sockets, short horizon. */
SimConfig
gridConfig()
{
    SimConfig config;
    config.topo.rows = 2;
    config.simTimeS = 1.0;
    config.warmupS = 0.25;
    config.socketTauS = 0.5;
    config.seed = 7;
    return config;
}

// ---------------------------------------------------- parallel pool

TEST(Parallel, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(64);
    for (auto &h : hits)
        h = 0;
    parallelFor(hits.size(), 4,
                [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ZeroItemsIsANoOp)
{
    parallelFor(0, 4, [](std::size_t) { FAIL() << "ran a work item"; });
}

TEST(Parallel, RethrowsFirstWorkerException)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(100, 4, [&](std::size_t i) {
            ++ran;
            if (i == 3)
                throw std::runtime_error("cell 3 exploded");
        });
        FAIL() << "worker exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 3 exploded");
    }
    // Abandonment of the remaining items is best-effort (in-flight
    // workers notice the failure at their next claim), so only the
    // upper bound is deterministic.
    EXPECT_LE(ran.load(), 100);
}

TEST(Parallel, ReportsEveryConcurrentWorkerFailure)
{
    // Two workers, two items, both throwing — a latch makes sure
    // both are mid-flight before either throws, so both exceptions
    // are captured (neither worker can abandon early). The first
    // captured one is rethrown; the other must still be reported on
    // stderr instead of vanishing.
    std::atomic<int> armed{0};
    testing::internal::CaptureStderr();
    try {
        parallelFor(2, 2, [&](std::size_t i) {
            ++armed;
            while (armed.load() < 2) {
            }
            throw std::runtime_error(
                "item " + std::to_string(i) + " exploded");
        });
        FAIL() << "worker exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("exploded"),
                  std::string::npos);
    }
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("item 0 exploded"), std::string::npos) << log;
    EXPECT_NE(log.find("item 1 exploded"), std::string::npos) << log;
    EXPECT_NE(log.find("parallelFor: worker"), std::string::npos)
        << log;
}

TEST(Parallel, ReportsNonStandardExceptionsToo)
{
    testing::internal::CaptureStderr();
    EXPECT_THROW(
        parallelFor(1, 1, [](std::size_t) { throw 42; }), int);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("(non-standard exception)"), std::string::npos)
        << log;
}

TEST(Parallel, ExceptionOnSingleThreadPropagates)
{
    EXPECT_THROW(parallelFor(4, 1,
                             [](std::size_t) {
                                 throw std::domain_error("boom");
                             }),
                 std::domain_error);
}

TEST(Parallel, ReusedPoolRunsEveryIndexExactlyOncePerRun)
{
    // Counts of 0, 1, below, at and above the pool's thread count,
    // in an order that grows and shrinks the set of helpers a run
    // wakes.
    WorkerPool pool(4);
    const std::size_t counts[] = {0, 1, 2, 3, 4, 5, 17, 64, 3, 1};
    std::vector<std::atomic<int>> hits(64);
    for (std::size_t run = 0; run < 60; ++run) {
        const std::size_t count = counts[run % std::size(counts)];
        for (auto &h : hits)
            h = 0;
        pool.run(count, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].load(), i < count ? 1 : 0)
                << "run " << run << ", count " << count << ", index "
                << i;
        }
    }
}

TEST(Parallel, RunAfterAThrowingRunCompletesClean)
{
    WorkerPool pool(3);
    testing::internal::CaptureStderr();
    EXPECT_THROW(pool.run(20,
                          [](std::size_t i) {
                              if (i == 7)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    (void)testing::internal::GetCapturedStderr();

    std::vector<std::atomic<int>> hits(20);
    for (auto &h : hits)
        h = 0;
    testing::internal::CaptureStderr();
    EXPECT_NO_THROW(pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; }));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

/** Threads in this process, or 0 where /proc does not list them. */
std::size_t
processThreads()
{
    std::error_code error;
    std::size_t threads = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", error);
         !error && it != std::filesystem::directory_iterator();
         it.increment(error))
        ++threads;
    return error ? 0 : threads;
}

TEST(Parallel, NoMoreThreadsRunItemsThanWorkersOrItems)
{
    // Where two workers may run, items hold on until a second thread
    // has joined in, so the run cannot finish on the calling thread
    // alone and the helpers are shown to take part. Helpers outlive
    // a run, so the process may hold one per worker of the widest run
    // so far beyond the calling thread, and no more. A first thread
    // lets a sanitizer runtime start any thread of its own.
    std::thread([] {}).join();
    const std::size_t before = processThreads();
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        WorkerPool pool(threads);
        std::size_t widest = 1;
        for (std::size_t count : {1u, 2u, 5u, 40u}) {
            const std::size_t cap =
                std::min<std::size_t>(threads, count);
            widest = std::max(widest, cap);
            std::mutex mutex;
            std::set<std::thread::id> ids;
            pool.run(count, [&](std::size_t) {
                const auto deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(10);
                for (;;) {
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        ids.insert(std::this_thread::get_id());
                        if (cap == 1 || ids.size() > 1)
                            return;
                    }
                    if (std::chrono::steady_clock::now() > deadline)
                        return;
                    std::this_thread::yield();
                }
            });
            EXPECT_LE(ids.size(), cap)
                << threads << " threads, " << count << " items";
            EXPECT_EQ(ids.size() > 1, cap > 1)
                << threads << " threads, " << count << " items";
            if (before > 0) {
                EXPECT_LE(processThreads(), before + widest - 1)
                    << threads << " threads, " << count << " items";
            }
        }
    }
}

TEST(Parallel, LeadRunsOnceOnTheCallingThread)
{
    WorkerPool pool(4);
    for (std::size_t count : {0u, 1u, 9u}) {
        int leads = 0;
        std::thread::id leadThread;
        std::atomic<std::size_t> ran{0};
        pool.run(
            count, [&](std::size_t) { ++ran; },
            [&] {
                ++leads;
                leadThread = std::this_thread::get_id();
            });
        EXPECT_EQ(leads, 1) << count << " items";
        EXPECT_EQ(leadThread, std::this_thread::get_id());
        EXPECT_EQ(ran.load(), count);
    }
    // A throwing lead abandons the items it has not yet claimed and
    // surfaces after the helpers are done; the pool stays usable.
    EXPECT_THROW(pool.run(
                     8, [](std::size_t) {},
                     [] { throw std::logic_error("lead failed"); }),
                 std::logic_error);
    std::atomic<std::size_t> ran{0};
    pool.run(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8u);
}

// ------------------------------------------------------- experiment

TEST(Experiment, EmptySpecsYieldEmptyResults)
{
    const std::vector<RunResult> results = runAll({}, 4);
    EXPECT_TRUE(results.empty());
}

TEST(Experiment, GridCoversSchedulersTimesLoads)
{
    const std::vector<RunSpec> specs = makeGrid(
        {"CF", "Random"}, WorkloadSet::Computation, {0.3, 0.6},
        gridConfig());
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].scheduler, "CF");
    EXPECT_DOUBLE_EQ(specs[1].config.load, 0.6);
}

void
expectIdentical(const SimMetrics &a, const SimMetrics &b)
{
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.jobsUnfinished, b.jobsUnfinished);
    EXPECT_EQ(a.runtimeExpansion.count(), b.runtimeExpansion.count());
    // Bitwise equality: each cell's computation is identical no
    // matter which worker thread executed it.
    EXPECT_EQ(a.runtimeExpansion.mean(), b.runtimeExpansion.mean());
    EXPECT_EQ(a.serviceExpansion.mean(), b.serviceExpansion.mean());
    EXPECT_EQ(a.queueDelayS.mean(), b.queueDelayS.mean());
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.makespanS, b.makespanS);
    EXPECT_EQ(a.totalWork, b.totalWork);
    EXPECT_EQ(a.maxChipTempC, b.maxChipTempC);
}

TEST(Experiment, DeterministicAcrossThreadCounts)
{
    const std::vector<RunSpec> specs = makeGrid(
        {"CF", "CP"}, WorkloadSet::Computation, {0.4, 0.8},
        gridConfig());

    const std::vector<RunResult> serial = runAll(specs, 1);
    const std::vector<RunResult> parallel = runAll(specs, 4);
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].scheduler + " @ " +
                     std::to_string(specs[i].config.load));
        EXPECT_EQ(serial[i].spec.scheduler, parallel[i].spec.scheduler);
        expectIdentical(serial[i].metrics, parallel[i].metrics);
    }
}

TEST(Experiment, SinksAreRewrittenPerRun)
{
    // Cells of one grid share a configuration, so each writes its
    // sinks under its own per-run name, and each result carries the
    // spec it ran, paths included.
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "densim_grid_sinks";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SimConfig config = gridConfig();
    config.timelineSampleS = 0.25;
    config.obsTracePath = (dir / "trace.json").string();
    config.obsTimelinePath = (dir / "timeline.jsonl").string();
    config.fault.logPath = (dir / "faults.jsonl").string();
    const std::vector<RunResult> results = runAll(
        makeGrid({"CF", "CP"}, WorkloadSet::Computation, {0.5}, config),
        2);
    ASSERT_EQ(results.size(), 2u);

    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string tag = "-run" + std::to_string(i);
        const SimConfig &ran = results[i].spec.config;
        EXPECT_EQ(ran.obsTracePath,
                  (dir / ("trace" + tag + ".json")).string());
        EXPECT_EQ(ran.obsTimelinePath,
                  (dir / ("timeline" + tag + ".jsonl")).string());
        EXPECT_EQ(ran.fault.logPath,
                  (dir / ("faults" + tag + ".jsonl")).string());
        for (const std::string &path :
             {ran.obsTracePath, ran.obsTimelinePath, ran.fault.logPath})
            EXPECT_TRUE(std::filesystem::exists(path)) << path;
    }
    for (const char *file : {"trace.json", "timeline.jsonl", "faults.jsonl"})
        EXPECT_FALSE(std::filesystem::exists(dir / file)) << file;
}

TEST(Experiment, IndexResultsKeysBySchedulerAndLoad)
{
    const std::vector<RunSpec> specs = makeGrid(
        {"CF"}, WorkloadSet::Computation, {0.5}, gridConfig());
    const auto index = indexResults(runAll(specs, 1));
    ASSERT_EQ(index.count("CF"), 1u);
    ASSERT_EQ(index.at("CF").count(0.5), 1u);
    EXPECT_GT(index.at("CF").at(0.5).jobsArrived, 0u);
}

} // namespace
} // namespace densim
