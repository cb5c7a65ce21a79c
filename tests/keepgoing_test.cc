/**
 * @file
 * Tests for the keep-going experiment harness: per-cell fault
 * containment (one bad cell cannot take the sweep down), the sweep
 * summary JSON, digest-based resume, and the legacy fail-fast
 * behaviour when keep-going is off.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "json_validate.hh"
#include "util/logging.hh"

namespace densim {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

SimConfig
fastConfig()
{
    SimConfig config;
    config.topo.rows = 2;
    config.simTimeS = 0.6;
    config.warmupS = 0.1;
    config.socketTauS = 0.5;
    config.seed = 11;
    return config;
}

/** CF at two loads plus one cell with a nonexistent scheduler. */
std::vector<RunSpec>
mixedSpecs()
{
    std::vector<RunSpec> specs =
        makeGrid({"CF"}, WorkloadSet::Computation, {0.4, 0.7},
                 fastConfig());
    RunSpec bad;
    bad.scheduler = "NoSuchPolicy";
    bad.config = fastConfig();
    specs.push_back(bad);
    return specs;
}

// ------------------------------------------------- digests

TEST(RunDigest, IsStableAndConfigSensitive)
{
    RunSpec a;
    a.scheduler = "CF";
    a.config = fastConfig();
    EXPECT_EQ(runDigest(a), runDigest(a));
    EXPECT_EQ(runDigest(a).size(), 16u);

    RunSpec b = a;
    b.config.load = a.config.load + 0.1;
    EXPECT_NE(runDigest(a), runDigest(b));

    RunSpec c = a;
    c.scheduler = "CP";
    EXPECT_NE(runDigest(a), runDigest(c));

    RunSpec d = a;
    d.config.fault.fanFailS = 1.0;
    EXPECT_NE(runDigest(a), runDigest(d));

    // The digest sees every digit of a double, not just six.
    RunSpec e = a;
    e.config.load = a.config.load + 1e-9;
    EXPECT_NE(runDigest(a), runDigest(e));
}

// ------------------------------------------------- keep-going

TEST(KeepGoing, OneBadCellDoesNotStopTheSweep)
{
    SweepOptions options;
    options.keepGoing = true;
    options.threads = 2;
    const auto outcomes = runAllOutcomes(mixedSpecs(), options);
    ASSERT_EQ(outcomes.size(), 3u);

    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_GT(outcomes[0].metrics.jobsCompleted, 0u);
    EXPECT_GT(outcomes[1].metrics.jobsCompleted, 0u);

    EXPECT_FALSE(outcomes[2].ok);
    EXPECT_FALSE(outcomes[2].skipped);
    EXPECT_NE(outcomes[2].error.find("NoSuchPolicy"),
              std::string::npos);
    // The harness restores the historical fatal() behaviour.
    EXPECT_FALSE(fatalThrows());
}

TEST(KeepGoing, InjectedAbortIsCapturedPerCell)
{
    std::vector<RunSpec> specs = makeGrid(
        {"CF"}, WorkloadSet::Computation, {0.4, 0.7}, fastConfig());
    specs[1].config.fault.abortRunS = 0.2;

    SweepOptions options;
    options.keepGoing = true;
    const auto outcomes = runAllOutcomes(specs, options);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("abortRunS"), std::string::npos);
}

TEST(KeepGoing, WithoutKeepGoingTheFirstFailurePropagates)
{
    std::vector<RunSpec> specs = makeGrid(
        {"CF"}, WorkloadSet::Computation, {0.4}, fastConfig());
    specs[0].config.fault.abortRunS = 0.2;
    SweepOptions options; // keepGoing off.
    EXPECT_THROW((void)runAllOutcomes(specs, options),
                 std::runtime_error);
}

// ------------------------------------------------- summary JSON

TEST(KeepGoing, SummaryJsonIsStrictAndCountsStates)
{
    const std::string path =
        testing::TempDir() + "keepgoing_summary.json";
    SweepOptions options;
    options.keepGoing = true;
    options.summaryPath = path;
    const auto outcomes = runAllOutcomes(mixedSpecs(), options);

    const std::string doc = slurp(path);
    std::string error;
    ASSERT_TRUE(obs::json::validate(doc, &error)) << error;
    EXPECT_EQ(doc, sweepSummaryJson(outcomes));
    EXPECT_NE(doc.find("\"total\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"completed\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"failed\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(doc.find("NoSuchPolicy"), std::string::npos);
    std::remove(path.c_str());
}

// ------------------------------------------------- resume

TEST(KeepGoing, ResumeSkipsCompletedAndReattemptsFailed)
{
    const std::string manifest =
        testing::TempDir() + "keepgoing_manifest.txt";
    std::remove(manifest.c_str());

    SweepOptions options;
    options.keepGoing = true;
    options.resumePath = manifest;
    const auto first = runAllOutcomes(mixedSpecs(), options);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_FALSE(first[0].skipped);
    EXPECT_FALSE(first[1].skipped);

    const auto second = runAllOutcomes(mixedSpecs(), options);
    // Completed cells skip; the failed cell is re-attempted (and
    // fails again) rather than being treated as done.
    EXPECT_TRUE(second[0].skipped);
    EXPECT_TRUE(second[1].skipped);
    EXPECT_FALSE(second[2].skipped);
    EXPECT_FALSE(second[2].ok);
    std::remove(manifest.c_str());
}

TEST(KeepGoing, MissingManifestMeansFreshSweep)
{
    const std::string manifest =
        testing::TempDir() + "keepgoing_missing_manifest.txt";
    std::remove(manifest.c_str());
    SweepOptions options;
    options.keepGoing = true;
    options.resumePath = manifest;
    const std::vector<RunSpec> specs = makeGrid(
        {"CF"}, WorkloadSet::Computation, {0.4}, fastConfig());
    const auto outcomes = runAllOutcomes(specs, options);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].skipped);

    // The manifest now records the completed digest.
    const std::string text = slurp(manifest);
    EXPECT_NE(text.find(outcomes[0].digest), std::string::npos);
    std::remove(manifest.c_str());
}

TEST(KeepGoing, EmptyGridYieldsEmptyOutcomes)
{
    SweepOptions options;
    options.keepGoing = true;
    EXPECT_TRUE(runAllOutcomes({}, options).empty());
}

/**
 * Forces every file write to fail with EFBIG for its lifetime by
 * dropping RLIMIT_FSIZE to zero (and ignoring the SIGXFSZ that would
 * otherwise kill the process). The cheapest faithful stand-in for a
 * full disk during a manifest append.
 */
class ScopedZeroFileLimit
{
  public:
    ScopedZeroFileLimit()
    {
        getrlimit(RLIMIT_FSIZE, &prev_);
        prevHandler_ = signal(SIGXFSZ, SIG_IGN);
        struct rlimit zero = prev_;
        zero.rlim_cur = 0;
        setrlimit(RLIMIT_FSIZE, &zero);
    }
    ~ScopedZeroFileLimit()
    {
        setrlimit(RLIMIT_FSIZE, &prev_);
        signal(SIGXFSZ, prevHandler_);
    }
    ScopedZeroFileLimit(const ScopedZeroFileLimit &) = delete;
    ScopedZeroFileLimit &operator=(const ScopedZeroFileLimit &) =
        delete;

  private:
    struct rlimit prev_;
    void (*prevHandler_)(int) = SIG_DFL;
};

TEST(KeepGoing, FailedManifestAppendIsFatalNotSilent)
{
    // Regression: the manifest append used to go unchecked, so a
    // full disk silently dropped the digest and the cell silently
    // re-ran on resume. It must now surface as a FatalError naming
    // the manifest path — escaping the keep-going containment, which
    // is for per-cell simulation failures, not durability failures.
    const std::string manifest =
        testing::TempDir() + "keepgoing_enospc_manifest.txt";
    std::remove(manifest.c_str());
    SweepOptions options;
    options.keepGoing = true;
    options.threads = 1;
    options.resumePath = manifest;
    std::vector<RunSpec> specs =
        makeGrid({"CF"}, WorkloadSet::Computation, {0.4},
                 fastConfig());
    try {
        ScopedZeroFileLimit fullDisk;
        (void)runAllOutcomes(specs, options);
        FAIL() << "manifest append failure was swallowed";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("resume manifest"), std::string::npos)
            << what;
        EXPECT_NE(what.find(manifest), std::string::npos) << what;
        EXPECT_NE(what.find("cannot append digest"),
                  std::string::npos)
            << what;
    }
    std::remove(manifest.c_str());
}

} // namespace
} // namespace densim
