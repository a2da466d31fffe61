/**
 * @file
 * Parallel-determinism tier: a sweep runs whole chips concurrently, one
 * per worker thread, each on its own serial event kernel (DESIGN.md
 * §2.1). Chips share no mutable state, so every cell's result must be
 * identical for any worker count, and identical to the same cell run
 * directly on the calling thread — scalars, sync latency summaries,
 * the epoch series and the contention table. scripts/tsan_tests.sh
 * runs this suite under ThreadSanitizer (tsan_parallel_kernel).
 *
 * These are determinism tests, not speedup tests: they are meaningful
 * (and run) on a single-CPU host.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "debug/debug_config.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "system/chip_config.hh"

namespace cbsim {
namespace {

/**
 * Turn on epoch sampling and contention attribution in the process
 * defaults for one test, restore on exit. Sweep workers resolve
 * DebugConfig::current() from the process defaults, so a thread-local
 * DebugScope would not reach them.
 */
class ObservedDefaults
{
  public:
    ObservedDefaults() : saved_(DebugConfig::processDefaults())
    {
        DebugConfig& d = DebugConfig::processDefaults();
        d.obs.epochTicks = 500;
        d.obs.attribution = true;
    }
    ~ObservedDefaults() { DebugConfig::processDefaults() = saved_; }

    ObservedDefaults(const ObservedDefaults&) = delete;
    ObservedDefaults& operator=(const ObservedDefaults&) = delete;

  private:
    DebugConfig saved_;
};

/**
 * Every serialized quantity of a run: scalar counters, sync latency
 * summaries, the epoch series, and the contention table. Two runs
 * whose signatures match produce byte-identical artifacts.
 */
void
expectSameSignature(const ExperimentResult& a, const ExperimentResult& b)
{
    const auto fa = a.run.scalarFields();
    const auto fb = b.run.scalarFields();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
        ASSERT_STREQ(fa[i].first, fb[i].first);
        EXPECT_EQ(fa[i].second, fb[i].second) << fa[i].first;
    }
    for (std::size_t k = 0; k < SyncStats::numKinds; ++k) {
        EXPECT_EQ(a.run.sync[k].completions, b.run.sync[k].completions);
        EXPECT_EQ(a.run.sync[k].totalLatency, b.run.sync[k].totalLatency);
        EXPECT_EQ(a.run.sync[k].maxLatency, b.run.sync[k].maxLatency);
        EXPECT_EQ(a.run.sync[k].p99Latency, b.run.sync[k].p99Latency);
    }
    EXPECT_EQ(a.run.epochs, b.run.epochs);
    EXPECT_EQ(a.run.contention, b.run.contention);
}

/** Run @p jobs on a @p workers-thread sweep; every cell must succeed. */
std::vector<ExperimentResult>
sweep(const std::vector<SweepJob>& jobs, unsigned workers)
{
    SweepRunner runner(workers);
    for (const SweepJob& j : jobs)
        runner.add(j);
    std::vector<ExperimentResult> results;
    for (JobOutcome& o : runner.run()) {
        EXPECT_TRUE(o.ok) << o.error;
        results.push_back(std::move(o.result));
    }
    return results;
}

/** The benchmark cell of every test here: a short ocean at 16 cores. */
Profile
smallOcean()
{
    Profile p = scaled(benchmark("ocean"), 0.25);
    p.phases = 2;
    return p;
}

TEST(ParallelDeterminism, WorkerCountNeverChangesBenchmarkResults)
{
    ObservedDefaults observed;
    std::vector<SweepJob> jobs;
    for (Technique t : {Technique::Invalidation, Technique::BackOff10,
                        Technique::CbAll, Technique::CbOne})
        jobs.push_back(
            SweepJob::forProfile(techniqueName(t), smallOcean(), t, 16));
    const auto w1 = sweep(jobs, 1);
    ASSERT_EQ(w1.size(), jobs.size());
    EXPECT_FALSE(w1[0].run.epochs.empty());
    EXPECT_FALSE(w1[0].run.contention.empty());
    for (unsigned workers : {2u, 4u, 7u}) {
        const auto wn = sweep(jobs, workers);
        ASSERT_EQ(wn.size(), w1.size());
        for (std::size_t c = 0; c < w1.size(); ++c)
            expectSameSignature(w1[c], wn[c]);
    }
}

TEST(ParallelDeterminism, ShardedKernelTracksClassicKernel)
{
    // The cells of a sweep are sharded over worker threads, each chip
    // running its own kernel next to the others; the classic way is one
    // runExperiment() call on the calling thread. The two must agree
    // exactly — not within a tolerance — since a chip's event order is
    // a pure function of its config: any difference means a sweep job
    // builds a different machine, or concurrent chips share state.
    ObservedDefaults observed;
    const std::vector<Technique> techniques = {Technique::Invalidation,
                                               Technique::CbOne};
    std::vector<SweepJob> jobs;
    for (Technique t : techniques)
        jobs.push_back(
            SweepJob::forProfile(techniqueName(t), smallOcean(), t, 16));
    const auto sharded = sweep(jobs, 4);
    ASSERT_EQ(sharded.size(), techniques.size());
    for (std::size_t c = 0; c < techniques.size(); ++c) {
        const ExperimentResult classic =
            runExperiment(smallOcean(), techniques[c], 16);
        EXPECT_GT(classic.run.instructions, 0u);
        EXPECT_EQ(classic.run.events, sharded[c].run.events);
        expectSameSignature(classic, sharded[c]);
    }
}

TEST(ParallelDeterminism, SyncMicrosAreWorkerCountInvariant)
{
    std::vector<SweepJob> jobs;
    for (SyncMicro m : {SyncMicro::TtasLock, SyncMicro::ClhLock,
                        SyncMicro::TreeBarrier})
        jobs.push_back(SweepJob::forMicro(syncMicroName(m), m,
                                          Technique::CbOne, 16, 3));
    const auto w1 = sweep(jobs, 1);
    ASSERT_EQ(w1.size(), jobs.size());
    for (unsigned workers : {2u, 4u}) {
        const auto wn = sweep(jobs, workers);
        ASSERT_EQ(wn.size(), w1.size());
        for (std::size_t c = 0; c < w1.size(); ++c)
            expectSameSignature(w1[c], wn[c]);
    }
}

TEST(ParallelDeterminism, SmallMeshCollapsesToOneDomain)
{
    // A 1x1 mesh is the degenerate chip: one node, every message a
    // local delivery. Four copies of it running side by side must each
    // match the run on the calling thread event for event, and every
    // result names the one serial kernel: the artifact's "threads"
    // field stays the constant 0 that keeps old goldens and journal
    // config hashes valid.
    const ExperimentResult direct =
        runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 1, 2, 500);
    std::vector<SweepJob> jobs;
    for (const char* key : {"a", "b", "c", "d"})
        jobs.push_back(SweepJob::forMicro(key, SyncMicro::TtasLock,
                                          Technique::CbOne, 1, 2, 500));
    const auto copies = sweep(jobs, 4);
    ASSERT_EQ(copies.size(), jobs.size());
    for (const ExperimentResult& r : copies) {
        EXPECT_EQ(direct.run.events, r.run.events);
        expectSameSignature(direct, r);
    }
    bool sawThreads = false;
    for (const auto& [name, value] : direct.run.scalarFields()) {
        if (std::string_view(name) == "threads") {
            sawThreads = true;
            EXPECT_EQ(value, 0u);
        }
    }
    EXPECT_TRUE(sawThreads);
}

} // namespace
} // namespace cbsim
