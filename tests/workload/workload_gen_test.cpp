/**
 * @file
 * Workload-generator unit tests: profile well-formedness, program
 * structure, layout disjointness, and per-flavour encoding differences.
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/program_gen.hh"
#include "workload/suite.hh"

namespace cbsim {
namespace {

TEST(Profiles, AllAreWellFormed)
{
    for (const auto& p : benchmarkSuite()) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_GE(p.phases, 1u);
        EXPECT_GE(p.numLocks, 1u);
        EXPECT_GT(p.workMean, 0u);
        EXPECT_GE(p.workImbalance, 0.0);
        EXPECT_LE(p.workImbalance, 1.0);
        EXPECT_LE(p.hotLockFraction, 1.0);
        EXPECT_GT(p.approxWorkPerThread(), 0u);
    }
}

TEST(Profiles, ScaledReducesVolume)
{
    const Profile& p = benchmark("ocean");
    Profile q = scaled(p, 0.25);
    EXPECT_LE(q.phases, p.phases);
    EXPECT_LT(q.workMean, p.workMean);
    EXPECT_GE(q.phases, 1u);
    // Scaling never zeroes out locks if the profile had them.
    EXPECT_GE(q.lockAcqPerPhase, 1u);
}

TEST(Profiles, QuickSuiteIsASubset)
{
    for (const auto& p : quickSuite())
        EXPECT_EQ(benchmark(p.name).name, p.name);
}

TEST(WorkloadGen, ProducesOneProgramPerThread)
{
    auto w = buildWorkload(benchmark("fmm"), 16, SyncFlavor::CbOne,
                           LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    ASSERT_EQ(w.programs.size(), 16u);
    for (const auto& prog : w.programs)
        EXPECT_GT(prog.size(), 10u);
    EXPECT_EQ(w.phaseWords.size(), 16u);
    EXPECT_EQ(w.guardWords.size(), w.locks.size());
}

TEST(WorkloadGen, GuardExpectationsSumToTotalAcquisitions)
{
    const Profile& p = benchmark("radiosity");
    auto w = buildWorkload(p, 16, SyncFlavor::Mesi,
                           LockAlgo::TestAndTestAndSet,
                           BarrierAlgo::SenseReversing);
    std::uint64_t total = 0;
    for (auto c : w.expectedGuardCounts)
        total += c;
    EXPECT_EQ(total, 16ULL * p.phases * p.lockAcqPerPhase);
}

TEST(WorkloadGen, HotLockGetsTheLionShare)
{
    const Profile& p = benchmark("raytrace"); // hot fraction 0.5
    auto w = buildWorkload(p, 16, SyncFlavor::CbAll, LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    std::uint64_t total = 0;
    for (auto c : w.expectedGuardCounts)
        total += c;
    EXPECT_GT(w.expectedGuardCounts[0], total / 3);
}

TEST(WorkloadGen, PipelineProfilesGetSignals)
{
    auto dedup = buildWorkload(benchmark("dedup"), 8, SyncFlavor::CbOne,
                               LockAlgo::Clh,
                               BarrierAlgo::TreeSenseReversing);
    EXPECT_EQ(dedup.signals.size(), 8u);
    auto fft = buildWorkload(benchmark("fft"), 8, SyncFlavor::CbOne,
                             LockAlgo::Clh,
                             BarrierAlgo::TreeSenseReversing);
    EXPECT_TRUE(fft.signals.empty());
}

TEST(WorkloadGen, FlavorsChangeEncodingNotStructure)
{
    const Profile& p = benchmark("ocean");
    auto mesi = buildWorkload(p, 8, SyncFlavor::Mesi, LockAlgo::Clh,
                              BarrierAlgo::TreeSenseReversing);
    auto cb = buildWorkload(p, 8, SyncFlavor::CbOne, LockAlgo::Clh,
                            BarrierAlgo::TreeSenseReversing);
    EXPECT_EQ(mesi.expectedGuardCounts, cb.expectedGuardCounts);

    // The MESI encoding contains no callback reads; the CB one does.
    auto count_op = [](const Program& prog, Opcode op) {
        std::size_t n = 0;
        for (std::size_t i = 0; i < prog.size(); ++i)
            n += prog.at(i).op == op ? 1 : 0;
        return n;
    };
    EXPECT_EQ(count_op(mesi.programs[1], Opcode::LdCb), 0u);
    EXPECT_GT(count_op(cb.programs[1], Opcode::LdCb), 0u);
    EXPECT_EQ(count_op(mesi.programs[1], Opcode::SelfInvl), 0u);
    EXPECT_GT(count_op(cb.programs[1], Opcode::SelfInvl), 0u);
}

TEST(WorkloadGen, LayoutInitsAreDisjointWords)
{
    auto w = buildWorkload(benchmark("barnes"), 16, SyncFlavor::CbAll,
                           LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    std::set<Addr> words;
    for (const auto& [addr, value] : w.layout.initWrites()) {
        EXPECT_TRUE(words.insert(AddrLayout::wordAlign(addr)).second)
            << "duplicate init at " << std::hex << addr;
    }
}

TEST(WorkloadGen, SymbolCountIsPinned)
{
    // Each program names the TreeSR barrier's 3 x 16 lines and, for
    // each of the 4 locks (every thread takes all of them), the CLH lock
    // word and its 17 nodes: 1920 over 16 programs. The emitters bind a handle's names on its first
    // episode in a program; a change in what they bind shows here.
    auto w = buildWorkload(benchmark("raytrace"), 16, SyncFlavor::CbOne,
                           LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    std::size_t symbols = 0;
    for (const auto& prog : w.programs)
        symbols += prog.symbols().size();
    EXPECT_EQ(symbols, 1920u);
}

TEST(SyncLayoutUnit, SeparatesLineAndPageRegions)
{
    SyncLayout layout;
    const Addr l1 = layout.allocLine();
    const Addr page = layout.allocPage();
    const Addr l2 = layout.allocLine();
    // Consecutive line allocations stay consecutive even when pages are
    // allocated in between (the bank-0 clustering regression).
    EXPECT_EQ(l2, l1 + AddrLayout::lineBytes);
    EXPECT_GE(page, 0x8000'0000ULL);
    EXPECT_EQ(page % AddrLayout::pageBytes, 0u);
}

TEST(SyncLayoutUnit, PrivateLinesNeverSharePagesAcrossThreads)
{
    SyncLayout layout;
    std::set<Addr> pages_by_thread[3];
    for (int round = 0; round < 200; ++round) {
        for (CoreId t = 0; t < 3; ++t) {
            const Addr a = layout.allocPrivateLine(t);
            pages_by_thread[t].insert(AddrLayout::pageNumber(a));
        }
    }
    for (int i = 0; i < 3; ++i) {
        for (int j = i + 1; j < 3; ++j) {
            for (Addr p : pages_by_thread[i])
                EXPECT_EQ(pages_by_thread[j].count(p), 0u);
        }
    }
}

} // namespace
} // namespace cbsim
