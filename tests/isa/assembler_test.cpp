/**
 * @file
 * Assembler tests: label resolution (forward and backward), emitted
 * instruction fields, failure modes, shared Program storage, and
 * once-per-program data-symbol binding by the sync emitters.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "isa/assembler.hh"
#include "sync/barriers.hh"
#include "sync/signal_wait.hh"

namespace cbsim {
namespace {

TEST(Assembler, ResolvesBackwardLabels)
{
    Assembler a;
    a.label("top");
    a.movImm(1, 5);
    a.bnez(1, "top");
    Program p = a.assemble();
    EXPECT_EQ(p.at(1).imm, 0u);
}

TEST(Assembler, ResolvesForwardLabels)
{
    Assembler a;
    a.beqz(1, "out");
    a.movImm(2, 7);
    a.label("out");
    a.done();
    Program p = a.assemble();
    EXPECT_EQ(p.at(0).imm, 2u);
}

TEST(Assembler, UndefinedLabelIsFatal)
{
    Assembler a;
    a.jump("nowhere");
    EXPECT_THROW(a.assemble(), FatalError);
}

TEST(Assembler, DuplicateLabelIsFatal)
{
    Assembler a;
    a.label("x");
    a.movImm(0, 0);
    EXPECT_THROW(a.label("x"), FatalError);
}

TEST(Assembler, AppendsDoneIfMissing)
{
    Assembler a;
    a.movImm(1, 1);
    Program p = a.assemble();
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p.at(1).op, Opcode::Done);
}

TEST(Assembler, EmptyProgramGetsDone)
{
    Assembler a;
    Program p = a.assemble();
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p.at(0).op, Opcode::Done);
}

TEST(Assembler, MemoryOperandsEncode)
{
    Assembler a;
    a.ld(3, 4, 16);
    a.stImm(99, 5, -8);
    Program p = a.assemble();
    EXPECT_EQ(p.at(0).op, Opcode::Ld);
    EXPECT_EQ(p.at(0).rd, 3);
    EXPECT_EQ(p.at(0).addrReg, 4);
    EXPECT_EQ(p.at(0).offset, 16);
    EXPECT_EQ(p.at(1).op, Opcode::St);
    EXPECT_TRUE(p.at(1).useImm);
    EXPECT_EQ(p.at(1).imm, 99u);
    EXPECT_EQ(p.at(1).offset, -8);
}

TEST(Assembler, RacyOpsAreSyncMarkedByDefault)
{
    Assembler a;
    a.ldThrough(1, 2);
    a.ldCb(1, 2);
    a.stThroughImm(0, 2);
    a.stCb1Imm(0, 2);
    a.stCb0Imm(0, 2);
    a.atomic(1, 2, 0, AtomicFunc::TestAndSet, 1, 0, false,
             WakePolicy::Zero);
    Program p = a.assemble();
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_TRUE(p.at(i).sync) << i;
}

TEST(Assembler, DrfOpsAreNotSyncMarked)
{
    Assembler a;
    a.ld(1, 2);
    a.stImm(0, 2);
    Program p = a.assemble();
    EXPECT_FALSE(p.at(0).sync);
    EXPECT_FALSE(p.at(1).sync);
}

TEST(Assembler, AtomicFieldsEncode)
{
    Assembler a;
    a.atomic(7, 8, 0, AtomicFunc::TestAndSet, 1, 0, true,
             WakePolicy::Zero);
    a.atomicReg(6, 8, 0, AtomicFunc::FetchAndStore, 5, 0, false,
                WakePolicy::All);
    Program p = a.assemble();
    EXPECT_EQ(p.at(0).func, AtomicFunc::TestAndSet);
    EXPECT_TRUE(p.at(0).ldCb);
    EXPECT_EQ(p.at(0).wake, WakePolicy::Zero);
    EXPECT_TRUE(p.at(0).useImm);
    EXPECT_EQ(p.at(1).func, AtomicFunc::FetchAndStore);
    EXPECT_FALSE(p.at(1).useImm);
    EXPECT_EQ(p.at(1).rs1, 5);
}

TEST(Assembler, SpinFlagIsSettable)
{
    Assembler a;
    a.ldThrough(1, 2).spin = true;
    Program p = a.assemble();
    EXPECT_TRUE(p.at(0).spin);
}

TEST(Assembler, ListingShowsOpcodes)
{
    Assembler a;
    a.movImm(1, 7);
    a.ldCb(2, 1);
    Program p = a.assemble();
    const auto text = p.listing();
    EXPECT_NE(text.find("movi"), std::string::npos);
    EXPECT_NE(text.find("ld_cb"), std::string::npos);
}

TEST(Program, CopySharesStorage)
{
    Assembler a;
    a.movImm(1, 7);
    a.dataSymbol("x", 0x1000);
    const Program orig = a.assemble();
    const Program copy = orig;
    EXPECT_EQ(&copy.at(0), &orig.at(0));
    EXPECT_EQ(&copy.symbols(), &orig.symbols());
    EXPECT_EQ(copy.size(), orig.size());
}

TEST(Program, MovedFromIsEmpty)
{
    Assembler a;
    a.movImm(1, 7);
    Program orig = a.assemble();
    const Instruction* first = &orig.at(0);
    Program moved = std::move(orig);
    EXPECT_EQ(&moved.at(0), first);
    EXPECT_TRUE(orig.empty()); // moved-from: empty, not dangling
    EXPECT_EQ(orig.size(), 0u);
    EXPECT_TRUE(orig.symbols().empty());
}

TEST(Program, DefaultIsEmpty)
{
    const Program p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
    EXPECT_TRUE(p.symbols().empty());
    EXPECT_EQ(p.listing(), "");
}

TEST(Assembler, FirstSymbolBindingWins)
{
    Assembler a;
    EXPECT_FALSE(a.hasSymbol(0x40));
    a.dataSymbol("first", 0x40);
    a.dataSymbol("second", 0x40);
    EXPECT_TRUE(a.hasSymbol(0x40));
    const Program p = a.assemble();
    ASSERT_EQ(p.symbols().size(), 1u);
    EXPECT_EQ(p.symbols().at(0x40), "first");
}

TEST(Assembler, UniqueLabelNamesTheEmissionPoint)
{
    Assembler a;
    EXPECT_EQ(a.uniqueLabel("spn"), "spn_0");
    a.movImm(1, 1);
    a.movImm(1, 2);
    EXPECT_EQ(a.uniqueLabel("out"), "out_2");
}

/** Thread @p tid's program: @p episodes rounds of every sync emitter. */
Program
syncProgram(unsigned episodes, CoreId tid)
{
    constexpr unsigned threads = 8;
    SyncLayout layout;
    const BarrierHandle tree = makeTreeBarrier(layout, threads);
    const BarrierHandle sr =
        makeSrBarrier(layout, threads, LockAlgo::Clh);
    const LockHandle clh = makeLock(layout, LockAlgo::Clh, threads);
    const LockHandle ticket = makeLock(layout, LockAlgo::Ticket, threads);
    const SignalHandle sig = makeSignal(layout);

    Assembler a;
    for (unsigned e = 0; e < episodes; ++e) {
        emitBarrier(a, tree, SyncFlavor::CbOne, tid);
        emitBarrier(a, sr, SyncFlavor::CbOne, tid);
        emitAcquire(a, clh, SyncFlavor::CbOne, tid);
        emitRelease(a, clh, SyncFlavor::CbOne, tid);
        emitAcquire(a, ticket, SyncFlavor::CbOne, tid);
        emitRelease(a, ticket, SyncFlavor::CbOne, tid);
        emitSignal(a, sig, SyncFlavor::CbOne);
        emitWait(a, sig, SyncFlavor::CbOne);
    }
    return a.assemble();
}

TEST(Assembler, SyncEmittersBindEachHandleOncePerProgram)
{
    const Program once = syncProgram(1, 3);
    const Program twice = syncProgram(2, 3);
    EXPECT_GT(twice.size(), once.size());
    EXPECT_EQ(twice.symbols(), once.symbols());

    // Every handle is named: the tree barrier's three lines per thread,
    // the SR barrier's counter and sense, CLH locks' word and 9 nodes
    // (the SR counter lock's too), the ticket lock's two words, and the
    // signal counter.
    EXPECT_EQ(once.symbols().size(), 3u * 8 + 2 + 2 * 10 + 2 + 1);
    std::set<std::string> names;
    for (const auto& [addr, name] : once.symbols())
        names.insert(name);
    EXPECT_EQ(names.count("barrier0.cnr0.0"), 1u);
    EXPECT_EQ(names.count("barrier0.wake.7"), 1u);
    EXPECT_EQ(names.count("barrier1.counter"), 1u);
    EXPECT_EQ(names.count("barrier1.lock.node8"), 1u);
    EXPECT_EQ(names.count("lock1.node0"), 1u);
    EXPECT_EQ(names.count("lock2.next_ticket"), 1u);
    EXPECT_EQ(names.count("signal0"), 1u);
}

TEST(AtomicEval, TestAndSet)
{
    auto r = evalAtomic(AtomicFunc::TestAndSet, 0, 1, 0);
    EXPECT_TRUE(r.doWrite);
    EXPECT_EQ(r.newValue, 1u);
    r = evalAtomic(AtomicFunc::TestAndSet, 1, 1, 0);
    EXPECT_FALSE(r.doWrite);
}

TEST(AtomicEval, FetchAndStoreAlwaysWrites)
{
    auto r = evalAtomic(AtomicFunc::FetchAndStore, 123, 456, 0);
    EXPECT_TRUE(r.doWrite);
    EXPECT_EQ(r.newValue, 456u);
}

TEST(AtomicEval, FetchAndAdd)
{
    auto r = evalAtomic(AtomicFunc::FetchAndAdd, 10, 5, 0);
    EXPECT_TRUE(r.doWrite);
    EXPECT_EQ(r.newValue, 15u);
    // Decrement via two's-complement operand.
    r = evalAtomic(AtomicFunc::FetchAndAdd, 10, static_cast<Word>(-1), 0);
    EXPECT_EQ(r.newValue, 9u);
}

TEST(AtomicEval, TestAndDec)
{
    auto r = evalAtomic(AtomicFunc::TestAndDec, 3, 0, 0);
    EXPECT_TRUE(r.doWrite);
    EXPECT_EQ(r.newValue, 2u);
    r = evalAtomic(AtomicFunc::TestAndDec, 0, 0, 0);
    EXPECT_FALSE(r.doWrite);
}

} // namespace
} // namespace cbsim
