/**
 * @file
 * Mesh tests: X-Y routing distances, latency model, point-to-point
 * ordering (a protocol correctness prerequisite), contention, flit-hop
 * accounting, and the in-flight table behind the hop path (slot reuse
 * under re-entrant sends, tracking, leak reporting). The
 * sanitize_sim_noc tier runs this file under ASan+UBSan.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/chip_helpers.hh"
#include "debug/invariant_checker.hh"
#include "noc/mesh.hh"

namespace cbsim {
namespace {

struct MeshFixture : ::testing::Test
{
    EventQueue eq;
    StatsRegistry stats;
    NocConfig cfg;
    std::unique_ptr<Mesh> mesh;

    void
    build(unsigned w = 8, unsigned h = 8)
    {
        cfg.width = w;
        cfg.height = h;
        mesh = std::make_unique<Mesh>(eq, cfg, stats.scope("noc"));
    }

    Message
    msg(NodeId src, NodeId dst, MsgType t = MsgType::GetS)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.dstPort = Port::Bank;
        return m;
    }
};

TEST_F(MeshFixture, HopCountIsManhattanDistance)
{
    build();
    EXPECT_EQ(mesh->hopCount(0, 0), 0u);
    EXPECT_EQ(mesh->hopCount(0, 7), 7u);   // same row
    EXPECT_EQ(mesh->hopCount(0, 56), 7u);  // same column
    EXPECT_EQ(mesh->hopCount(0, 63), 14u); // opposite corner
    EXPECT_EQ(mesh->hopCount(9, 18), 2u);  // (1,1) -> (2,2)
}

TEST_F(MeshFixture, DeliveryLatencyMatchesModel)
{
    build();
    Tick arrival = 0;
    mesh->attach(63, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(0, 63));
    eq.run();
    // 14 hops * 6 cycles, single-flit control message, no contention.
    EXPECT_EQ(arrival, 14u * 6u);
    EXPECT_EQ(arrival, mesh->minLatency(msg(0, 63)));
}

TEST_F(MeshFixture, DataMessagePaysSerialization)
{
    build();
    Tick arrival = 0;
    mesh->attach(1, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(0, 1, MsgType::Data));
    eq.run();
    // 1 hop * 6 + (5 flits - 1) tail serialization.
    EXPECT_EQ(arrival, 6u + 4u);
}

TEST_F(MeshFixture, LocalDeliveryBypassesNetwork)
{
    build();
    Tick arrival = 0;
    mesh->attach(5, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(5, 5));
    eq.run();
    EXPECT_EQ(arrival, cfg.localLatency);
    EXPECT_EQ(mesh->flitHops(), 0u); // never entered the network
}

TEST_F(MeshFixture, FlitHopAccounting)
{
    build();
    mesh->attach(3, Port::Bank, [](const Message&) {});
    mesh->send(msg(0, 3));                 // 3 hops x 1 flit
    mesh->send(msg(0, 3, MsgType::Data));  // 3 hops x 5 flits
    eq.run();
    EXPECT_EQ(mesh->flitHops(), 3u + 15u);
    EXPECT_EQ(stats.counter("noc.packets"), 2u);
    EXPECT_EQ(stats.counter("noc.packets.GetS"), 1u);
    EXPECT_EQ(stats.counter("noc.packets.Data"), 1u);
}

TEST_F(MeshFixture, PointToPointOrderingHolds)
{
    // Same source, same destination: X-Y routing + FCFS links must keep
    // message order (the MESI L1 relies on Data-before-Inv ordering).
    build();
    std::vector<std::uint64_t> order;
    mesh->attach(10, Port::Core, [&](const Message& m) {
        order.push_back(m.txn);
    });
    for (std::uint64_t i = 0; i < 20; ++i) {
        Message m = msg(0, 10);
        m.dstPort = Port::Core;
        m.txn = i;
        // Mix sizes so serialization could reorder if the model allowed.
        m.type = i % 3 == 0 ? MsgType::Data : MsgType::Inv;
        mesh->send(m);
    }
    eq.run();
    ASSERT_EQ(order.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(MeshFixture, ContentionDelaysSecondPacket)
{
    build();
    std::vector<Tick> arrivals;
    mesh->attach(1, Port::Bank,
                 [&](const Message&) { arrivals.push_back(eq.now()); });
    // Two 5-flit data packets over the same link, injected together.
    mesh->send(msg(0, 1, MsgType::Data));
    mesh->send(msg(0, 1, MsgType::Data));
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 10u);
    // Second starts crossing after the first's 5-cycle link occupancy.
    EXPECT_EQ(arrivals[1], 15u);
}

TEST_F(MeshFixture, CrossTrafficDoesNotInterfere)
{
    build();
    Tick a = 0, b = 0;
    mesh->attach(1, Port::Bank, [&](const Message&) { a = eq.now(); });
    mesh->attach(15, Port::Bank, [&](const Message&) { b = eq.now(); });
    mesh->send(msg(0, 1));
    mesh->send(msg(8, 15)); // different row, disjoint links
    eq.run();
    EXPECT_EQ(a, 6u);
    EXPECT_EQ(b, 7u * 6u);
}

TEST_F(MeshFixture, UnattachedEndpointPanics)
{
    build(2, 2);
    mesh->send(msg(0, 3));
    EXPECT_THROW(eq.run(), PanicError);
}

TEST_F(MeshFixture, SmallMeshWorks)
{
    build(2, 2);
    Tick arrival = 0;
    mesh->attach(3, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(0, 3));
    eq.run();
    EXPECT_EQ(arrival, 2u * 6u);
}

TEST_F(MeshFixture, ZeroDimensionIsFatal)
{
    NocConfig bad;
    bad.width = 0;
    EXPECT_THROW(Mesh(eq, bad, stats.scope("noc2")), FatalError);
}

TEST_F(MeshFixture, ContendedOutputLinkSerializesHandComputed)
{
    // A: 0 -> 2, 5-flit Data. B: 1 -> 3, 1-flit GetS, injected at
    // node 1 at tick 6 — the same tick A's head reaches node 1, and
    // after it in FIFO order, so both want node 1's East link then.
    build();
    Tick a = 0, b = 0;
    mesh->attach(2, Port::Bank, [&](const Message&) { a = eq.now(); });
    mesh->attach(3, Port::Bank, [&](const Message&) { b = eq.now(); });
    mesh->send(msg(0, 2, MsgType::Data));
    eq.schedule(6, [&] { mesh->send(msg(1, 3)); });
    eq.run();
    // A: link 0E [0,5) -> node 1 at 6; link 1E [6,11); the last hop
    // adds switch latency plus the 4-flit tail: 6 + 6 + 4 = 16.
    EXPECT_EQ(a, 16u);
    // B: waits at node 1 for A's tail, crosses 1E at 11 and reaches
    // node 2 at 11 + 6 = 17; 2E is free, so it lands at 17 + 6 = 23
    // (uncontended it would be 6 + 12 = 18).
    EXPECT_EQ(b, 23u);
    EXPECT_EQ(mesh->flitHops(), 2u * 5u + 2u * 1u);
    EXPECT_EQ(stats.counter("noc.flit_hops"), 12u);
    EXPECT_EQ(mesh->inFlight(), 0u);
}

TEST_F(MeshFixture, HandlerGrowingTheInFlightTableKeepsItsMessage)
{
    // The handler gets a copy taken before its slot is freed, so it may
    // send freely — here enough to reallocate the table many times over
    // — and still read its own message afterwards.
    build();
    constexpr unsigned kFanOut = 200;
    unsigned fanned = 0;
    std::size_t peak = 0;
    Message seen;
    mesh->attach(9, Port::Bank, [&](const Message& m) {
        if (m.txn != 42) {
            ++fanned; // a self-addressed fan-out copy
            return;
        }
        for (unsigned i = 0; i < kFanOut; ++i) {
            Message out = msg(9, static_cast<NodeId>(i % 64), MsgType::Data);
            out.txn = 1000 + i;
            mesh->send(out);
        }
        peak = mesh->inFlight();
        seen = m; // read after the table grew under it
    });
    for (NodeId n = 0; n < 64; ++n) {
        if (n != 9)
            mesh->attach(n, Port::Bank, [&](const Message&) { ++fanned; });
    }
    Message first = msg(0, 9);
    first.txn = 42;
    first.addr = 0xabc0;
    first.requester = 3;
    mesh->send(first);
    eq.run();
    EXPECT_EQ(seen.txn, 42u);
    EXPECT_EQ(seen.addr, 0xabc0u);
    EXPECT_EQ(seen.requester, 3u);
    EXPECT_EQ(seen.src, 0u);
    EXPECT_EQ(seen.type, MsgType::GetS);
    EXPECT_EQ(peak, kFanOut);
    EXPECT_EQ(fanned, kFanOut); // every fan-out copy landed once
    EXPECT_EQ(mesh->inFlight(), 0u);
}

TEST_F(MeshFixture, LeakedMessageIsListedAndFailsTheNoLeakCheck)
{
    // Stop mid-route: the table still holds the message, tracking has
    // recorded where it got to, and the quiesce check reports it.
    build();
    mesh->setTracking(true);
    Message m = msg(0, 63);
    m.txn = 77;
    mesh->send(m);
    while (eq.now() < 3 * 6)
        ASSERT_TRUE(eq.step());
    ASSERT_EQ(mesh->inFlight(), 1u);
    unsigned listed = 0;
    mesh->forEachInFlight([&](const Message& f, NodeId at, Tick since) {
        ++listed;
        EXPECT_EQ(f.txn, 77u);
        EXPECT_EQ(at, 3u); // the fourth hop, (3,0), ran at tick 18
        EXPECT_EQ(since, 0u);
    });
    EXPECT_EQ(listed, 1u);

    InvariantChecker::Sources src;
    src.noc = mesh.get();
    const InvariantChecker checker(src);
    const auto violations = checker.checkQuiesce();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("[noc-no-leak]"), std::string::npos);
    EXPECT_NE(violations[0].find("at node 3"), std::string::npos)
        << violations[0];

    // Draining the queue delivers it and clears the check.
    mesh->attach(63, Port::Bank, [](const Message&) {});
    eq.run();
    EXPECT_EQ(mesh->inFlight(), 0u);
    EXPECT_TRUE(checker.checkQuiesce().empty());
}

TEST_F(MeshFixture, UntrackedHopsLeaveTheTableAlone)
{
    // Tracking off: hops never write the table, so an in-flight
    // message still reads as sitting at its source.
    build();
    mesh->send(msg(0, 63));
    while (eq.now() < 3 * 6)
        ASSERT_TRUE(eq.step());
    mesh->forEachInFlight([](const Message&, NodeId at, Tick) {
        EXPECT_EQ(at, 0u);
    });
    EXPECT_EQ(mesh->inFlight(), 1u);
}

TEST(MeshForensics, ChipDumpListsInFlightMessagesFromTheMeshTable)
{
    // A chip stopped with a request on the wire: the forensic dump's
    // noc_in_flight array and the noc-no-leak invariant both read the
    // mesh's in-flight table.
    ChipConfig cfg = testConfig(Technique::CbOne, 16);
    cfg.debug.checkInvariants = true; // implies message tracking
    cfg.debug.forensicDir.clear();
    Chip chip(cfg);
    idleAll(chip);
    Assembler a;
    a.movImm(1, 0x10040); // line 1025: homed at bank 1, one hop away
    a.ldThrough(2, 1);
    chip.setProgram(0, a.assemble());
    for (CoreId i = 0; i < cfg.numCores; ++i)
        chip.core(i).start();
    EventQueue& eq = chip.eventQueue();
    bool leaked = false;
    while (!leaked && eq.step()) {
        for (const std::string& v : chip.checkInvariantsNow())
            leaked |= v.find("[noc-no-leak]") != std::string::npos;
    }
    ASSERT_TRUE(leaked);
    testing::internal::CaptureStderr();
    chip.dumpForensics("unit test");
    const std::string err = testing::internal::GetCapturedStderr();
    const auto list = err.find("\"noc_in_flight\": [");
    ASSERT_NE(list, std::string::npos) << err;
    EXPECT_NE(err.find("\"at_node\"", list), std::string::npos) << err;
    EXPECT_NE(err.find("LdThrough", list), std::string::npos) << err;
}

} // namespace
} // namespace cbsim
