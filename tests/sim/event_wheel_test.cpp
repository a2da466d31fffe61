/**
 * @file
 * Property and regression tests for the two-level event queue (timing
 * wheel + far-heap) and the inline Event/Clocked machinery.
 *
 * The load-bearing property: for ANY schedule — including far-future
 * overflow past the wheel window and re-entrant scheduling during
 * dispatch — the queue fires events in exactly (when, scheduling
 * sequence) order, i.e. indistinguishable from a reference model that
 * stable-sorts by tick. Everything downstream (bit-exact artifacts,
 * tests/golden/smoke) rests on this.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace cbsim {
namespace {

/** Reference model: (when, seq) pairs, stable-sorted by when. */
using RefSchedule = std::vector<std::pair<Tick, std::uint64_t>>;

RefSchedule
sortedReference(RefSchedule ref)
{
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    return ref;
}

/**
 * Randomized schedules spanning the wheel window, the far-heap, and the
 * boundary between them, checked against the stable-sort reference.
 */
TEST(EventWheel, MatchesReferenceModelOnRandomSchedules)
{
    std::mt19937 rng(0xC0FFEEu); // fixed seed: deterministic test
    // Delay classes stress different paths: in-window, boundary
    // straddling wheelSize, and deep far-heap (spin-park watchdogs).
    std::uniform_int_distribution<Tick> nearDelay(0, 10);
    std::uniform_int_distribution<Tick> windowDelay(
        0, 2 * EventQueue::wheelSize);
    std::uniform_int_distribution<Tick> farDelay(50'000, 150'000);
    std::uniform_int_distribution<int> classPick(0, 9);

    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        RefSchedule ref;
        std::vector<std::pair<Tick, std::uint64_t>> fired;
        std::uint64_t seq = 0;

        auto scheduleOne = [&](Tick delay) {
            const Tick when = eq.now() + delay;
            const std::uint64_t id = seq++;
            ref.emplace_back(when, id);
            eq.schedule(delay, [&fired, &eq, when, id] {
                EXPECT_EQ(eq.now(), when);
                fired.emplace_back(when, id);
            });
        };
        auto randomDelay = [&] {
            const int c = classPick(rng);
            if (c < 6)
                return nearDelay(rng);
            if (c < 9)
                return windowDelay(rng);
            return farDelay(rng);
        };

        for (int i = 0; i < 500; ++i)
            scheduleOne(randomDelay());

        eq.run();
        EXPECT_EQ(fired, sortedReference(ref)) << "round " << round;
    }
}

/**
 * Same property with events scheduled *during dispatch* — the
 * re-entrant case where a bucket's vector can grow (and reallocate)
 * while it is being drained, and far events land mid-window.
 */
TEST(EventWheel, MatchesReferenceWithReentrantScheduling)
{
    std::mt19937 rng(0xB00Cu);
    std::uniform_int_distribution<Tick> delayPick(0, 600);
    std::uniform_int_distribution<int> fanout(0, 3);

    EventQueue eq;
    RefSchedule ref;
    std::vector<std::pair<Tick, std::uint64_t>> fired;
    std::uint64_t seq = 0;
    int budget = 2'000; // total events, so the cascade terminates

    // Declared std::function so the closure can reschedule itself; it
    // still rides the queue inline (function fits the event payload).
    std::function<void(Tick, std::uint64_t)> fire =
        [&](Tick when, std::uint64_t id) {
            EXPECT_EQ(eq.now(), when);
            fired.emplace_back(when, id);
            for (int k = fanout(rng); k > 0 && budget > 0; --k) {
                --budget;
                const Tick d =
                    fanout(rng) == 0 ? 100'000 : delayPick(rng);
                const Tick w = eq.now() + d;
                const std::uint64_t child = seq++;
                ref.emplace_back(w, child);
                eq.schedule(d, [&fire, w, child] { fire(w, child); });
            }
        };

    for (int i = 0; i < 50; ++i) {
        const Tick d = delayPick(rng);
        const std::uint64_t id = seq++;
        ref.emplace_back(d, id);
        eq.schedule(d, [&fire, d, id] { fire(d, id); });
    }
    eq.run();

    EXPECT_GT(fired.size(), 50u); // the cascade actually fanned out
    EXPECT_EQ(fired, sortedReference(ref));
}

/** Far-future events (beyond the wheel window) still interleave FIFO. */
TEST(EventWheel, FarHeapPreservesFifoAmongSameTickEvents)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick far = 100'000; // well past wheelSize
    for (int i = 0; i < 8; ++i)
        eq.schedule(far, [&order, i] { order.push_back(i); });
    eq.schedule(far + EventQueue::wheelSize, [&order] {
        order.push_back(100);
    });
    eq.run();
    ASSERT_EQ(order.size(), 9u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(order.back(), 100);
}

/** Wheel events scheduled after an earlier far event must not overtake
 *  it (the fixed-window rule: the window does not slide under a live
 *  wheel, so the later-scheduled event also lands in the far-heap). */
TEST(EventWheel, LaterScheduledWheelEventCannotOvertakeFarEvent)
{
    EventQueue eq;
    std::vector<int> order;
    // At t=0: A at 300 (outside the initial [0, wheelSize) window).
    eq.schedule(300, [&order] { order.push_back(1); });
    // At t=100: B at 350 — 350 is within 256 of now, but must still
    // fire after A(300).
    eq.schedule(100, [&order, &eq] {
        eq.schedule(250, [&order] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/** Clocked wake-ups interleave with ordinary events in FIFO order. */
TEST(EventWheel, ClockedTicksShareOrderingWithClosures)
{
    class Ticker : public Clocked
    {
      public:
        explicit Ticker(std::vector<int>& order) : order_(order) {}
        void tick() override { order_.push_back(7); }

      private:
        std::vector<int>& order_;
    };

    EventQueue eq;
    std::vector<int> order;
    Ticker ticker(order);
    eq.schedule(5, [&order] { order.push_back(1); });
    eq.scheduleTick(5, &ticker);
    eq.schedule(5, [&order] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 7, 2}));
}

/** The tick-budget fatal reports pending count and the head tick. */
TEST(EventWheel, TickBudgetReportsPendingAndHeadTick)
{
    EventQueue eq;
    std::function<void()> forever = [&] { eq.schedule(100, forever); };
    eq.schedule(0, forever);
    eq.schedule(40'000, [] {}); // a second pending event at blow-up time
    try {
        eq.run(10'000);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("2 events pending"), std::string::npos) << msg;
        EXPECT_NE(msg.find("head event at tick 10100"),
                  std::string::npos)
            << msg;
    }
}

/** Moved-from events are inert; move transfers the callable. */
TEST(EventWheel, EventMoveSemantics)
{
    int fired = 0;
    Event a([&fired] { ++fired; });
    EXPECT_TRUE(static_cast<bool>(a));
    Event b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(fired, 1);

    Event c;
    EXPECT_FALSE(static_cast<bool>(c));
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(fired, 2);
}

/** Destruction of pending events releases captured resources. */
TEST(EventWheel, PendingEventsAreDestroyedWithTheQueue)
{
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        eq.schedule(10, [t = std::move(token)] { (void)*t; });
        eq.schedule(100'000, [] {}); // one in the far-heap too
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

/**
 * Lifetime ledger for a non-trivially-destructible event callable.
 * Every instance (moves included) adds one to `alive` and removes it
 * on destruction, so `alive == 0` once the queue is done proves each
 * instance was destroyed exactly once: a skipped destructor leaves it
 * positive, a double destroy drives it negative.
 */
struct Ledger
{
    int alive = 0;
    int destroyed = 0;
    int fired = 0;
};

struct Tracked
{
    Ledger* ledger;

    explicit Tracked(Ledger* l) : ledger(l) { ++ledger->alive; }
    Tracked(Tracked&& o) noexcept : ledger(o.ledger) { ++ledger->alive; }
    Tracked(const Tracked&) = delete;
    ~Tracked()
    {
        --ledger->alive;
        ++ledger->destroyed;
    }
    void operator()() { ++ledger->fired; }
};

static_assert(!std::is_trivially_destructible_v<Tracked>);
static_assert(!std::is_trivially_destructible_v<std::function<void()>>);

/** Fired events run their destructor (the skip is for trivial ones). */
TEST(EventWheel, NonTrivialCallablesAreDestroyedOnceAfterFiring)
{
    Ledger ledger;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        eq.schedule(1, Tracked(&ledger));
        eq.schedule(1, Tracked(&ledger)); // same bucket
        eq.schedule(5, Tracked(&ledger));
        // A std::function completion, as the VIPS fence path schedules.
        const std::function<void()> done = [t = std::move(token)] {
            (void)*t;
        };
        eq.schedule(3, done);
        eq.schedule(2, [] {}); // trivially destructible neighbour
        eq.run();
        EXPECT_EQ(ledger.fired, 3);
        EXPECT_EQ(ledger.alive, 0);
        EXPECT_EQ(eq.pendingEvents(), 0u);
        // The scheduled copy is gone; only `done` still holds the token.
        EXPECT_EQ(watch.use_count(), 1);
    }
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(ledger.alive, 0);
}

/** Pending events, wheel and far-heap alike, die with the queue. */
TEST(EventWheel, NonTrivialCallablesAreDestroyedOnceOnTeardown)
{
    Ledger ledger;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        eq.schedule(4, Tracked(&ledger));
        eq.schedule(100'000, Tracked(&ledger)); // far-heap slot
        eq.schedule(9, std::function<void()>([t = std::move(token)] {
                        (void)*t;
                    }));
        EXPECT_GT(ledger.alive, 0);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_EQ(ledger.fired, 0);
    EXPECT_EQ(ledger.alive, 0);
    EXPECT_TRUE(watch.expired());
}

/** Far events migrate slot -> bucket and are destroyed once there. */
TEST(EventWheel, NonTrivialCallablesAreDestroyedOnceAfterFarMigration)
{
    Ledger ledger;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        const Tick far = 100'000; // well past the wheel window
        eq.schedule(far, Tracked(&ledger));
        eq.schedule(far, std::function<void()>([t = std::move(token)] {
                        (void)*t;
                    }));
        // Re-park in a recycled far slot after the first migration.
        eq.schedule(far + 1, [&eq, &ledger] {
            eq.schedule(far, Tracked(&ledger));
        });
        eq.run();
        EXPECT_EQ(ledger.fired, 2);
        EXPECT_EQ(ledger.alive, 0);
        EXPECT_TRUE(watch.expired());
    }
    EXPECT_EQ(ledger.alive, 0);
}

} // namespace
} // namespace cbsim
