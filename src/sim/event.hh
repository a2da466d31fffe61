/**
 * @file
 * Allocation-free event representation for the simulation kernel.
 *
 * The previous kernel scheduled std::function<void()> closures: every
 * capture beyond the small-buffer threshold heap-allocated, and with
 * millions of events per simulated millisecond the allocator dominated
 * the profile. An Event instead stores its callable *inline*: a pointer
 * to a static per-type operations table (the trampoline) plus a
 * fixed-size payload buffer the callable is placement-constructed into.
 * A static_assert at the construction site guarantees no callable can
 * ever spill to the heap — grow eventCapacity if a capture legitimately
 * outgrows it (the compiler error names the offending size).
 *
 * Events are movable (buckets in the timing wheel relocate them on
 * vector growth), single-shot, and destroyed by the queue after firing.
 * Destroying a trivially destructible callable is a no-op, so its
 * operations table carries no destroy entry and the queue skips the
 * indirect call: the hot events (mesh hops and deliveries, clocked
 * wake-ups) capture only pointers and integers.
 *
 * The Clocked interface is the companion fast path: objects that run on
 * a per-tick cadence (in-order cores) register themselves once as
 * clocked objects and are rescheduled by pointer — the event payload is
 * two machine words and carries no captured state at all. Clocked
 * wake-ups share the wheel buckets with ordinary events, so the total
 * (tick, scheduling-order) event order — and therefore bit-exact
 * determinism — is identical to a closure-based kernel's.
 */

#ifndef CBSIM_SIM_EVENT_HH
#define CBSIM_SIM_EVENT_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cbsim {

/**
 * A per-tick schedulable object (the clocked-core fast path). Implement
 * tick() and reschedule with EventQueue::scheduleTick(delay, this):
 * cheaper than any closure (no capture, shared trampoline) and free of
 * lifetime concerns — the queue stores only the pointer.
 */
class Clocked
{
  public:
    virtual void tick() = 0;

  protected:
    ~Clocked() = default; ///< never deleted through this interface
};

/**
 * One-pointer payload behind EventQueue::scheduleTick(): all clocked
 * wake-ups share this trampoline, so the per-tick fast path carries no
 * captured state and no per-call-site instantiation.
 */
struct ClockedTick
{
    Clocked* obj;
    void operator()() const { obj->tick(); }
};

/** Inline payload capacity of an Event, in bytes (see file comment). */
inline constexpr std::size_t eventCapacity = 112;

/** A fixed-size, allocation-free, single-shot event. */
class Event
{
  public:
    Event() noexcept = default;

    /** Construct from any callable; fails to compile if it can't fit. */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, Event>)
    Event(F&& fn) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::remove_cvref_t<F>;
        static_assert(sizeof(Fn) <= eventCapacity,
                      "event callable exceeds the inline payload "
                      "capacity; shrink the capture or grow "
                      "cbsim::eventCapacity");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned event callable");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event callables must be nothrow-movable (the "
                      "timing wheel relocates them)");
        static_assert(std::is_invocable_r_v<void, Fn>,
                      "event callable must be invocable as void()");
        ::new (static_cast<void*>(payload_)) Fn(std::forward<F>(fn));
        ops_ = &opsFor<Fn>;
    }

    Event(Event&& other) noexcept : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(payload_, other.payload_);
            other.ops_ = nullptr;
        }
    }

    Event&
    operator=(Event&& other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(payload_, other.payload_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    ~Event() { reset(); }

    /** True when this event holds a callable (not moved-from). */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Fire the event. @pre engaged; leaves the callable constructed. */
    void
    operator()()
    {
        ops_->invoke(payload_);
    }

  private:
    struct Ops
    {
        void (*invoke)(void* p);
        /** Move-construct *src into dst, then destroy *src. */
        void (*relocate)(void* dst, void* src) noexcept;
        /** Null when Fn is trivially destructible (nothing to run). */
        void (*destroy)(void* p) noexcept;
    };

    template <typename Fn>
    static void
    destroyFn(void* p) noexcept
    {
        static_cast<Fn*>(p)->~Fn();
    }

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* dst, void* src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
        },
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroyFn<Fn>,
    };

    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(payload_);
            ops_ = nullptr;
        }
    }

    const Ops* ops_ = nullptr;
    alignas(std::max_align_t) std::byte payload_[eventCapacity];
};

static_assert(sizeof(Event) == 128,
              "Event layout drifted: ops pointer (padded to payload "
              "alignment) + inline payload, two cache lines total");

} // namespace cbsim

#endif // CBSIM_SIM_EVENT_HH
