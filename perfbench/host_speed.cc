#include "host_speed.hh"

#include <algorithm>
#include <utility>

namespace cbsim::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kCycleEntries = std::size_t{1} << 22; // 16 MiB
constexpr std::size_t kTableSlots = std::size_t{1} << 18;   // 4 MiB
constexpr std::uint64_t kTableKeys = kTableSlots / 2;
constexpr std::size_t kHeapEntries = 4096;
constexpr unsigned kChaseSteps = 20000;
constexpr unsigned kTableOps = 20000;
constexpr unsigned kHeapOps = 10000;

std::uint64_t
xorshift(std::uint64_t& x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

std::size_t
slotOf(std::uint64_t key)
{
    key *= 0xff51afd7ed558ccdULL;
    return static_cast<std::size_t>(key ^ (key >> 33)) & (kTableSlots - 1);
}

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

} // namespace

HostSpeed::HostSpeed()
    : cycle_(kCycleEntries), table_(2 * kTableSlots, 0)
{
    // Sattolo's shuffle: one cycle through every entry, so the walk
    // touches a line again only after the whole 16 MiB.
    for (std::size_t i = 0; i < kCycleEntries; ++i)
        cycle_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kCycleEntries - 1; i > 0; --i)
        std::swap(cycle_[i], cycle_[xorshift(rng_) % i]);
    for (std::uint64_t key = 1; key <= kTableKeys; ++key) {
        std::size_t s = slotOf(key);
        while (table_[2 * s] != 0)
            s = (s + 1) & (kTableSlots - 1);
        table_[2 * s] = key;
    }
    heap_.reserve(kHeapEntries);
    for (std::size_t i = 0; i < kHeapEntries; ++i)
        heap_.push_back(xorshift(rng_));
    std::make_heap(heap_.begin(), heap_.end());
    last_ = Clock::now();
}

double
HostSpeed::runChunk()
{
    const auto t0 = Clock::now();
    std::uint32_t at = at_;
    for (unsigned i = 0; i < kChaseSteps; ++i)
        at = cycle_[at];
    at_ = at;
    std::uint64_t acc = at;
    for (unsigned i = 0; i < kTableOps; ++i) {
        const std::uint64_t key = 1 + xorshift(rng_) % kTableKeys;
        std::size_t s = slotOf(key);
        while (table_[2 * s] != key)
            s = (s + 1) & (kTableSlots - 1);
        acc += ++table_[2 * s + 1];
    }
    for (unsigned i = 0; i < kHeapOps; ++i) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.back() = xorshift(rng_);
        std::push_heap(heap_.begin(), heap_.end());
    }
    sink_ += acc + heap_.front();
    return msSince(t0);
}

void
HostSpeed::maybeSample(double interval_ms)
{
    if (msSince(last_) < interval_ms)
        return;
    const double ms = runChunk();
    sampledMs_ += ms;
    chunkMs_.push_back(ms);
    last_ = Clock::now();
}

void
HostSpeed::reset()
{
    sampledMs_ = 0.0;
    chunkMs_.clear();
    last_ = Clock::now();
}

double
HostSpeed::localScale(std::size_t next) const
{
    if (chunkMs_.empty())
        return 1.0;
    const std::size_t hi = std::min(next, chunkMs_.size() - 1);
    const std::size_t lo = hi == 0 ? 0 : hi - 1;
    return kReferenceChunkMs / ((chunkMs_[lo] + chunkMs_[hi]) / 2.0);
}

std::size_t
HostSpeed::footprintBytes() const
{
    return cycle_.size() * sizeof(cycle_[0]) +
           table_.size() * sizeof(table_[0]) +
           heap_.capacity() * sizeof(heap_[0]);
}

double
HostSpeed::scale() const
{
    if (chunkMs_.empty())
        return 1.0;
    std::vector<double> v = chunkMs_;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return kReferenceChunkMs / v[v.size() / 2];
}

} // namespace cbsim::perfbench
