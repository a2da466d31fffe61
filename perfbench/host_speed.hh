/**
 * @file
 * Host-speed reference for the benchmark driver.
 *
 * On a shared host the same code runs 15-30% faster or slower from one
 * minute to the next, because other machines' work contends for the
 * physical cores and memory. HostSpeed measures that: it runs a fixed,
 * simulator-like chunk of work (pointer chasing through a large cycle,
 * an open-addressing table, a binary heap — the access patterns of an
 * event-driven simulator) between cells, and the driver scales each
 * cell's host times by how fast the chunks around it ran. The chunk
 * is code of the benchmark, not of the simulator, so no change to the
 * simulator changes it; its memory is allocated once and its walk never
 * revisits a line soon, so its time does not depend on what the
 * simulator left in the heap or the caches.
 */

#ifndef CBSIM_PERFBENCH_HOST_SPEED_HH
#define CBSIM_PERFBENCH_HOST_SPEED_HH

#include <chrono>
#include <cstdint>
#include <vector>

namespace cbsim::perfbench {

class HostSpeed
{
  public:
    /**
     * Host ms of one chunk at the reference speed the benchmark
     * reports times at: the median chunk time on the 4-vCPU machine
     * the bounds were set on.
     */
    static constexpr double kReferenceChunkMs = 5.5;

    HostSpeed();

    /** Sample a chunk when @p interval_ms have passed since the last. */
    void maybeSample(double interval_ms = 50.0);

    /** Start a new pass: forget the samples of the previous one. */
    void reset();

    /** Host ms spent sampling since reset(). */
    double sampledMs() const { return sampledMs_; }

    /** Chunks sampled since reset(). */
    std::size_t samples() const { return chunkMs_.size(); }

    /**
     * Factor that scales this pass's host times to the reference speed:
     * reference chunk time over the median sampled chunk time (1
     * without samples).
     */
    double scale() const;

    /**
     * The same factor for work done just before sample @p next: from
     * the mean of that sample and the one before it, the two that
     * bracket the work.
     */
    double localScale(std::size_t next) const;

    /** Resident bytes the reference itself holds. */
    std::size_t footprintBytes() const;

  private:
    double runChunk();

    std::vector<std::uint32_t> cycle_; ///< one random cycle (Sattolo)
    std::vector<std::uint64_t> table_; ///< open-addressing key/count pairs
    std::vector<std::uint64_t> heap_;
    std::uint32_t at_ = 0;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sink_ = 0;

    std::chrono::steady_clock::time_point last_;
    double sampledMs_ = 0.0;
    std::vector<double> chunkMs_; ///< chunk times since reset()
};

} // namespace cbsim::perfbench

#endif // CBSIM_PERFBENCH_HOST_SPEED_HH
