/**
 * @file
 * Lightweight named-statistics package (counters, histograms, registry).
 *
 * Components own Counter/Histogram members and register them in a StatSet
 * so that a run can be dumped, diffed, or aggregated by the harness. The
 * observability layer (src/obs) builds on this: StatsRegistry adds
 * hierarchical scoping and mergeable snapshots, the epoch sampler and
 * trace exporter read live values through the same registry.
 */

#ifndef CBSIM_STATS_STATS_HH
#define CBSIM_STATS_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cbsim {

/** A monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * The plain-data state of a histogram: moments plus power-of-two
 * buckets. Separated from the live Histogram so distributions can be
 * snapshotted, serialized, and *merged* across independent simulations
 * (sweep jobs): merge is associative and commutative, so aggregating
 * per-job distributions gives identical bytes regardless of job order
 * or worker count (tests/obs/histogram_test.cpp asserts this).
 */
struct HistogramData
{
    static constexpr unsigned numBuckets = 64;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0; ///< meaningful only when count > 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, numBuckets> buckets{};

    /** Deterministic bucket index: highest set bit (0 for v <= 1). */
    static unsigned bucketOf(std::uint64_t v);

    void sample(std::uint64_t v);

    /** Fold @p other into this (associative and commutative). */
    void merge(const HistogramData& other);

    double mean() const;

    /**
     * Approximate p-th percentile (p in [0, 100]) from log2 buckets;
     * exact to within a factor of 2 (linear interpolation within the
     * bucket). Returns 0 for an empty histogram.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    bool operator==(const HistogramData&) const = default;
};

/**
 * Samples a distribution: count, sum, min, max, mean, and approximate
 * percentiles via power-of-two buckets. Used for per-operation
 * latencies (e.g., lock-acquire latency), where the tail quantifies
 * fairness: a FIFO hand-off (CLH, CB-One round-robin) has a tight
 * p99/mean ratio while an unfair T&T&S under invalidation does not.
 */
class Histogram
{
  public:
    Histogram() = default;

    void sample(std::uint64_t v) { data_.sample(v); }
    void reset() { data_ = HistogramData{}; }

    /** Fold another histogram's samples into this one. */
    void merge(const Histogram& other) { data_.merge(other.data_); }

    /** Snapshot of the full distribution state (mergeable). */
    const HistogramData& data() const { return data_; }

    std::uint64_t count() const { return data_.count; }
    std::uint64_t sum() const { return data_.sum; }
    std::uint64_t min() const { return data_.count ? data_.min : 0; }
    std::uint64_t max() const { return data_.max; }
    double mean() const { return data_.mean(); }

    /** See HistogramData::percentile. */
    double percentile(double p) const { return data_.percentile(p); }

  private:
    HistogramData data_;
};

// Attribution shards (src/obs/attribution.hh) register alongside
// counters; StatSet stores only pointers so src/stats stays below
// src/obs in the layering. The causal tracker (src/obs/causal.hh) is
// forward-declared here for the same layering reason: components hold
// only a CausalTracker* behind their setCausal hooks.
class AttributionTable;
class CausalTracker;

/**
 * A registry mapping dotted stat names ("llc.accesses") to live counters
 * and histograms owned by components.
 */
class StatSet
{
  public:
    /** Register a counter under @p name; the counter must outlive the set. */
    void add(const std::string& name, Counter& c);
    /** Register a histogram under @p name. */
    void add(const std::string& name, Histogram& h);
    /** Register a contention attribution shard under @p name. */
    void add(const std::string& name, AttributionTable& t);

    /** Value of a registered counter; fatal if missing. */
    std::uint64_t counter(const std::string& name) const;
    /** Access a registered histogram; fatal if missing. */
    const Histogram& histogram(const std::string& name) const;

    bool hasCounter(const std::string& name) const;

    /** Sum of all counters whose name starts with @p prefix. */
    std::uint64_t sumByPrefix(const std::string& prefix) const;

    /**
     * Sum of every counter named "<prefix>...<suffix>" — the scalar
     * aggregation behind RunResult ("llc.", ".accesses" sums every
     * bank's access counter).
     */
    std::uint64_t sumWhere(const std::string& prefix,
                           const std::string& suffix) const;

    /**
     * Merged distribution of every histogram named
     * "<prefix>...<suffix>" (e.g. per-core wake latencies folded into
     * one chip-wide distribution). Empty data if none match.
     */
    HistogramData mergeWhere(const std::string& prefix,
                             const std::string& suffix) const;

    /** Reset every registered statistic to zero. */
    void resetAll();

    /** Human-readable dump, sorted by name. */
    void dump(std::ostream& os) const;

    std::vector<std::string> counterNames() const;
    std::vector<std::string> histogramNames() const;

    /**
     * Every registered attribution shard, in name order. Chip folds
     * these into RunResult::contention after a run; resetAll() does not
     * touch them (shards are recreated per run by their owner).
     */
    const std::map<std::string, AttributionTable*>&
    attributionShards() const
    {
        return attributions_;
    }

  protected:
    // The observability registry (src/obs) extends this class with
    // scoped registration and snapshotting over the same maps.
    std::map<std::string, Counter*> counters_;
    std::map<std::string, Histogram*> histograms_;
    std::map<std::string, AttributionTable*> attributions_;
};

/** Geometric mean of @p values; values must be positive. */
double geomean(const std::vector<double>& values);

} // namespace cbsim

#endif // CBSIM_STATS_STATS_HH
