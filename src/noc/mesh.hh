/**
 * @file
 * 2-D mesh interconnect with deterministic X-Y routing (GARNET-inspired).
 *
 * Nodes are numbered row-major: node = y * width + x. Each node hosts a
 * core endpoint and an LLC-bank endpoint; delivery dispatches on
 * Message::dstPort. Traffic is accounted in flit-hops (the metric behind
 * the paper's "network traffic" figures) and per-message-type packets.
 *
 * Hop path (DESIGN.md §2.1). Injection parks the message in the mesh's
 * in-flight table — slots recycled through a free list, so steady state
 * allocates nothing — and every later event refers to it by slot: a
 * hop event carries {mesh, slot, next node, destination, flits}, a
 * delivery event {mesh, slot}. The 64-byte Message is copied twice per
 * packet (into the table, out to the handler) instead of once per hop.
 * Delivery copies the message out and frees the slot *before* calling
 * the handler, because handlers send, and a send may grow the table.
 *
 * The same table serves forensics and leak checks: with tracking on,
 * each hop records the node the message is at (one predicted-false
 * branch per hop), so a wedged run can list every undelivered message
 * and where it sits, and the invariant checker can assert that nothing
 * is in flight once the queue drains.
 */

#ifndef CBSIM_NOC_MESH_HH
#define CBSIM_NOC_MESH_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "noc/message.hh"
#include "noc/router.hh"
#include "obs/registry.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace cbsim {

class FaultInjector;
class CausalTracker;

/** Static mesh parameters (paper Table 2 defaults). */
struct NocConfig
{
    unsigned width = 8;           ///< mesh columns
    unsigned height = 8;          ///< mesh rows
    unsigned flitBytes = 16;      ///< flit size
    unsigned headerBytes = 8;     ///< control/header size
    unsigned lineBytes = 64;      ///< cache-line payload size
    Tick switchLatency = 6;       ///< switch-to-switch time (cycles)
    Tick localLatency = 1;        ///< same-node core<->bank delivery

    unsigned nodes() const { return width * height; }
};

/** Receives messages delivered to an endpoint. */
using MessageHandler = std::function<void(const Message&)>;

/** The mesh network. */
class Mesh
{
  public:
    Mesh(EventQueue& eq, const NocConfig& cfg, const StatsScope& scope);

    /** Attach the handler for @p port of node @p node. */
    void attach(NodeId node, Port port, MessageHandler handler);

    /**
     * Inject @p msg at its source node; it is delivered to the handler of
     * (msg.dst, msg.dstPort) after routing latency + contention.
     */
    void send(const Message& msg);

    /** X-Y route hop count between two nodes (for tests/analysis). */
    unsigned hopCount(NodeId from, NodeId to) const;

    /** Minimum (contention-free) latency for a message. */
    Tick minLatency(const Message& msg) const;

    const NocConfig& config() const { return cfg_; }

    /** Total flit-hops so far (the traffic metric). */
    std::uint64_t flitHops() const { return flitHops_.value(); }

    /**
     * Record each in-flight message's current node on every hop, for
     * forensic dumps and the end-of-run leak check. Off by default:
     * then a hop never touches the in-flight table.
     */
    void setTracking(bool on) { track_ = on; }
    bool tracking() const { return track_; }

    /**
     * Add bounded injection delays (FaultPlan::nocDelay*) drawn from
     * @p faults at every send; null (the default) injects none.
     */
    void setFaults(FaultInjector* faults) { faults_ = faults; }

    /** Messages injected and not yet delivered. */
    std::size_t inFlight() const { return inFlight_; }

    /**
     * Visit every undelivered message: fn(msg, node, injectedAt). The
     * node is the last one the message hopped through when tracking is
     * on, else its source.
     */
    template <typename Fn>
    void
    forEachInFlight(Fn&& fn) const
    {
        for (const Slot& s : slots_) {
            if (s.live)
                fn(s.msg, s.at, s.injectedAt);
        }
    }

    /**
     * Enable causal sync-episode tracing: at injection, each sync/spin
     * request or wake/invalidation message charges its total flit×hop
     * traffic to the matching causal segment (noc_request / noc_wake).
     * Null (default) costs one compare per injection.
     */
    void setCausal(CausalTracker* causal) { causal_ = causal; }

  private:
    /** One in-flight table entry. */
    struct Slot
    {
        Message msg;
        Tick injectedAt = 0;
        NodeId at = 0;     ///< current node (tracking only)
        bool live = false; ///< injected, not yet delivered
    };

    // X-Y decomposition runs twice per routed hop (millions of times
    // per run), and a division by the runtime mesh width costs tens of
    // cycles; mask/shift when the width is a power of two (all
    // power-of-four core counts — 9/25/49-core meshes keep the
    // div/mod).
    unsigned
    xOf(NodeId n) const
    {
        return widthPow2_ ? (n & (cfg_.width - 1)) : (n % cfg_.width);
    }
    unsigned
    yOf(NodeId n) const
    {
        return widthPow2_ ? (n >> widthShift_) : (n / cfg_.width);
    }
    NodeId nodeAt(unsigned x, unsigned y) const
    {
        return y * cfg_.width + x;
    }

    /** Next hop (node, output direction) along the X-Y route. */
    std::pair<NodeId, Direction> nextHop(NodeId at, NodeId dst) const;

    /** Park @p msg in a free slot of the in-flight table. */
    std::uint32_t park(const Message& msg);

    void hop(std::uint32_t slot, NodeId at, NodeId dst, unsigned flits);
    void deliver(std::uint32_t slot);

    /** Cold path of send(): classify traffic for the causal stitcher. */
    void recordCausalTraffic(const Message& msg);

    EventQueue& eq_;
    NocConfig cfg_;
    bool widthPow2_;      ///< mesh width is a power of two
    unsigned widthShift_; ///< log2(width), widthPow2_ only
    bool track_ = false;
    std::vector<Router> routers_;
    std::vector<MessageHandler> coreHandlers_;
    std::vector<MessageHandler> bankHandlers_;
    FaultInjector* faults_ = nullptr;
    CausalTracker* causal_ = nullptr;

    std::vector<Slot> slots_;         ///< the in-flight table
    std::vector<std::uint32_t> free_; ///< recyclable slot indices
    std::size_t inFlight_ = 0;

    Counter packets_;
    Counter flitHops_;
    Counter localDeliveries_;
    std::array<Counter, static_cast<std::size_t>(MsgType::NumTypes)>
        packetsByType_;
    /** X-Y route length of each remote packet (locality). */
    Histogram hopDistance_;
};

} // namespace cbsim

#endif // CBSIM_NOC_MESH_HH
