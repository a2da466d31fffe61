/**
 * @file
 * On-chip network message definition shared by all coherence protocols.
 *
 * Message sizes follow the GEMS/GARNET convention used by the paper:
 * 8-byte control header, 64-byte cache line. With 16-byte flits a control
 * or single-word message fits in 1 flit and a full-line data message takes
 * 5 flits (8 B header + 64 B data).
 */

#ifndef CBSIM_NOC_MESSAGE_HH
#define CBSIM_NOC_MESSAGE_HH

#include <bit>
#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace cbsim {

/** All message kinds used by the MESI, VIPS-M, and callback protocols. */
enum class MsgType : std::uint8_t
{
    // MESI requests (core -> directory/LLC)
    GetS,        ///< read request; installs a sharer
    GetX,        ///< write/upgrade request; wants exclusivity
    PutM,        ///< dirty writeback with full-line data
    // MESI directory traffic
    Inv,         ///< explicit invalidation (directory -> sharer)
    InvAck,      ///< invalidation acknowledgment (sharer -> directory)
    FwdGetS,     ///< forward read to the owner
    FwdGetX,     ///< forward exclusive request to the owner
    // VIPS-M / callback requests (core -> LLC), all bypass the L1
    LdThrough,   ///< racy load served directly by the LLC
    StThrough,   ///< racy single-word write-through (st_cbA semantics)
    StCb1,       ///< write-through waking one callback
    StCb0,       ///< write-through waking no callback
    GetCB,       ///< callback read (ld_cb); may block in the cb directory
    AtomicReq,   ///< RMW executed at the LLC (word-granular)
    WtFlush,     ///< self-downgrade write-through of dirty words (line)
    // Responses
    Data,        ///< full-line data response
    DataWord,    ///< single-word data response (through/atomic ops)
    WakeUp,      ///< callback wake-up carrying the word value
    Ack,         ///< store / flush acknowledgment
    // Sentinel
    NumTypes
};

/** Human-readable message-type name (for traces and tests). */
const char* msgTypeName(MsgType t);

/** True if the message carries a full 64-byte cache line. */
bool carriesLine(MsgType t);

/** Destination endpoint within a mesh node. */
enum class Port : std::uint8_t
{
    Core,  ///< the core / private-L1 complex
    Bank,  ///< the LLC bank (+ its slice of the callback directory)
};

/** Atomic read-modify-write function selector (see isa/instruction.hh). */
enum class AtomicFunc : std::uint8_t
{
    None,
    TestAndSet,     ///< write iff read value == compare ("test" succeeds)
    FetchAndStore,  ///< unconditional swap
    FetchAndAdd,    ///< read; write read+operand
    TestAndDec,     ///< decrement iff read value > 0
};

/** Which callback-write semantics the store half of an op carries. */
enum class WakePolicy : std::uint8_t
{
    None,  ///< plain DRF store (never reaches the callback directory)
    All,   ///< st_through / st_cbA: wake every waiter, F/E of rest -> full
    One,   ///< st_cb1: wake one waiter round-robin, set A/O <- One
    Zero,  ///< st_cb0: wake nobody, set A/O <- One
};

/**
 * A network message. Plain value type; routed by the Mesh and interpreted
 * by the receiving controller.
 *
 * Field order is widest-first so the struct packs into exactly one cache
 * line (64 bytes, asserted below): a message is copied at every hop of
 * its mesh route and into every deferred-replay closure, so its size is
 * a first-order cost of the NoC hot path.
 */
struct Message
{
    Addr addr = 0;            ///< line or word address (op-dependent)
    Word value = 0;           ///< word payload (through ops, wakes)

    // Atomic-op payload (AtomicReq only).
    Word atomicOperand = 0;   ///< swap/add/set value
    Word atomicCompare = 0;   ///< T&S compare value

    /** Transaction id used to match responses to MSHRs. */
    std::uint64_t txn = 0;

    NodeId src = 0;
    NodeId dst = 0;
    CoreId requester = invalidCore; ///< originating core (for callbacks)

    // WtFlush payload: bitmask of dirty words within the line.
    std::uint32_t wordMask = 0;

    MsgType type = MsgType::NumTypes;
    Port dstPort = Port::Bank;
    AtomicFunc atomicFunc = AtomicFunc::None;
    WakePolicy wakePolicy = WakePolicy::None;
    bool loadIsCallback = false; ///< ld_cb&st_* : the read half may block

    /** Data response grants exclusivity (MESI E/M install). */
    bool exclusive = false;

    /** Request originates from a sync-marked instruction (attribution). */
    bool sync = false;

    /**
     * Request originates from a spin-marked instruction (a back-off
     * re-read of a guard): lets the LLC attribute spin re-reads to the
     * line without inspecting the issuing core's program.
     */
    bool spin = false;

    /**
     * Size of this message in flits for the configured flit size.
     * Inline: computed for every injected message on the NoC hot path.
     */
    unsigned
    flits(unsigned flit_bytes, unsigned header_bytes,
          unsigned line_bytes) const
    {
        unsigned payload_bytes = 0;
        switch (type) {
          case MsgType::PutM:
          case MsgType::Data:
            payload_bytes = line_bytes;
            break;
          case MsgType::StThrough:
          case MsgType::StCb1:
          case MsgType::StCb0:
          case MsgType::AtomicReq:
          case MsgType::DataWord:
          case MsgType::WakeUp:
            payload_bytes = sizeof(Word);
            break;
          case MsgType::WtFlush:
            payload_bytes = sizeof(Word) *
                            static_cast<unsigned>(std::popcount(wordMask));
            break;
          default:
            break;
        }
        const unsigned total = header_bytes + payload_bytes;
        return (total + flit_bytes - 1) / flit_bytes;
    }

    std::string toString() const;
};

static_assert(sizeof(Message) == 64,
              "Message should stay one cache line; every packet copies "
              "it into the mesh in-flight table and out to its handler");

} // namespace cbsim

#endif // CBSIM_NOC_MESSAGE_HH
