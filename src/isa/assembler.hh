/**
 * @file
 * Program container and label-resolving assembler for the mini-ISA.
 *
 * Sync-algorithm builders (src/sync) and the workload generator
 * (src/workload) use the Assembler's fluent emitters to encode the
 * paper's Figures 8-19 and the benchmark skeletons.
 */

#ifndef CBSIM_ISA_ASSEMBLER_HH
#define CBSIM_ISA_ASSEMBLER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/instruction.hh"
#include "sim/log.hh"

namespace cbsim {

/**
 * An immutable, fully-resolved instruction sequence for one thread.
 *
 * Code and symbols live in one shared, read-only storage block, so
 * copying a Program (WorkloadBuild keeps one, every Chip::setProgram
 * takes another) is O(1) and never duplicates the instructions. at()
 * reads through a cached pointer: one load, as with a plain vector.
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::vector<Instruction> code,
                     std::map<Addr, std::string> symbols = {});

    Program(const Program&) = default;
    Program& operator=(const Program&) = default;
    Program(Program&& other) noexcept { *this = std::move(other); }
    Program& operator=(Program&& other) noexcept;

    const Instruction&
    at(std::uint64_t pc) const
    {
        CBSIM_ASSERT(pc < size_, "pc out of range");
        return code_[pc];
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Disassembly listing (for debugging and docs). */
    std::string listing() const;

    /**
     * Data symbols declared via Assembler::dataSymbol, address-ordered.
     * Attribution (src/obs/attribution.hh) resolves contended line
     * addresses against this map so reports print "lock0" /
     * "barrier0.counter" instead of raw hex. Empty for a default
     * Program.
     */
    const std::map<Addr, std::string>& symbols() const;

  private:
    struct Storage
    {
        std::vector<Instruction> code;
        std::map<Addr, std::string> symbols;
    };

    std::shared_ptr<const Storage> storage_;
    const Instruction* code_ = nullptr; ///< storage_->code.data()
    std::size_t size_ = 0;              ///< storage_->code.size()
};

/**
 * Builder that emits instructions and resolves textual labels into
 * branch-target immediates at assemble() time.
 *
 * Every emitter returns a reference to the emitted instruction so call
 * sites can adjust instrumentation flags, e.g.:
 * @code
 *   a.ldThrough(r1, rL).spin = true;  // back-off applies to this load
 * @endcode
 */
class Assembler
{
  public:
    /** Bind @p name to the next emitted instruction's address. */
    void label(const std::string& name);

    /**
     * Bind @p name to data address @p addr in the emitted Program's
     * symbol table. First binding wins; an address may carry only one
     * name.
     */
    void dataSymbol(const std::string& name, Addr addr);

    /**
     * True once @p addr carries a data symbol. Sync emitters test a
     * handle's first address with it and bind the handle's names only
     * on its first emission into this Assembler.
     */
    bool hasSymbol(Addr addr) const { return symbols_.count(addr) != 0; }

    /**
     * Label unique within this Assembler: @p stem + "_" + the index of
     * the next instruction ("spn_42"). Sync emitters name their local
     * branch targets with it; two labels with the same stem must not be
     * made at one emission point.
     */
    std::string uniqueLabel(const char* stem) const;

    // --- ALU / control -------------------------------------------------
    Instruction& movImm(Reg rd, std::uint64_t imm);
    Instruction& mov(Reg rd, Reg rs);
    Instruction& add(Reg rd, Reg rs1, Reg rs2);
    Instruction& addImm(Reg rd, Reg rs1, std::uint64_t imm);
    Instruction& sub(Reg rd, Reg rs1, Reg rs2);
    Instruction& notOp(Reg rd, Reg rs1);
    Instruction& beq(Reg rs1, Reg rs2, const std::string& target);
    Instruction& bne(Reg rs1, Reg rs2, const std::string& target);
    Instruction& blt(Reg rs1, Reg rs2, const std::string& target);
    Instruction& beqz(Reg rs1, const std::string& target);
    Instruction& bnez(Reg rs1, const std::string& target);
    Instruction& jump(const std::string& target);
    Instruction& workImm(std::uint64_t cycles);
    Instruction& workReg(Reg cycles_reg);
    Instruction& recordStart(SyncKind kind);
    Instruction& recordEnd(SyncKind kind);
    Instruction& done();

    // --- Memory ---------------------------------------------------------
    /** DRF load: rd = mem[base + off]. */
    Instruction& ld(Reg rd, Reg base, std::int64_t off = 0);
    /** DRF store: mem[base + off] = rs. */
    Instruction& st(Reg rs, Reg base, std::int64_t off = 0);
    /** DRF store of an immediate. */
    Instruction& stImm(std::uint64_t value, Reg base, std::int64_t off = 0);

    /** Racy guard load (never blocks); sync-marked by default. */
    Instruction& ldThrough(Reg rd, Reg base, std::int64_t off = 0);
    /** Callback load (blocks when empty); sync-marked by default. */
    Instruction& ldCb(Reg rd, Reg base, std::int64_t off = 0);
    /** Racy store waking all callbacks (st_through / st_cbA). */
    Instruction& stThrough(Reg rs, Reg base, std::int64_t off = 0);
    Instruction& stThroughImm(std::uint64_t v, Reg base,
                              std::int64_t off = 0);
    /** Racy store waking one callback (st_cb1). */
    Instruction& stCb1Imm(std::uint64_t v, Reg base, std::int64_t off = 0);
    /** Racy store waking no callback (st_cb0). */
    Instruction& stCb0Imm(std::uint64_t v, Reg base, std::int64_t off = 0);

    /**
     * Atomic RMW: rd = old value of mem[base+off].
     * @param func     the RMW function
     * @param operand  swap/add/set value (immediate)
     * @param compare  T&S "free" value
     * @param ld_cb    the read half is a callback read
     * @param wake     the write half's wake policy
     */
    Instruction& atomic(Reg rd, Reg base, std::int64_t off,
                        AtomicFunc func, std::uint64_t operand,
                        std::uint64_t compare, bool ld_cb,
                        WakePolicy wake);

    /** Atomic whose operand comes from a register (CLH fetch&store). */
    Instruction& atomicReg(Reg rd, Reg base, std::int64_t off,
                           AtomicFunc func, Reg operand_reg,
                           std::uint64_t compare, bool ld_cb,
                           WakePolicy wake);

    /** Fences (paper §3.1); encoded as Work-free special opcodes. */
    Instruction& selfInvl();
    Instruction& selfDown();

    /** Number of instructions emitted so far. */
    std::size_t size() const { return code_.size(); }

    /** Reserve room for @p instructions (a known program size). */
    void reserve(std::size_t instructions) { code_.reserve(instructions); }

    /** Resolve labels and produce the Program; fatal on undefined label. */
    Program assemble();

  private:
    Instruction& emit(Instruction ins);
    Instruction& branch(Opcode op, Reg rs1, Reg rs2,
                        const std::string& target);

    std::vector<Instruction> code_;
    std::unordered_map<std::string, std::uint64_t> labels_;
    std::vector<std::pair<std::size_t, std::string>> fixups_;
    std::map<Addr, std::string> symbols_;
};

} // namespace cbsim

#endif // CBSIM_ISA_ASSEMBLER_HH
