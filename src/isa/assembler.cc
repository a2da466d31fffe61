#include "isa/assembler.hh"

#include <sstream>
#include <utility>

#include "sim/log.hh"

namespace cbsim {

Program::Program(std::vector<Instruction> code,
                 std::map<Addr, std::string> symbols)
    : storage_(std::make_shared<const Storage>(
          Storage{std::move(code), std::move(symbols)})),
      code_(storage_->code.data()), size_(storage_->code.size())
{
}

Program&
Program::operator=(Program&& other) noexcept
{
    storage_ = std::move(other.storage_);
    code_ = std::exchange(other.code_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
}

const std::map<Addr, std::string>&
Program::symbols() const
{
    static const std::map<Addr, std::string> none;
    return storage_ ? storage_->symbols : none;
}

std::string
Program::listing() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < size_; ++i)
        os << i << ": " << code_[i].toString() << '\n';
    return os.str();
}

void
Assembler::label(const std::string& name)
{
    auto [it, inserted] = labels_.emplace(name, code_.size());
    (void)it;
    if (!inserted)
        fatal("duplicate label: ", name);
}

void
Assembler::dataSymbol(const std::string& name, Addr addr)
{
    symbols_.try_emplace(addr, name); // first binding wins
}

std::string
Assembler::uniqueLabel(const char* stem) const
{
    return std::string(stem) + "_" + std::to_string(code_.size());
}

Instruction&
Assembler::emit(Instruction ins)
{
    // Sync micro-benchmark programs run tens to hundreds of
    // instructions, so one up-front reservation replaces the doubling
    // cascade from capacity 1. Workload programs run thousands; their
    // builder sizes them with reserve().
    if (code_.capacity() == 0)
        code_.reserve(128);
    code_.push_back(ins);
    return code_.back();
}

Instruction&
Assembler::movImm(Reg rd, std::uint64_t imm)
{
    Instruction i;
    i.op = Opcode::MovImm;
    i.rd = rd;
    i.imm = imm;
    return emit(i);
}

Instruction&
Assembler::mov(Reg rd, Reg rs)
{
    Instruction i;
    i.op = Opcode::Mov;
    i.rd = rd;
    i.rs1 = rs;
    return emit(i);
}

Instruction&
Assembler::add(Reg rd, Reg rs1, Reg rs2)
{
    Instruction i;
    i.op = Opcode::Add;
    i.rd = rd;
    i.rs1 = rs1;
    i.rs2 = rs2;
    return emit(i);
}

Instruction&
Assembler::addImm(Reg rd, Reg rs1, std::uint64_t imm)
{
    Instruction i;
    i.op = Opcode::AddImm;
    i.rd = rd;
    i.rs1 = rs1;
    i.imm = imm;
    return emit(i);
}

Instruction&
Assembler::sub(Reg rd, Reg rs1, Reg rs2)
{
    Instruction i;
    i.op = Opcode::Sub;
    i.rd = rd;
    i.rs1 = rs1;
    i.rs2 = rs2;
    return emit(i);
}

Instruction&
Assembler::notOp(Reg rd, Reg rs1)
{
    Instruction i;
    i.op = Opcode::Not;
    i.rd = rd;
    i.rs1 = rs1;
    return emit(i);
}

Instruction&
Assembler::branch(Opcode op, Reg rs1, Reg rs2, const std::string& target)
{
    Instruction i;
    i.op = op;
    i.rs1 = rs1;
    i.rs2 = rs2;
    fixups_.emplace_back(code_.size(), target);
    return emit(i);
}

Instruction&
Assembler::beq(Reg rs1, Reg rs2, const std::string& target)
{
    return branch(Opcode::Beq, rs1, rs2, target);
}

Instruction&
Assembler::bne(Reg rs1, Reg rs2, const std::string& target)
{
    return branch(Opcode::Bne, rs1, rs2, target);
}

Instruction&
Assembler::blt(Reg rs1, Reg rs2, const std::string& target)
{
    return branch(Opcode::Blt, rs1, rs2, target);
}

Instruction&
Assembler::beqz(Reg rs1, const std::string& target)
{
    return branch(Opcode::Beqz, rs1, 0, target);
}

Instruction&
Assembler::bnez(Reg rs1, const std::string& target)
{
    return branch(Opcode::Bnez, rs1, 0, target);
}

Instruction&
Assembler::jump(const std::string& target)
{
    return branch(Opcode::Jump, 0, 0, target);
}

Instruction&
Assembler::workImm(std::uint64_t cycles)
{
    Instruction i;
    i.op = Opcode::Work;
    i.useImm = true;
    i.imm = cycles;
    return emit(i);
}

Instruction&
Assembler::workReg(Reg cycles_reg)
{
    Instruction i;
    i.op = Opcode::Work;
    i.rs1 = cycles_reg;
    return emit(i);
}

Instruction&
Assembler::recordStart(SyncKind kind)
{
    Instruction i;
    i.op = Opcode::Record;
    i.record = kind;
    i.recordStart = true;
    return emit(i);
}

Instruction&
Assembler::recordEnd(SyncKind kind)
{
    Instruction i;
    i.op = Opcode::Record;
    i.record = kind;
    i.recordStart = false;
    return emit(i);
}

Instruction&
Assembler::done()
{
    Instruction i;
    i.op = Opcode::Done;
    return emit(i);
}

Instruction&
Assembler::ld(Reg rd, Reg base, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::Ld;
    i.rd = rd;
    i.addrReg = base;
    i.offset = off;
    return emit(i);
}

Instruction&
Assembler::st(Reg rs, Reg base, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::St;
    i.rs1 = rs;
    i.addrReg = base;
    i.offset = off;
    return emit(i);
}

Instruction&
Assembler::stImm(std::uint64_t value, Reg base, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::St;
    i.useImm = true;
    i.imm = value;
    i.addrReg = base;
    i.offset = off;
    return emit(i);
}

Instruction&
Assembler::ldThrough(Reg rd, Reg base, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::LdThrough;
    i.rd = rd;
    i.addrReg = base;
    i.offset = off;
    i.sync = true;
    return emit(i);
}

Instruction&
Assembler::ldCb(Reg rd, Reg base, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::LdCb;
    i.rd = rd;
    i.addrReg = base;
    i.offset = off;
    i.sync = true;
    return emit(i);
}

Instruction&
Assembler::stThrough(Reg rs, Reg base, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::StThrough;
    i.rs1 = rs;
    i.addrReg = base;
    i.offset = off;
    i.sync = true;
    return emit(i);
}

Instruction&
Assembler::stThroughImm(std::uint64_t v, Reg base, std::int64_t off)
{
    auto& i = stThrough(0, base, off);
    i.useImm = true;
    i.imm = v;
    return i;
}

Instruction&
Assembler::stCb1Imm(std::uint64_t v, Reg base, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::StCb1;
    i.useImm = true;
    i.imm = v;
    i.addrReg = base;
    i.offset = off;
    i.sync = true;
    return emit(i);
}

Instruction&
Assembler::stCb0Imm(std::uint64_t v, Reg base, std::int64_t off)
{
    Instruction i;
    i.op = Opcode::StCb0;
    i.useImm = true;
    i.imm = v;
    i.addrReg = base;
    i.offset = off;
    i.sync = true;
    return emit(i);
}

Instruction&
Assembler::atomic(Reg rd, Reg base, std::int64_t off, AtomicFunc func,
                  std::uint64_t operand, std::uint64_t compare, bool ld_cb,
                  WakePolicy wake)
{
    Instruction i;
    i.op = Opcode::Atomic;
    i.rd = rd;
    i.addrReg = base;
    i.offset = off;
    i.func = func;
    i.useImm = true;
    i.imm = operand;
    i.compare = compare;
    i.ldCb = ld_cb;
    i.wake = wake;
    i.sync = true;
    return emit(i);
}

Instruction&
Assembler::atomicReg(Reg rd, Reg base, std::int64_t off, AtomicFunc func,
                     Reg operand_reg, std::uint64_t compare, bool ld_cb,
                     WakePolicy wake)
{
    auto& i =
        atomic(rd, base, off, func, 0, compare, ld_cb, wake);
    i.useImm = false;
    i.rs1 = operand_reg;
    return i;
}

Instruction&
Assembler::selfInvl()
{
    Instruction i;
    i.op = Opcode::SelfInvl;
    return emit(i);
}

Instruction&
Assembler::selfDown()
{
    Instruction i;
    i.op = Opcode::SelfDown;
    return emit(i);
}

Program
Assembler::assemble()
{
    for (const auto& [index, name] : fixups_) {
        auto it = labels_.find(name);
        if (it == labels_.end())
            fatal("undefined label: ", name);
        code_[index].imm = it->second;
    }
    if (code_.empty() || code_.back().op != Opcode::Done)
        done();
    return Program(std::move(code_), std::move(symbols_));
}

} // namespace cbsim
