//===- hostile_programs.h - Hostile allocated programs for every executor -===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Allocated programs no allocator emits — registers that do not exist,
// operands an instruction lacks, operations, comparisons and opcodes
// outside their enums, more constants than a 16-bit frame slot can name —
// each with the interpreter's exact result. sim_test pins the interpreter
// on them; fastpath_test holds the Engine and SegmentContext to the
// interpreter on every one, with superblocks on and off: every executor
// must accept every program sim::decode accepts.
//
//===----------------------------------------------------------------------===//

#ifndef TESTS_HOSTILE_PROGRAMS_H
#define TESTS_HOSTILE_PROGRAMS_H

#include "alloc/Allocated.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <vector>

namespace nova {
namespace hostile {

using alloc::AllocatedProgram;
using alloc::AllocInstr;
using alloc::AOperand;
using alloc::PhysLoc;
using ixp::Bank;
using ixp::BlockId;
using ixp::MOp;

inline PhysLoc loc(Bank B, unsigned Reg) {
  return {B, static_cast<uint16_t>(Reg)};
}

inline AOperand reg(Bank B, unsigned Reg) { return AOperand::reg(loc(B, Reg)); }

inline AllocInstr ainstr(MOp Op, std::vector<AOperand> Srcs = {},
                         std::vector<PhysLoc> Dsts = {},
                         MemSpace S = MemSpace::Sram) {
  AllocInstr I;
  I.Op = Op;
  I.Space = S;
  I.Srcs = std::move(Srcs);
  I.Dsts = std::move(Dsts);
  return I;
}

inline AllocInstr aluOf(cps::PrimOp Op, std::vector<AOperand> Srcs,
                        PhysLoc Dst) {
  AllocInstr I = ainstr(MOp::Alu, std::move(Srcs), {Dst});
  I.Alu = Op;
  return I;
}

inline AllocInstr branchOf(AOperand A, AOperand B, BlockId Then,
                           BlockId Else) {
  AllocInstr I = ainstr(MOp::Branch, {A, B});
  I.Cmp = cps::CmpOp::Eq;
  I.Target = Then;
  I.TargetElse = Else;
  return I;
}

inline AllocInstr jumpTo(BlockId T) {
  AllocInstr I = ainstr(MOp::Jump);
  I.Target = T;
  return I;
}

inline AllocatedProgram
allocBlocks(std::vector<std::vector<AllocInstr>> Blocks) {
  AllocatedProgram P;
  P.Entry = 0;
  for (std::vector<AllocInstr> &B : Blocks)
    P.Blocks.push_back({std::move(B)});
  return P;
}

/// A program and the interpreter's pinned result on it under Opts: a
/// trap of Kind with Message, or, when Kind is None, a halt with Halts.
/// The instruction and cycle counts are those at the end of the run.
struct AllocCase {
  const char *Label;
  AllocatedProgram P;
  std::vector<uint32_t> Args;
  sim::TrapKind Kind;
  const char *Message;
  uint64_t Instructions, Cycles;
  sim::RunOptions Opts = {};
  std::vector<uint32_t> Halts = {};
};

/// The hostile programs, under the default RunOptions (ALU, branch and
/// small immediate 1 cycle, large immediate 2, SRAM 20).
inline std::vector<AllocCase> decodeHostilePrograms() {
  const AOperand C1 = AOperand::constant(1);
  const char *IllegalB0 =
      "illegal-register: illegal register access in block b0";
  std::vector<AllocCase> Cases;
  Cases.push_back({"bank M and C operands",
                   allocBlocks({{ainstr(MOp::MemRead, {reg(Bank::M, 2)},
                                        {loc(Bank::C, 0), loc(Bank::M, 7)}),
                                 ainstr(MOp::Halt, {reg(Bank::C, 3)})}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 20});
  Cases.push_back({"register index 40 in every bank",
                   allocBlocks({{ainstr(MOp::MemWrite,
                                        {C1, reg(Bank::A, 40), reg(Bank::B, 40),
                                         reg(Bank::L, 40), reg(Bank::S, 40),
                                         reg(Bank::LD, 40), reg(Bank::SD, 40)},
                                        {}, MemSpace::Scratch),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 12});
  Cases.push_back({"register index 40 at halt",
                   allocBlocks({{ainstr(MOp::Halt, {reg(Bank::SD, 40)})}}), {},
                   sim::TrapKind::IllegalRegister,
                   "illegal-register: illegal register access at halt", 1, 0});
  Cases.push_back({"an empty block after a jump",
                   allocBlocks({{jumpTo(1)}, {}}), {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: fell off the end of block b1", 2, 1});
  AllocatedProgram PastEnd = allocBlocks({{ainstr(MOp::Halt)}, {}});
  PastEnd.Entry = 2;
  Cases.push_back({"entry past the end", PastEnd, {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: no entry block", 0, 0});
  AllocatedProgram NoEntry = allocBlocks({});
  NoEntry.Entry = ixp::NoBlock;
  Cases.push_back({"no blocks", NoEntry, {}, sim::TrapKind::MalformedProgram,
                   "malformed-program: no entry block", 0, 0});
  // Operands an instruction lacks decode as illegal registers.
  Cases.push_back({"ALU op without operands",
                   allocBlocks({{ainstr(MOp::Alu), ainstr(MOp::Halt)}}), {},
                   sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  Cases.push_back({"store without an address",
                   allocBlocks({{ainstr(MOp::MemWrite), ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 20});
  Cases.push_back({"branch without operands",
                   allocBlocks({{branchOf(C1, C1, 0, 0)}}), {},
                   sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  Cases.back().P.Blocks[0].Instrs[0].Srcs.clear();
  Cases.push_back({"move without a destination",
                   allocBlocks({{ainstr(MOp::Move, {C1}), ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  // Operations and comparisons outside their enums evaluate to 0 and
  // false (cps::evalPrim, cps::evalCmp) and still latch an illegal
  // operand; an opcode outside the enum retires with no effect.
  AllocInstr BadAlu = aluOf(cps::PrimOp::Add, {C1, reg(Bank::B, 40)},
                            loc(Bank::A, 0));
  BadAlu.Alu = static_cast<cps::PrimOp>(12);
  Cases.push_back({"ALU operation 12 with an illegal operand",
                   allocBlocks({{BadAlu, ainstr(MOp::Halt)}}), {},
                   sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  AllocInstr Alu8 = aluOf(cps::PrimOp::Add, {reg(Bank::A, 0), C1},
                          loc(Bank::B, 0));
  Alu8.Alu = static_cast<cps::PrimOp>(8);
  Cases.push_back({"ALU operation 8 on legal operands",
                   allocBlocks({{Alu8, ainstr(MOp::Halt, {reg(Bank::B, 0)})}}),
                   {7}, sim::TrapKind::None, "", 2, 1, {}, {0}});
  AllocInstr Alu9 = aluOf(cps::PrimOp::Add, {C1, C1}, loc(Bank::B, 0));
  Alu9.Alu = static_cast<cps::PrimOp>(9);
  Cases.push_back({"ALU operation 9 on constants",
                   allocBlocks({{Alu9, ainstr(MOp::Halt, {reg(Bank::B, 0)})}}),
                   {}, sim::TrapKind::None, "", 2, 1, {}, {0}});
  AllocInstr BadCmp = branchOf(reg(Bank::A, 0), reg(Bank::A, 0), 9, 1);
  BadCmp.Cmp = static_cast<cps::CmpOp>(9);
  Cases.push_back({"comparison 9 takes the else edge",
                   allocBlocks({{BadCmp}, {jumpTo(4)}}), {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: jump in block b1 targets b4", 2, 1});
  AllocInstr BadOp = ainstr(static_cast<MOp>(40), {reg(Bank::A, 40)});
  Cases.push_back({"opcode 40 retires as a no-op",
                   allocBlocks(
                       {{BadOp, ainstr(MOp::Imm, {}, {loc(Bank::L, 9)})}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 2, 1});
  Cases.push_back({"opcode 40 with a constant operand",
                   allocBlocks({{ainstr(static_cast<MOp>(40), {C1}),
                                 ainstr(MOp::Halt, {C1})}}),
                   {}, sim::TrapKind::None, "", 2, 0, {}, {1}});
  // More distinct constants than the fast path's 16-bit frame slots can
  // name. Each immediate costs 2 cycles, except the two whose low half
  // is zero (0x100000 and 0x110000).
  std::vector<AllocInstr> Imms;
  for (uint32_t K = 0; K != 70001; ++K) {
    Imms.push_back(ainstr(MOp::Imm, {}, {loc(Bank::A, 0)}));
    Imms.back().Imm = 0x100000 + K;
  }
  Imms.push_back(ainstr(MOp::Halt, {reg(Bank::A, 0)}));
  Cases.push_back({"70001 distinct immediates", allocBlocks({Imms}), {},
                   sim::TrapKind::None, "", 70002, 2 * 70001 - 2, {},
                   {0x100000 + 70000}});
  return Cases;
}

} // namespace hostile
} // namespace nova

#endif // TESTS_HOSTILE_PROGRAMS_H
