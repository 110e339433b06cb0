#include "isa/isa.h"

#include <cstdio>
#include <unordered_map>

namespace clear::isa {

std::optional<Op> op_from_mnemonic(const std::string& s) noexcept {
  static const std::unordered_map<std::string, Op> kMap = [] {
    std::unordered_map<std::string, Op> m;
    for (int i = 0; i < kOpCount; ++i) {
      m.emplace(kOpTable[i].name, static_cast<Op>(i));
    }
    return m;
  }();
  const auto it = kMap.find(s);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

std::uint32_t encode(const Instr& ins) noexcept {
  const std::uint32_t op = static_cast<std::uint32_t>(ins.op) & 0x3f;
  const std::uint32_t rd = ins.rd & 0x1f;
  const std::uint32_t rs1 = ins.rs1 & 0x1f;
  const std::uint32_t rs2 = ins.rs2 & 0x1f;
  const std::uint32_t imm16 = static_cast<std::uint32_t>(ins.imm) & 0xffff;
  const std::uint32_t imm21 = static_cast<std::uint32_t>(ins.imm) & 0x1fffff;
  switch (format_of(ins.op)) {
    case Format::kR:
      return (op << 26) | (rd << 21) | (rs1 << 16) | (rs2 << 11);
    case Format::kI:
      return (op << 26) | (rd << 21) | (rs1 << 16) | imm16;
    case Format::kS:
      return (op << 26) | (rs2 << 21) | (rs1 << 16) | imm16;
    case Format::kB:
      return (op << 26) | (rs1 << 21) | (rs2 << 16) | imm16;
    case Format::kJ:
      return (op << 26) | (rd << 21) | imm21;
    case Format::kU:
      return (op << 26) | (rd << 21) | imm16;
    case Format::kX:
      return (op << 26) | (rs1 << 16) | imm16;
  }
  return 0;
}

std::string disassemble(const Instr& ins) {
  char buf[96];
  switch (format_of(ins.op)) {
    case Format::kR:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, r%d", mnemonic(ins.op),
                    ins.rd, ins.rs1, ins.rs2);
      break;
    case Format::kI:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, %d", mnemonic(ins.op),
                    ins.rd, ins.rs1, ins.imm);
      break;
    case Format::kS:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d(r%d)", mnemonic(ins.op),
                    ins.rs2, ins.imm, ins.rs1);
      break;
    case Format::kB:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, %d", mnemonic(ins.op),
                    ins.rs1, ins.rs2, ins.imm);
      break;
    case Format::kJ:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d", mnemonic(ins.op), ins.rd,
                    ins.imm);
      break;
    case Format::kU:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d", mnemonic(ins.op), ins.rd,
                    ins.imm);
      break;
    case Format::kX:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d", mnemonic(ins.op), ins.rs1,
                    ins.imm);
      break;
  }
  return buf;
}

const char* trap_name(Trap t) noexcept {
  switch (t) {
    case Trap::kNone: return "none";
    case Trap::kInvalidOpcode: return "invalid-opcode";
    case Trap::kMisalignedLoad: return "misaligned-load";
    case Trap::kMisalignedStore: return "misaligned-store";
    case Trap::kLoadOutOfBounds: return "load-out-of-bounds";
    case Trap::kStoreOutOfBounds: return "store-out-of-bounds";
    case Trap::kPcOutOfBounds: return "pc-out-of-bounds";
    case Trap::kDivByZero: return "div-by-zero";
  }
  return "?";
}

std::uint32_t alu_eval(Op op, std::uint32_t a, std::uint32_t b) noexcept {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  switch (op) {
    case Op::kAdd: case Op::kAddi: return a + b;
    case Op::kSub: return a - b;
    case Op::kAnd: case Op::kAndi: return a & b;
    case Op::kOr: case Op::kOri: return a | b;
    case Op::kXor: case Op::kXori: return a ^ b;
    case Op::kSll: case Op::kSlli: return a << (b & 31u);
    case Op::kSrl: case Op::kSrli: return a >> (b & 31u);
    case Op::kSra: case Op::kSrai:
      return static_cast<std::uint32_t>(sa >> (b & 31u));
    case Op::kSlt: case Op::kSlti: return sa < sb ? 1u : 0u;
    case Op::kSltu: return a < b ? 1u : 0u;
    case Op::kMul:
      return static_cast<std::uint32_t>(
          static_cast<std::int64_t>(sa) * static_cast<std::int64_t>(sb));
    case Op::kMulh:
      return static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(sa) * static_cast<std::int64_t>(sb)) >> 32);
    case Op::kDiv:
      // b == 0 traps before evaluation; INT_MIN / -1 saturates.
      if (sa == INT32_MIN && sb == -1) return static_cast<std::uint32_t>(INT32_MIN);
      return static_cast<std::uint32_t>(sa / sb);
    case Op::kRem:
      if (sa == INT32_MIN && sb == -1) return 0;
      return static_cast<std::uint32_t>(sa % sb);
    case Op::kLui: return b << 16;
    default: return 0;
  }
}

bool branch_taken(Op op, std::uint32_t a, std::uint32_t b) noexcept {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt: return sa < sb;
    case Op::kBge: return sa >= sb;
    case Op::kBltu: return a < b;
    case Op::kBgeu: return a >= b;
    default: return false;
  }
}

}  // namespace clear::isa
