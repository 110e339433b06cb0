// The CRISC instruction set.
//
// The paper injects faults into the RTL of a SPARC Leon3 and an Alpha IVM
// core.  Neither RTL (nor a SPARC/Alpha toolchain) is available here, so the
// reproduction defines a compact 32-bit RISC ISA that both reproduction
// cores (arch::InOCore, arch::OoOCore) and the golden functional simulator
// (isa::Iss) execute.  The ISA is deliberately small but covers the workload
// behaviours that matter for soft-error analysis: ALU/memory/branch mixes,
// calls/returns (exercising the OoO return-address stack), multiplication /
// division (multi-cycle units), byte memory access, explicit program output
// (for silent-data-corruption detection) and explicit error-detection traps
// (for software-implemented resilience techniques).
//
// Encoding (32 bits, fixed fields):
//   [31:26] opcode
//   R-type : [25:21] rd  [20:16] rs1 [15:11] rs2
//   I-type : [25:21] rd  [20:16] rs1 [15:0]  imm16 (signed)
//   S-type : [25:21] rs2 [20:16] rs1 [15:0]  imm16 (signed)   (stores)
//   B-type : [25:21] rs1 [20:16] rs2 [15:0]  imm16 (signed, in instructions)
//   J-type : [25:21] rd  [20:0]  imm21 (signed, in instructions)
//   U-type : [25:21] rd  [15:0]  imm16 (rd = imm16 << 16)
//   X-type : [20:16] rs1 or [15:0] imm16 (system ops)
#ifndef CLEAR_ISA_ISA_H
#define CLEAR_ISA_ISA_H

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>

namespace clear::isa {

inline constexpr int kNumRegs = 32;
inline constexpr std::uint32_t kInstrBytes = 4;

enum class Op : std::uint8_t {
  // R-type ALU
  kAdd, kSub, kAnd, kOr, kXor, kSll, kSrl, kSra, kSlt, kSltu,
  kMul, kMulh, kDiv, kRem,
  // I-type ALU
  kAddi, kAndi, kOri, kXori, kSlti, kSlli, kSrli, kSrai,
  // U-type
  kLui,
  // Memory
  kLw, kLb, kLbu,     // I-type loads
  kSw, kSb,           // S-type stores
  // Branches (B-type)
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  // Jumps
  kJal,               // J-type
  kJalr,              // I-type
  // System (X-type)
  kOut,               // append value of rs1 to the program output stream
  kHalt,              // terminate; imm16 = exit code
  kDet,               // software error-detection trap; imm16 = detector id
  kSigchk,            // DFC signature checkpoint; imm16 = static block id
  kOpCount
};

inline constexpr int kOpCount = static_cast<int>(Op::kOpCount);

enum class Format : std::uint8_t { kR, kI, kS, kB, kJ, kU, kX };

struct OpInfo {
  const char* name;
  Format format;
};

// The one op table, indexed by Op: mnemonic and encoding format.  Decode,
// encode, disassembly and the assembler's mnemonic lookup all read it.
inline constexpr OpInfo kOpTable[] = {
    {"add", Format::kR},   {"sub", Format::kR},   {"and", Format::kR},
    {"or", Format::kR},    {"xor", Format::kR},   {"sll", Format::kR},
    {"srl", Format::kR},   {"sra", Format::kR},   {"slt", Format::kR},
    {"sltu", Format::kR},  {"mul", Format::kR},   {"mulh", Format::kR},
    {"div", Format::kR},   {"rem", Format::kR},   {"addi", Format::kI},
    {"andi", Format::kI},  {"ori", Format::kI},   {"xori", Format::kI},
    {"slti", Format::kI},  {"slli", Format::kI},  {"srli", Format::kI},
    {"srai", Format::kI},  {"lui", Format::kU},   {"lw", Format::kI},
    {"lb", Format::kI},    {"lbu", Format::kI},   {"sw", Format::kS},
    {"sb", Format::kS},    {"beq", Format::kB},   {"bne", Format::kB},
    {"blt", Format::kB},   {"bge", Format::kB},   {"bltu", Format::kB},
    {"bgeu", Format::kB},  {"jal", Format::kJ},   {"jalr", Format::kI},
    {"out", Format::kX},   {"halt", Format::kX},  {"det", Format::kX},
    {"sigchk", Format::kX},
};
static_assert(std::size(kOpTable) == kOpCount, "kOpTable needs one row per Op");

[[nodiscard]] constexpr Format format_of(Op op) noexcept {
  return kOpTable[static_cast<int>(op)].format;
}
[[nodiscard]] constexpr const char* mnemonic(Op op) noexcept {
  return kOpTable[static_cast<int>(op)].name;
}
// Parses a mnemonic; returns nullopt for unknown mnemonics.
[[nodiscard]] std::optional<Op> op_from_mnemonic(const std::string& s) noexcept;

// A decoded instruction.  Fields not used by the format are zero.
struct Instr {
  Op op = Op::kHalt;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;
};

// Encodes an instruction to its 32-bit word.  Field values are masked to
// their widths (callers validate ranges; the assembler reports violations).
[[nodiscard]] std::uint32_t encode(const Instr& ins) noexcept;

// Decodes a word.  Returns nullopt when the opcode field does not name a
// valid instruction -- in the cores this raises an invalid-opcode trap,
// which is one of the mechanisms by which injected flips become DUEs.
// Inline: every modelled cycle decodes at fetch and rename.
[[nodiscard]] inline std::optional<Instr> decode(std::uint32_t word) noexcept {
  const std::uint32_t opf = word >> 26;
  if (opf >= static_cast<std::uint32_t>(kOpCount)) return std::nullopt;
  const auto f25_21 = static_cast<std::uint8_t>((word >> 21) & 0x1f);
  const auto f20_16 = static_cast<std::uint8_t>((word >> 16) & 0x1f);
  const auto f15_11 = static_cast<std::uint8_t>((word >> 11) & 0x1f);
  const auto sext16 = static_cast<std::int32_t>(static_cast<std::int16_t>(
      word & 0xffff));
  Instr ins;
  ins.op = static_cast<Op>(opf);
  switch (format_of(ins.op)) {
    case Format::kR:
      ins.rd = f25_21;
      ins.rs1 = f20_16;
      ins.rs2 = f15_11;
      break;
    case Format::kI:
      ins.rd = f25_21;
      ins.rs1 = f20_16;
      // Logical immediates are zero-extended (so li/la lui+ori expansions
      // compose); arithmetic/load immediates are sign-extended.
      if (ins.op == Op::kAndi || ins.op == Op::kOri || ins.op == Op::kXori) {
        ins.imm = static_cast<std::int32_t>(word & 0xffff);
      } else {
        ins.imm = sext16;
      }
      break;
    case Format::kS:
      ins.rs2 = f25_21;
      ins.rs1 = f20_16;
      ins.imm = sext16;
      break;
    case Format::kB:
      ins.rs1 = f25_21;
      ins.rs2 = f20_16;
      ins.imm = sext16;
      break;
    case Format::kJ:
      // imm21, sign-extended.
      ins.rd = f25_21;
      ins.imm = static_cast<std::int32_t>(word << 11) >> 11;
      break;
    case Format::kU:
      ins.rd = f25_21;
      ins.imm = static_cast<std::int32_t>(word & 0xffff);
      break;
    case Format::kX:
      ins.rs1 = f20_16;
      ins.imm = sext16;
      break;
  }
  return ins;
}

[[nodiscard]] std::string disassemble(const Instr& ins);

// Hardware trap causes.  Any trap terminates the program abnormally, which
// the outcome classifier records as an Unexpected Termination (=> DUE).
enum class Trap : std::uint8_t {
  kNone,
  kInvalidOpcode,
  kMisalignedLoad,
  kMisalignedStore,
  kLoadOutOfBounds,
  kStoreOutOfBounds,
  kPcOutOfBounds,
  kDivByZero,
};

[[nodiscard]] const char* trap_name(Trap t) noexcept;

// Shared execution semantics.  Both pipeline models and the ISS evaluate
// ALU results and branch conditions through these helpers so that a single
// definition of the architecture exists (a corrupted core is compared
// against this golden semantics when classifying injection outcomes).
[[nodiscard]] std::uint32_t alu_eval(Op op, std::uint32_t a,
                                     std::uint32_t b) noexcept;
[[nodiscard]] bool branch_taken(Op op, std::uint32_t a,
                                std::uint32_t b) noexcept;
[[nodiscard]] constexpr bool is_load(Op op) noexcept {
  return op == Op::kLw || op == Op::kLb || op == Op::kLbu;
}
[[nodiscard]] constexpr bool is_store(Op op) noexcept {
  return op == Op::kSw || op == Op::kSb;
}
[[nodiscard]] constexpr bool is_branch(Op op) noexcept {
  return op >= Op::kBeq && op <= Op::kBgeu;
}
[[nodiscard]] constexpr bool is_jump(Op op) noexcept {
  return op == Op::kJal || op == Op::kJalr;
}
// True for ops whose rd is written (ALU, loads, jal/jalr, lui): every
// format but S, B and X (I-type covers ALU-imm, loads and jalr).
[[nodiscard]] constexpr bool writes_rd(Op op) noexcept {
  const Format f = format_of(op);
  return f != Format::kS && f != Format::kB && f != Format::kX;
}
// True for mul/mulh (multi-cycle multiplier) and div/rem (iterative divider).
[[nodiscard]] constexpr bool is_mul(Op op) noexcept {
  return op == Op::kMul || op == Op::kMulh;
}
[[nodiscard]] constexpr bool is_div(Op op) noexcept {
  return op == Op::kDiv || op == Op::kRem;
}

}  // namespace clear::isa

#endif  // CLEAR_ISA_ISA_H
