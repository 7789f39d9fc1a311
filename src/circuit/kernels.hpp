#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace axf::circuit::kernels {

using Word = std::uint64_t;

/// Words per workspace slot of every wide evaluation: W = 16, so one
/// dispatch sweeps 1024 lanes.  Every backend builds its run kernels and
/// bit-plane decoders at this one width (plus the W = 1 narrow row).
inline constexpr std::size_t kBlockWords = 16;

/// Instruction alphabet of the compiled engine: every logic `GateKind`
/// plus the fused instructions produced by the peephole pass in
/// `CompiledNetlist::compile`.  Fused ops exist so a 2-gate single-use
/// chain costs one dispatch and one destination store instead of two full
/// workspace round-trips.
enum class OpCode : std::uint8_t {
    Buf,      ///< a
    Not,      ///< ~a
    And,      ///< a & b
    Or,       ///< a | b
    Xor,      ///< a ^ b
    Nand,     ///< ~(a & b)
    Nor,      ///< ~(a | b)
    Xnor,     ///< ~(a ^ b)
    AndNot,   ///< a & ~b
    OrNot,    ///< a | ~b
    Mux,      ///< c ? b : a
    Maj,      ///< majority(a, b, c)
    Xor3,     ///< a ^ b ^ c        (fused full-adder sum)
    MuxNotA,  ///< c ? b : ~a       (fused Not -> Mux data-low)
    MuxNotB,  ///< c ? ~b : a       (fused Not -> Mux data-high)
    HalfAdd,  ///< dst = a ^ b  AND  slot c = a & b  (dual-destination pair)
    And3,     ///< a & b & c        (fused AND-tree level)
    Or3,      ///< a | b | c        (fused OR-compressor level)
};
inline constexpr std::size_t kOpCount = 18;

const char* opCodeName(OpCode op);

/// Operand count of an opcode.  HalfAdd reads a and b; its c field is the
/// second *destination*.  Single source of truth for both the compiler's
/// fusion/scheduling passes and the kernel bodies — a drift between the
/// two would make the compiler emit operands a kernel never reads (or
/// vice versa) with silently wrong results.
constexpr int opFanIn(OpCode op) {
    switch (op) {
        case OpCode::Buf:
        case OpCode::Not: return 1;
        case OpCode::Mux:
        case OpCode::Maj:
        case OpCode::Xor3:
        case OpCode::MuxNotA:
        case OpCode::MuxNotB:
        case OpCode::And3:
        case OpCode::Or3: return 3;
        default: return 2;
    }
}

/// Reference boolean semantics of an opcode's primary result (for HalfAdd
/// that is the *sum*; the carry written to slot `c` is `opCarryEval`).
/// THE single source of truth every executable form must derive from or be
/// checked against: the generic kernel bodies (static_asserted in
/// kernels_generic.inc), the `GateKind` lowering (static_asserted in
/// batch_sim.cpp) and the static verifier's fusion-legality check
/// (src/verify re-derives every fused instruction's function from it).
constexpr bool opEval(OpCode op, bool a, bool b, bool c) {
    switch (op) {
        case OpCode::Buf: return a;
        case OpCode::Not: return !a;
        case OpCode::And: return a && b;
        case OpCode::Or: return a || b;
        case OpCode::Xor: return a != b;
        case OpCode::Nand: return !(a && b);
        case OpCode::Nor: return !(a || b);
        case OpCode::Xnor: return a == b;
        case OpCode::AndNot: return a && !b;
        case OpCode::OrNot: return a || !b;
        case OpCode::Mux: return c ? b : a;
        case OpCode::Maj: return (a && b) || (a && c) || (b && c);
        case OpCode::Xor3: return (a != b) != c;
        case OpCode::MuxNotA: return c ? b : !a;
        case OpCode::MuxNotB: return c ? !b : a;
        case OpCode::HalfAdd: return a != b;
        case OpCode::And3: return a && b && c;
        case OpCode::Or3: return a || b || c;
    }
    return false;
}

/// HalfAdd's secondary result, written to the `c` slot.
constexpr bool opCarryEval(bool a, bool b) { return a && b; }

/// One compiled instruction.  Operands are workspace slot indices; for
/// `HalfAdd` the `c` field is the *second destination* (the carry slot),
/// not an operand.
struct Instr {
    OpCode op;
    std::uint32_t dst, a, b, c;
};

/// Evaluates one maximal same-opcode run of `count` instructions against a
/// workspace of (slotCount * W) words.  The instruction pointer addresses
/// the first instruction of the run; any contiguous sub-range of a run is
/// itself a valid run.
using KernelFn = void (*)(const Instr* instrs, std::uint32_t count, Word* ws);

/// Decodes `bits` output bit-planes of a wide block (kBlockWords words per
/// plane, plane-major) into one integer per lane (kBlockWords * 64 lanes).
using Decode16Fn = void (*)(const Word* planes, std::size_t bits, std::uint16_t* out);
using Decode32Fn = void (*)(const Word* planes, std::size_t bits, std::uint32_t* out);

/// Kernels of one backend at W = kBlockWords: one run kernel per opcode and
/// the bit-plane decoders.
struct WidthTables {
    std::array<KernelFn, kOpCount> run;
    Decode16Fn decode16;
    Decode32Fn decode32;
};

/// One ISA backend, selected once per process (or forced per compile).
/// All backends compute bit-identical results — the tables differ only in
/// the ISA their translation unit is compiled for.
struct Backend {
    const char* name;
    /// Kernel tables at W = kBlockWords (1024 lanes per dispatch).
    WidthTables wide;
    /// Run kernels at W = 1 (64 lanes; `Simulator`, activity).
    std::array<KernelFn, kOpCount> narrow;
};

/// Backend chosen for this process: the widest ISA the CPU supports
/// (avx512 > avx2 > neon > portable), overridable with AXF_FORCE_BACKEND
/// (values: portable, avx2, avx512, neon).  An unknown value, or one the
/// CPU cannot execute, warns once on stderr and falls back to
/// auto-detection — it never silently picks a default name-match and never
/// aborts the process.  Detection runs once; the reference stays valid for
/// the process lifetime.
const Backend& selectedBackend();

/// Backend by name, or nullptr when unknown or unsupported on this CPU.
const Backend* backendByName(std::string_view name);

/// Every backend executable on this CPU, portable first.
std::vector<const Backend*> availableBackends();

/// RAII test hook: routes `selectedBackend()` to a specific backend so
/// code that compiles netlists internally (analyzeError, the autoax flow)
/// can be exercised per backend in-process.  Not for concurrent use with
/// compilation on other threads.
class ScopedBackendOverride {
public:
    explicit ScopedBackendOverride(const Backend* backend);
    ~ScopedBackendOverride();
    ScopedBackendOverride(const ScopedBackendOverride&) = delete;
    ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;

private:
    const Backend* previous_;
};

/// Resolves an AXF_FORCE_BACKEND value: the named backend, or nullptr
/// after a stderr warning when the name is unknown or the CPU cannot
/// execute it (selection then falls back to auto-detection).  Exposed so
/// the warning path is testable without mutating the process environment.
const Backend* resolveForcedBackend(std::string_view value);

/// Per-TU backend accessors; nullptr when the ISA is not compiled in.
/// (Runtime support is checked by the selection logic, not here.)
const Backend* portableBackend();
const Backend* avx2Backend();
const Backend* avx512Backend();
const Backend* neonBackend();

}  // namespace axf::circuit::kernels
