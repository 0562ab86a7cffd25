// Behavioral model of the UltraScale DSP48E2 slice (UG579).
//
// This is the substrate the paper repurposes: its CAM cell is a DSP48E2 with
// the logic unit configured for O = (A:B) XOR C and the pattern detector
// comparing that output against PATTERN under MASK. The model implements the
// documented datapath at cycle granularity:
//
//   ports      A[29:0], B[17:0], C[47:0], D[26:0], CARRYIN, PCIN[47:0],
//              OPMODE[8:0], ALUMODE[3:0], INMODE[4:0], clock enables
//   pre-adder  AD = D + A (or variants per INMODE), 27-bit
//   multiplier M = A(or AD) x B, 27x18 -> 45-bit, sign behaviour simplified
//              to the unsigned range used here
//   ALU        W + X + Y + Z + CIN arithmetic, or the two-input logic unit
//              (UG579 Table 2-10) when ALUMODE[2] is set and the multiplier
//              is unused
//   detector   PATTERNDETECT  = (P ~^ PATTERN) | MASK reduced by AND
//              PATTERNBDETECT = (P ~^ ~PATTERN) | MASK reduced by AND
//   pipeline   AREG/BREG (0-2), CREG/DREG/ADREG/MREG (0-1), PREG (0-1),
//              control registers aligned with the first input stage
//   cascade    PCOUT (registered with P), ACOUT/BCOUT pass-through
//
// Latency falls out of the register configuration rather than being asserted:
// with AREG=BREG=CREG=1 and PREG=1 (the paper's CAM configuration), data
// presented on C reaches PATTERNDETECT two commits later, and a value written
// to A:B is stored after one commit - exactly Table V's 2-cycle search /
// 1-cycle update.
//
// Deliberate simplifications (documented, tested around): SIMD sub-word modes
// and the wide-XOR block are not modelled (the paper uses ONE48 only);
// multiplication is unsigned over the operand ranges used; CARRYCASCADE and
// multi-bit CARRYOUT are reduced to the single ALU carry.
#pragma once

#include <cstdint>
#include <optional>

#include "src/common/bitops.h"
#include "src/dsp/opmode.h"

namespace dspcam::dsp {

/// SIMD partitioning of the 48-bit ALU (UG579 USE_SIMD). In TWO24/FOUR12
/// the adder splits into independent lanes with separate carries; the
/// multiplier and pattern detector must be unused. The CAM never uses SIMD
/// (ONE48 only); it is modelled for substrate completeness.
enum class SimdMode : std::uint8_t { kOne48, kTwo24, kFour12 };

/// Static (elaboration-time) attributes of a DSP48E2 instance. These mirror
/// the HDL generics/attributes: register counts and pattern-detector wiring
/// are fixed when the bitstream is built.
struct Dsp48e2Attributes {
  unsigned areg = 1;  ///< A input registers (0, 1, or 2).
  unsigned breg = 1;  ///< B input registers (0, 1, or 2).
  unsigned creg = 1;  ///< C input register (0 or 1).
  unsigned dreg = 1;  ///< D input register (0 or 1).
  unsigned adreg = 1; ///< Pre-adder output register (0 or 1).
  unsigned mreg = 1;  ///< Multiplier output register (0 or 1).
  unsigned preg = 1;  ///< P output register (0 or 1).

  bool use_mult = false;  ///< USE_MULT: multiplier active (excludes logic unit).
  bool use_preadder = false;  ///< Pre-adder in the A path.
  SimdMode simd = SimdMode::kOne48;  ///< ALU lane partitioning.

  std::uint64_t pattern = 0;       ///< PATTERN attribute (48-bit).
  std::uint64_t mask = 0;          ///< MASK attribute (48-bit, 1 = ignore bit).
  bool sel_pattern_from_c = false; ///< SEL_PATTERN = C instead of the attribute.
  bool sel_mask_from_c = false;    ///< SEL_MASK = C instead of the attribute.

  std::uint64_t rnd = 0;  ///< RND attribute feeding the W mux.

  /// Throws ConfigError if the combination is not a legal DSP48E2 config.
  void validate() const;
};

/// Dynamic per-cycle inputs. The owning component fills this during its
/// eval() phase; fields not driven default to benign values.
struct Dsp48e2Inputs {
  std::uint64_t a = 0;      ///< 30-bit A port.
  std::uint64_t b = 0;      ///< 18-bit B port.
  std::uint64_t c = 0;      ///< 48-bit C port.
  std::uint64_t d = 0;      ///< 27-bit D port.
  std::uint64_t pcin = 0;   ///< 48-bit P cascade input.
  bool carry_in = false;

  std::uint16_t opmode = 0; ///< 9-bit OPMODE.
  std::uint8_t alumode = 0; ///< 4-bit ALUMODE.
  std::uint8_t inmode = 0;  ///< 5-bit INMODE (subset modelled; see eval).

  bool ce_a = true;  ///< Clock enable for the A register chain.
  bool ce_b = true;  ///< Clock enable for the B register chain.
  bool ce_c = true;  ///< Clock enable for the C register.
  bool ce_p = true;  ///< Clock enable for the P/PATTERNDETECT registers.
};

/// Registered outputs, valid after commit().
struct Dsp48e2Outputs {
  std::uint64_t p = 0;          ///< 48-bit result.
  bool pattern_detect = false;  ///< P matches PATTERN under MASK.
  bool pattern_b_detect = false;///< P matches ~PATTERN under MASK.
  bool carry_out = false;       ///< ALU carry (arithmetic, lane 0).
  std::uint8_t carry_out4 = 0;  ///< Per-lane carries (CARRYOUT[3:0]; SIMD).
  std::uint64_t pcout = 0;      ///< Cascade output (= registered P).
  std::uint64_t acout = 0;      ///< A cascade (post A registers).
  std::uint64_t bcout = 0;      ///< B cascade (post B registers).
};

/// One DSP48E2 slice.
class Dsp48e2 {
 public:
  explicit Dsp48e2(const Dsp48e2Attributes& attrs);

  /// Drives this cycle's inputs; call during the owner's eval() phase,
  /// before commit(). Inputs not set in a cycle keep the
  /// previous drive (buses hold their value).
  void set_inputs(const Dsp48e2Inputs& in) { in_ = in; }

  /// Mutable access for owners that tweak a single field per cycle.
  Dsp48e2Inputs& inputs() noexcept { return in_; }

  /// Registered outputs as of the last commit.
  const Dsp48e2Outputs& outputs() const noexcept { return out_; }

  /// Static attributes this instance was elaborated with.
  const Dsp48e2Attributes& attributes() const noexcept { return attrs_; }

  /// Rewrites the PATTERN/MASK attributes. On silicon these are bitstream
  /// attributes chosen when the design is generated (the paper's template
  /// parameters); the CAM layer uses this to give each cell its own ternary
  /// or range mask, which the generated-per-instance HDL realises as
  /// per-slice attribute values.
  void set_pattern_mask(std::uint64_t pattern, std::uint64_t mask);

  /// Registered A:B concatenation - the stored word of a CAM cell.
  std::uint64_t stored_ab() const noexcept {
    return ((a_regs_[0] & low_bits(30)) << 18) | (b_regs_[0] & low_bits(18));
  }

  /// Overwrites the registered A:B value directly, bypassing the clocked
  /// input path. This models state corruption/repair that is asynchronous to
  /// the clock (an SEU in the register, a scrub engine's restore - see
  /// src/fault/); it is not reachable from the HDL-visible ports.
  void poke_ab(std::uint64_t value) noexcept {
    a_regs_[0] = (value >> 18) & low_bits(30);
    b_regs_[0] = value & low_bits(18);
  }

  /// Total input-to-P latency in cycles for the ALU (non-multiplier) path
  /// through the C port: CREG + PREG.
  unsigned c_to_p_latency() const noexcept { return attrs_.creg + attrs_.preg; }

  /// Synchronous reset: clears every pipeline register and the outputs.
  void reset();

  // Two-phase clocking: the slice is purely registered; all combinational work
  // happens in commit() against the *pre-commit* register state, which is
  // equivalent to eval/commit splitting because nothing reads this slice's
  // combinational nets mid-cycle (outputs are registered).
  void eval() {}
  void commit();

 private:
  struct CtrlState {
    std::uint16_t opmode = 0;
    std::uint8_t alumode = 0;
    bool carry_in = false;
  };

  struct AluResult {
    std::uint64_t p = 0;
    bool carry = false;
    std::uint8_t carry4 = 0;
    bool pattern_detect = false;
    bool pattern_b_detect = false;
  };

  /// Evaluates the combinational datapath against current register state.
  AluResult compute_datapath() const;

  /// Current value of the A path after its register chain.
  std::uint64_t a_eff() const noexcept;
  std::uint64_t b_eff() const noexcept;
  std::uint64_t c_eff() const noexcept;

  Dsp48e2Attributes attrs_;
  Dsp48e2Inputs in_;

  // Register chains; index 0 is the first stage.
  std::uint64_t a_regs_[2] = {0, 0};
  std::uint64_t b_regs_[2] = {0, 0};
  std::uint64_t c_reg_ = 0;
  std::uint64_t d_reg_ = 0;
  std::uint64_t ad_reg_ = 0;
  std::uint64_t m_reg_ = 0;
  CtrlState ctrl_reg_;

  Dsp48e2Outputs out_;
};

}  // namespace dspcam::dsp
