//! Bit-accurate OFP8 (FP8) softfloat types and the storage [`Format`]
//! selector for the cast-in/cast-out datapath.
//!
//! Two 8-bit formats from the Open Compute "OFP8" specification (the ones the
//! RedMulE journal follow-up adds via `redmule_castin`/`redmule_castout`):
//!
//! * [`E4M3`] — 4 exponent bits (bias 7), 3 mantissa bits. No infinities;
//!   the single NaN code per sign is `S.1111.111`, so the exponent field
//!   `1111` encodes *normal* values for every other mantissa. Max finite is
//!   448; finite overflow produces NaN.
//! * [`E5M2`] — 5 exponent bits (bias 15, identical to binary16), 2 mantissa
//!   bits. A conventional IEEE-style format: it has infinities, max finite is
//!   57344, and finite overflow produces infinity.
//!
//! Both types are thin wrappers over their `u8` bit pattern, mirroring
//! [`F16`]. Widening to binary16 (`to_f16`, the hardware `castin`) is exact
//! for every bit pattern; narrowing (`from_f16`, the hardware `castout`)
//! performs a single round-to-nearest-even step in a few integer
//! operations, so the FP8↔FP16 round trip is lossless for all 256 patterns
//! of either format.

use crate::F16;

const SIGN8: u8 = 0x80;

/// Round-to-nearest-even narrowing of a binary16 magnitude (sign bit
/// clear) to an E4M3 magnitude code, in a few integer operations.
///
/// From 2^-6, E4M3's smallest normal, up: round binary16's 10-bit
/// fraction at bit 7 (a carry ripples into the exponent), then re-bias
/// the exponent from 15 to 7, which is 8 binades of 8 codes. A result
/// past 448, the largest finite, is the NaN code; infinities and NaNs
/// land there too. Below 2^-6 the value rounds onto the 2^-9 subnormal
/// grid, a carry out of it encoding the smallest normal.
fn e4m3_rne_magnitude(mag: u16) -> u8 {
    let mag = u32::from(mag);
    if mag >= 0x2400 {
        let code = ((mag + 0x3F + ((mag >> 7) & 1)) >> 7) - 0x40;
        return if code > 0x7E { 0x7F } else { code as u8 };
    }
    // Significand with its hidden bit (none for binary16 subnormals), in
    // units of 2^-24 scaled up by the binade: shifting right by
    // `16 - max(e, 1)` counts it in 2^-9 steps.
    let e = mag >> 10;
    let sig = if e == 0 { mag } else { (mag & 0x3FF) | 0x400 };
    let shift = 16 - e.max(1);
    ((sig + (1 << (shift - 1)) - 1 + ((sig >> shift) & 1)) >> shift) as u8
}

/// An OFP8 E4M3 value: 1 sign, 4 exponent (bias 7), 3 mantissa bits.
///
/// E4M3 trades the infinities away for an extra binade of range: the
/// exponent field `1111` encodes normal values up to 448, and the single
/// NaN per sign sits at `S.1111.111`. Finite overflow produces that NaN
/// (OFP8 semantics).
///
/// # Example
///
/// ```
/// use redmule_fp16::{E4M3, F16};
///
/// let x = E4M3::from_f16(F16::from_f32(3.14));
/// assert_eq!(x.to_f16().to_f32(), 3.25); // nearest E4M3 value
/// assert!(E4M3::from_f16(F16::from_f32(1.0e4)).is_nan());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct E4M3(u8);

impl E4M3 {
    /// Positive zero.
    pub const ZERO: E4M3 = E4M3(0x00);
    /// Negative zero.
    pub const NEG_ZERO: E4M3 = E4M3(0x80);
    /// One.
    pub const ONE: E4M3 = E4M3(0x38);
    /// Largest finite value, 448.
    pub const MAX: E4M3 = E4M3(0x7E);
    /// Smallest positive (subnormal) value, 2^-9.
    pub const MIN_POSITIVE_SUBNORMAL: E4M3 = E4M3(0x01);
    /// The (positive-signed) NaN. E4M3 has exactly one NaN code per sign.
    pub const NAN: E4M3 = E4M3(0x7F);

    /// Wraps a raw bit pattern.
    pub const fn from_bits(bits: u8) -> E4M3 {
        E4M3(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Whether this is one of the two NaN codes (`0x7F` / `0xFF`).
    pub const fn is_nan(self) -> bool {
        self.0 & 0x7F == 0x7F
    }

    /// Widens to binary16 (the hardware `castin` stage). Exact for every
    /// bit pattern: E4M3's entire value set embeds in binary16's normals.
    pub fn to_f16(self) -> F16 {
        let sign = u16::from(self.0 & SIGN8) << 8;
        let exp = u16::from(self.0 >> 3) & 0xF;
        let man = u16::from(self.0 & 0x7);
        if self.is_nan() {
            return F16::from_bits(sign | 0x7E00);
        }
        if exp == 0 {
            if man == 0 {
                return F16::from_bits(sign);
            }
            // Subnormal: value man * 2^-9. Normalise into binary16.
            let p = 15 - man.leading_zeros() as u16; // leading-bit index, 0..=2
            let frac = (man << (10 - p)) & 0x3FF;
            return F16::from_bits(sign | ((p + 6) << 10) | frac);
        }
        // Normal: rebias 7 -> 15, widen the mantissa field 3 -> 10.
        F16::from_bits(sign | ((exp + 8) << 10) | (man << 7))
    }

    /// Narrows a binary16 value with round-to-nearest-even (the hardware
    /// `castout` stage). Overflow follows OFP8: NaN. Infinities, which
    /// E4M3 cannot represent, and NaNs become the NaN of their sign.
    pub fn from_f16(v: F16) -> E4M3 {
        let bits = v.to_bits();
        let sign8 = ((bits >> 8) as u8) & SIGN8;
        E4M3(sign8 | e4m3_rne_magnitude(bits & 0x7FFF))
    }
}

/// An OFP8 E5M2 value: 1 sign, 5 exponent (bias 15), 2 mantissa bits.
///
/// E5M2 shares binary16's exponent range exactly, so widening is a pure
/// left shift of the bit pattern by 8 and every binary16 value's top byte
/// is its nearest-even E5M2 neighbourhood. It keeps IEEE structure:
/// infinities exist and finite overflow produces them.
///
/// # Example
///
/// ```
/// use redmule_fp16::{E5M2, F16};
///
/// let x = E5M2::from_f16(F16::from_f32(3.14));
/// assert_eq!(x.to_f16().to_f32(), 3.0);
/// assert!(E5M2::from_f16(F16::from_f32(61440.0)).is_infinite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct E5M2(u8);

impl E5M2 {
    /// Positive zero.
    pub const ZERO: E5M2 = E5M2(0x00);
    /// Negative zero.
    pub const NEG_ZERO: E5M2 = E5M2(0x80);
    /// One.
    pub const ONE: E5M2 = E5M2(0x3C);
    /// Largest finite value, 57344.
    pub const MAX: E5M2 = E5M2(0x7B);
    /// Smallest positive (subnormal) value, 2^-16.
    pub const MIN_POSITIVE_SUBNORMAL: E5M2 = E5M2(0x01);
    /// Positive infinity.
    pub const INFINITY: E5M2 = E5M2(0x7C);
    /// Negative infinity.
    pub const NEG_INFINITY: E5M2 = E5M2(0xFC);
    /// The canonical quiet NaN (positive sign, quiet-bit payload).
    pub const NAN: E5M2 = E5M2(0x7E);

    /// Wraps a raw bit pattern.
    pub const fn from_bits(bits: u8) -> E5M2 {
        E5M2(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Whether this is a NaN (all-ones exponent, non-zero mantissa).
    pub const fn is_nan(self) -> bool {
        self.0 & 0x7C == 0x7C && self.0 & 0x3 != 0
    }

    /// Whether this is ±infinity.
    pub const fn is_infinite(self) -> bool {
        self.0 & 0x7F == 0x7C
    }

    /// Widens to binary16 (the hardware `castin` stage). Because E5M2 is
    /// binary16's top byte — same bias, same exponent width — this is
    /// exactly `bits << 8` and is exact for every bit pattern, subnormals
    /// and specials included.
    pub fn to_f16(self) -> F16 {
        F16::from_bits(u16::from(self.0) << 8)
    }

    /// Narrows a binary16 value with round-to-nearest-even (the hardware
    /// `castout` stage). Overflow produces ±infinity. NaNs keep their sign
    /// and top payload bits, quietened so the result stays a NaN.
    pub fn from_f16(v: F16) -> E5M2 {
        let bits = v.to_bits();
        if bits & 0x7FFF <= 0x7C00 {
            // Every non-NaN value: round binary16's low byte to nearest
            // even at bit 8. A carry ripples into the exponent, and past
            // 57344 into the infinity code, exactly as IEEE overflow
            // under RNE requires; infinities keep their code.
            let b = u32::from(bits);
            return E5M2(((b + 0x7F + ((b >> 8) & 1)) >> 8) as u8);
        }
        // Keep the top two payload bits; force the quiet bit if truncation
        // would otherwise produce the infinity code.
        let sign8 = ((bits >> 8) as u8) & SIGN8;
        let mut payload = ((bits >> 8) as u8) & 0x3;
        if payload == 0 {
            payload = 0x2;
        }
        E5M2(sign8 | 0x7C | payload)
    }
}

/// Storage format of a GEMM job's operands in TCDM.
///
/// Selects how X, W and Z elements are laid out in memory and cast at the
/// datapath boundary: [`Format::Fp16`] streams 2-byte elements straight into
/// the FMA core; the FP8 formats store 1-byte elements that are widened at
/// buffer fill (`castin`) and narrowed with round-to-nearest-even at store
/// drain (`castout`), while the accumulation core itself stays FP16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Format {
    /// IEEE binary16, the native datapath precision (2 bytes/element).
    #[default]
    Fp16,
    /// OFP8 E4M3 storage, widened/narrowed at the cast stages (1 byte).
    Fp8E4M3,
    /// OFP8 E5M2 storage, widened/narrowed at the cast stages (1 byte).
    Fp8E5M2,
}

impl Format {
    /// Every format, in register-tag order.
    pub const ALL: [Format; 3] = [Format::Fp16, Format::Fp8E4M3, Format::Fp8E5M2];

    /// Bytes per stored element.
    pub const fn elem_bytes(self) -> usize {
        match self {
            Format::Fp16 => 2,
            Format::Fp8E4M3 | Format::Fp8E5M2 => 1,
        }
    }

    /// Whether this is one of the 8-bit storage formats.
    pub const fn is_fp8(self) -> bool {
        !matches!(self, Format::Fp16)
    }

    /// Register-field / snapshot encoding of this format.
    pub const fn tag(self) -> u8 {
        match self {
            Format::Fp16 => 0,
            Format::Fp8E4M3 => 1,
            Format::Fp8E5M2 => 2,
        }
    }

    /// Decodes a register-field / snapshot tag; `None` for the reserved
    /// encoding 3 and anything wider.
    pub const fn from_tag(tag: u8) -> Option<Format> {
        match tag {
            0 => Some(Format::Fp16),
            1 => Some(Format::Fp8E4M3),
            2 => Some(Format::Fp8E5M2),
            _ => None,
        }
    }

    /// Short lowercase label used in reports and benchmark artefacts.
    pub const fn label(self) -> &'static str {
        match self {
            Format::Fp16 => "fp16",
            Format::Fp8E4M3 => "fp8e4m3",
            Format::Fp8E5M2 => "fp8e5m2",
        }
    }

    /// The value `v` becomes after a castout/castin round trip through this
    /// storage format (identity for `Fp16`).
    ///
    /// This is the quantisation a functional model must apply to match the
    /// engine bit-for-bit: operands pass through storage on the way in, and
    /// results pass through it on the way out.
    pub fn quantize(self, v: F16) -> F16 {
        match self {
            Format::Fp16 => v,
            Format::Fp8E4M3 => E4M3::from_f16(v).to_f16(),
            Format::Fp8E5M2 => E5M2::from_f16(v).to_f16(),
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e4m3(bits: u16) -> u8 {
        E4M3::from_f16(F16::from_bits(bits)).to_bits()
    }

    fn e5m2(bits: u16) -> u8 {
        E5M2::from_f16(F16::from_bits(bits)).to_bits()
    }

    #[test]
    fn e4m3_named_constants_have_the_documented_bits() {
        assert_eq!(E4M3::ONE.to_f16().to_bits(), 0x3C00);
        assert_eq!(E4M3::MAX.to_f16().to_bits(), 0x5F00); // 448
        assert_eq!(E4M3::MIN_POSITIVE_SUBNORMAL.to_f16().to_bits(), 0x1800); // 2^-9
        assert!(E4M3::NAN.is_nan());
        assert!(E4M3::from_bits(0xFF).is_nan());
        assert!(!E4M3::MAX.is_nan());
    }

    #[test]
    fn e5m2_named_constants_have_the_documented_bits() {
        assert_eq!(E5M2::ONE.to_f16().to_bits(), 0x3C00);
        assert_eq!(E5M2::MAX.to_f16().to_bits(), 0x7B00); // 57344
        assert_eq!(E5M2::MIN_POSITIVE_SUBNORMAL.to_f16().to_bits(), 0x0100); // 2^-16
        assert!(E5M2::INFINITY.is_infinite());
        assert!(E5M2::NAN.is_nan());
        assert!(!E5M2::NAN.is_infinite());
    }

    #[test]
    fn e4m3_overflow_boundary_follows_ofp8() {
        // 464 = 0x5F40 is the midpoint between 448 (max finite) and the
        // would-be 480; RNE ties to the even mantissa, which is 448.
        assert_eq!(e4m3(0x5F40), 0x7E);
        // One ulp above the midpoint rounds up and overflows to NaN.
        assert_eq!(e4m3(0x5F41), 0x7F);
        // Infinity cannot be represented: always NaN, sign preserved.
        assert_eq!(e4m3(0x7C00), 0x7F);
        assert_eq!(e4m3(0xFC00), 0xFF);
    }

    #[test]
    fn e5m2_overflow_boundary_produces_infinity() {
        // 61440 = 0x7B80 is the midpoint between 57344 (max finite) and the
        // would-be 65536; the even side is 65536, so RNE overflows to Inf.
        assert_eq!(e5m2(0x7B80), 0x7C);
        // Just below the midpoint stays at max finite.
        assert_eq!(e5m2(0x7B7F), 0x7B);
        // Real infinities pass through.
        assert_eq!(e5m2(0x7C00), 0x7C);
        assert_eq!(e5m2(0xFC00), 0xFC);
    }

    #[test]
    fn rne_ties_resolve_to_even_mantissas() {
        // 2.125 = 0x4040 is halfway between E4M3's 2.0 (man 000) and
        // 2.25 (man 001): even is 2.0.
        assert_eq!(e4m3(0x4040), 0x40);
        // 2.375 = 0x40C0 is halfway between 2.25 and 2.5: even is 2.5.
        assert_eq!(e4m3(0x40C0), 0x42);
    }

    #[test]
    fn subnormal_boundaries_underflow_gradually() {
        // Half of E4M3's smallest subnormal (2^-10 = 0x1400) ties to even
        // (zero).
        assert_eq!(e4m3(0x1400), 0x00);
        assert_eq!(e4m3(0x9400), 0x80); // signed zero
                                        // Smallest binary16 subnormal is far below either FP8 format.
        assert_eq!(e4m3(0x0001), 0x00);
        assert_eq!(e5m2(0x0001), 0x00);
        // E5M2's smallest subnormal is exactly binary16's 2^-16.
        assert_eq!(e5m2(0x0100), 0x01);
    }

    #[test]
    fn signed_zeros_survive_the_cast_in_both_directions() {
        assert_eq!(e4m3(0x0000), 0x00);
        assert_eq!(e4m3(0x8000), 0x80);
        assert_eq!(e5m2(0x0000), 0x00);
        assert_eq!(e5m2(0x8000), 0x80);
        assert_eq!(E4M3::NEG_ZERO.to_f16().to_bits(), 0x8000);
        assert_eq!(E5M2::NEG_ZERO.to_f16().to_bits(), 0x8000);
    }

    #[test]
    fn nan_narrowing_is_canonical_and_sign_preserving() {
        // E4M3 has a single NaN code per sign.
        assert_eq!(e4m3(0x7E01), 0x7F);
        assert_eq!(e4m3(0xFFFF), 0xFF);
        // E5M2 keeps the top payload bits; a payload that would truncate to
        // zero (turning NaN into Inf) gets the quiet bit forced instead.
        assert_eq!(e5m2(0x7E00), 0x7E);
        assert_eq!(e5m2(0x7D00), 0x7D);
        assert_eq!(e5m2(0x7C01), 0x7E);
        assert_eq!(e5m2(0xFC01), 0xFE);
        assert!(E5M2::from_bits(e5m2(0x7C01)).is_nan());
    }

    #[test]
    fn e5m2_widen_is_the_top_byte() {
        for bits in 0u16..=0xFF {
            let wide = E5M2::from_bits(bits as u8).to_f16().to_bits();
            assert_eq!(wide, bits << 8);
        }
    }

    #[test]
    fn format_tags_round_trip_and_reserved_tag_is_rejected() {
        for format in Format::ALL {
            assert_eq!(Format::from_tag(format.tag()), Some(format));
        }
        assert_eq!(Format::from_tag(3), None);
        assert_eq!(Format::from_tag(0xFF), None);
    }

    #[test]
    fn format_reports_element_widths_and_labels() {
        assert_eq!(Format::Fp16.elem_bytes(), 2);
        assert_eq!(Format::Fp8E4M3.elem_bytes(), 1);
        assert_eq!(Format::Fp8E5M2.elem_bytes(), 1);
        assert!(!Format::Fp16.is_fp8());
        assert!(Format::Fp8E4M3.is_fp8());
        let labels: Vec<&str> = Format::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels, ["fp16", "fp8e4m3", "fp8e5m2"]);
        assert_eq!(Format::default(), Format::Fp16);
    }

    #[test]
    fn quantize_is_identity_for_fp16_and_a_projection_for_fp8() {
        let v = F16::from_bits(0x3C01); // 1.0 + 1 ulp
        assert_eq!(Format::Fp16.quantize(v), v);
        let q = Format::Fp8E4M3.quantize(v);
        assert_eq!(q.to_bits(), 0x3C00); // snaps to 1.0
        assert_eq!(Format::Fp8E4M3.quantize(q), q); // idempotent
        let q = Format::Fp8E5M2.quantize(v);
        assert_eq!(q.to_bits(), 0x3C00);
        assert_eq!(Format::Fp8E5M2.quantize(q), q);
    }
}
