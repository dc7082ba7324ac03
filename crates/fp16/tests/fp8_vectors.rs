//! Directed FP8 cast vectors, checked in at `tests/vectors/e4m3.txt`
//! and `tests/vectors/e5m2.txt`.
//!
//! Each file was generated **once** from the softfloat reference
//! ([`redmule_fp16::E4M3::from_f16`] / [`redmule_fp16::E5M2::from_f16`])
//! by the `#[ignore]`d `regenerate_vectors` test and committed; from then
//! on it is ground truth. `checked_in_vectors_match_exactly` replays
//! every line and asserts bit-exact equality, so any change to the
//! narrowing rounding, the OFP8 overflow policy or the NaN payload
//! handling shows up as a diff against the frozen files rather than
//! silently moving the reference.
//!
//! Line format: `a rne expected` — `a` the binary16 input (4 hex
//! digits), `rne` the one rounding mode (round-to-nearest-even),
//! `expected` the FP8 result (2 hex digits); `#` starts a comment.

use redmule_fp16::{E4M3, E5M2, F16};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fp8Kind {
    E4M3,
    E5M2,
}

impl Fp8Kind {
    const ALL: [Fp8Kind; 2] = [Fp8Kind::E4M3, Fp8Kind::E5M2];

    fn path(self) -> &'static str {
        match self {
            Fp8Kind::E4M3 => concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors/e4m3.txt"),
            Fp8Kind::E5M2 => concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors/e5m2.txt"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Fp8Kind::E4M3 => "E4M3",
            Fp8Kind::E5M2 => "E5M2",
        }
    }

    fn narrow(self, bits: u16) -> u8 {
        let v = F16::from_bits(bits);
        match self {
            Fp8Kind::E4M3 => E4M3::from_f16(v).to_bits(),
            Fp8Kind::E5M2 => E5M2::from_f16(v).to_bits(),
        }
    }
}

/// The directed binary16 inputs for one format: every case the
/// checked-in file covers, grouped by the corner it aims at.
fn directed_inputs(kind: Fp8Kind) -> Vec<u16> {
    let mut cases: Vec<u16> = Vec::new();

    // --- Zeros and exact small values ----------------------------------
    cases.extend([0x0000, 0x8000, 0x3C00, 0xBC00, 0x4000]);

    // --- Format-specific ties, ulp steps and range edges ---------------
    match kind {
        Fp8Kind::E4M3 => cases.extend([
            0x3C40, // 1 + 1/16: tie between 1.0 (even) and 1.125 (odd)
            0x3CC0, // 1 + 3/16: tie between 1.125 (odd) and 1.25 (even)
            0x3C41, // just above the first tie
            0x5F00, // 448 = E4M3 MAX, exact
            0x5F40, // 464: tie between MAX and the virtual 480 rung
            0x5F41, // just above the overflow tie
            0xDF40, // -464: the mirrored overflow tie
            0x1800, // 2^-9 = E4M3 min subnormal, exact
            0x1400, // 2^-10: tie at half the min subnormal
            0x1000, // 2^-11: under half, rounds to zero
            0x1C00, // 2^-8 = two min subnormals
            0x1A00, // 1.5 * 2^-9: tie between one and two min subnormals
            0x2000, // 2^-7 = E4M3 min normal
            0x1F00, // just under the min normal: subnormal result
        ]),
        Fp8Kind::E5M2 => cases.extend([
            0x3C80, // 1 + 1/8: tie between 1.0 (even) and 1.25 (odd)
            0x3D80, // 1 + 3/8: tie between 1.25 (odd) and 1.5 (even)
            0x3C81, // just above the first tie
            0x7800, // 57344 = E5M2 MAX, exact
            0x7B80, // 61440: tie between MAX and the virtual 65536 rung
            0x7B81, // just above the overflow tie
            0xFB80, // -61440: the mirrored overflow tie
            0x0100, // 2^-16 = E5M2 min subnormal, exact
            0x0080, // 2^-17: tie at half the min subnormal
            0x0040, // 2^-18: under half
            0x0180, // 1.5 * 2^-16: tie between one and two min subnormals
            0x0400, // 2^-14 = E5M2 min normal (binary16's too)
            0x03FF, // binary16's max subnormal: subnormal in E5M2 too
        ]),
    }

    // --- Specials: infinities and NaN payloads -------------------------
    // E4M3 collapses Inf to NaN; E5M2 keeps it. NaN payload narrowing
    // differs per format — the frozen file pins both policies.
    cases.extend([
        0x7C00, 0xFC00, // +/-Inf
        0x7E00, 0xFE00, // canonical qNaN, both signs
        0x7C01, 0xFC01, // sNaN with a low payload bit only
        0x7D00, // NaN, payload top bits 01
        0x7F33, // NaN, payload top bits 11 plus noise
        0xFE77, // -NaN with mixed payload
    ]);

    // --- Overflow far past the range -----------------------------------
    cases.extend([0x7BFF, 0xFBFF, 0x7801, 0xF801]);

    // --- Deterministic seeded fill --------------------------------------
    // Each file was first frozen with one line per rounding mode of five;
    // its seeded fill drew cases up to 220 lines and gave each the mode
    // `(r >> 48) % 5`. The lines kept are the round-to-nearest-even ones,
    // selector 0, so the same draws keep the frozen lines byte for byte.
    let (mut state, draws) = match kind {
        Fp8Kind::E4M3 => (E4M3_SEED, 60),
        Fp8Kind::E5M2 => (E5M2_SEED, 65),
    };
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..draws {
        let r = next();
        if (r >> 48) % 5 == 0 {
            cases.push(r as u16);
        }
    }
    cases
}

const E4M3_SEED: u64 = 0xE4F8_0001_2345_6789;
const E5M2_SEED: u64 = 0xE5F8_0002_BCDE_F012;

fn render_vectors(kind: Fp8Kind) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Directed binary16 -> {} cast vectors: a mode expected (hex bit patterns).\n\
         # Generated from the softfloat reference by fp8_vectors.rs::regenerate_vectors\n\
         # and FROZEN: a diff in existing lines means the narrowing behaviour moved.",
        kind.name()
    );
    for a in directed_inputs(kind) {
        let expected = kind.narrow(a);
        let _ = writeln!(out, "{a:04x} rne {expected:02x}");
    }
    out
}

/// Without `REGEN_FP8_VECTORS=1` this is a dry-run: it renders both files
/// from the reference and asserts they match what is checked in (the
/// drift check CI runs through `make test-full`). With the variable set — only when adding new
/// directed cases — it (re)writes `tests/vectors/e4m3.txt` and
/// `e5m2.txt`; review the diff, existing lines changing means the
/// reference moved.
#[test]
#[ignore = "slow-path drift check; CI runs it via `make test-full` (--include-ignored)"]
fn regenerate_vectors() {
    for kind in Fp8Kind::ALL {
        let out = render_vectors(kind);
        let path = kind.path();
        let exists = std::path::Path::new(path).exists();
        if std::env::var_os("REGEN_FP8_VECTORS").is_some() || !exists {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors");
            std::fs::create_dir_all(dir).expect("create vectors dir");
            std::fs::write(path, out).expect("write fp8 vectors");
        } else {
            let current = std::fs::read_to_string(path).expect("read fp8 vectors");
            assert_eq!(
                current,
                out,
                "the {} reference no longer reproduces the frozen vectors; \
                 if the change is intentional, regenerate with REGEN_FP8_VECTORS=1 \
                 and review the diff",
                kind.name()
            );
        }
    }
}

/// Every checked-in vector must match the implementation bit-exactly.
#[test]
fn checked_in_vectors_match_exactly() {
    for kind in Fp8Kind::ALL {
        let path = kind.path();
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let mut checked = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(
                fields.len(),
                3,
                "{path}:{}: expected `a rne expected`",
                lineno + 1
            );
            assert_eq!(fields[1], "rne", "{path}:{}: bad mode", lineno + 1);
            let a = u16::from_str_radix(fields[0], 16).expect("hex input");
            let expected = u8::from_str_radix(fields[2], 16).expect("hex expected");
            let got = kind.narrow(a);
            assert_eq!(
                got,
                expected,
                "{path}:{}: {}::from_f16({a:#06x}) = {got:#04x}, file says {expected:#04x}",
                lineno + 1,
                kind.name(),
            );
            checked += 1;
        }
        assert_eq!(
            checked,
            directed_inputs(kind).len(),
            "{path} and the directed set differ in size"
        );
    }
}

/// The directed input list itself stays in sync with the files — guards
/// against the generator and the checked-in vectors drifting apart.
#[test]
fn directed_set_covers_every_category() {
    for kind in Fp8Kind::ALL {
        let inputs = directed_inputs(kind);
        let lines = match kind {
            Fp8Kind::E4M3 => 43,
            Fp8Kind::E5M2 => 46,
        };
        assert_eq!(inputs.len(), lines, "{kind:?}");
        let has = |a: u16| inputs.contains(&a);
        assert!(has(0x7C00), "+Inf case ({kind:?})");
        assert!(has(0x7E00), "quiet NaN case ({kind:?})");
        assert!(has(0x7C01), "signalling NaN case ({kind:?})");
        let overflow_tie = match kind {
            Fp8Kind::E4M3 => 0x5F40,
            Fp8Kind::E5M2 => 0x7B80,
        };
        assert!(has(overflow_tie), "overflow-boundary tie case ({kind:?})");
        let half_minsub = match kind {
            Fp8Kind::E4M3 => 0x1400,
            Fp8Kind::E5M2 => 0x0080,
        };
        assert!(has(half_minsub), "underflow-tie case ({kind:?})");
    }
}
