//! Directed FMA test vectors, checked in at `tests/vectors/fma.txt`.
//!
//! The file was generated **once** from the softfloat reference
//! ([`redmule_fp16::arith::fma`]) by the `#[ignore]`d
//! `regenerate_vectors` test and committed; from then on it is ground
//! truth. `checked_in_vectors_match_exactly` replays every line and
//! asserts bit-exact equality, so any change to rounding, subnormal
//! handling or NaN propagation shows up as a diff against the frozen
//! file rather than silently moving the reference.
//!
//! Line format: `a b c mode expected` (hex bit patterns, mode one of
//! `rne rtz rdn rup rmm`); `#` starts a comment.

use redmule_fp16::arith::fma;
use redmule_fp16::Round;

const VECTORS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors/fma.txt");

fn mode_name(mode: Round) -> &'static str {
    match mode {
        Round::NearestEven => "rne",
        Round::TowardZero => "rtz",
        Round::Down => "rdn",
        Round::Up => "rup",
        Round::NearestMaxMagnitude => "rmm",
    }
}

fn parse_mode(s: &str) -> Option<Round> {
    Some(match s {
        "rne" => Round::NearestEven,
        "rtz" => Round::TowardZero,
        "rdn" => Round::Down,
        "rup" => Round::Up,
        "rmm" => Round::NearestMaxMagnitude,
        _ => return None,
    })
}

/// One FMA test input: the `a`, `b`, `c` bit patterns and the rounding
/// mode.
type FmaInput = (u16, u16, u16, Round);

/// The directed inputs: every case the checked-in file covers, grouped
/// by the corner it aims at.
fn directed_inputs() -> Vec<(u16, u16, u16, Round)> {
    let mut cases: Vec<(u16, u16, u16, Round)> = Vec::new();
    let all = Round::ALL;

    // --- RNE ties ------------------------------------------------------
    // 1.0 + 2^-11 sits exactly halfway between 1.0 and 1.0 + ulp;
    // 0x3C01 + 2^-11 is the odd-significand mirror. 0x1000 = 2^-11.
    for c in [0x3C00u16, 0x3C01, 0x3C02, 0x3C03] {
        for mode in all {
            cases.push((0x3C00, 0x1000, c, mode));
        }
    }
    // Halfway products: (1 + 2^-5)^2 has a bit landing on the round bit.
    for (a, b) in [(0x3C20u16, 0x3C20u16), (0x3C10, 0x3C10), (0x3C01, 0x3C01)] {
        for mode in all {
            cases.push((a, b, 0x0000, mode));
        }
    }

    // --- Subnormal flush boundaries ------------------------------------
    // minsub * 0.5 is a tie at half the smallest subnormal: RNE flushes
    // to +0, Up keeps 0x0001 — the flush boundary itself.
    for mode in all {
        cases.push((0x0001, 0x3800, 0x0000, mode)); // minsub * 0.5
        cases.push((0x8001, 0x3800, 0x0000, mode)); // -minsub * 0.5
        cases.push((0x0001, 0x3C00, 0x0000, mode)); // minsub exactly
        cases.push((0x0400, 0x3800, 0x0000, mode)); // minnormal * 0.5 -> subnormal
        cases.push((0x0401, 0x3800, 0x0000, mode)); // just above the boundary
        cases.push((0x03FF, 0x3C00, 0x0001, mode)); // maxsub + minsub -> minnormal
        cases.push((0x0200, 0x3C00, 0x0200, mode)); // subnormal + subnormal
        cases.push((0x0001, 0x0001, 0x0000, mode)); // minsub^2: total underflow
        cases.push((0x0001, 0x0001, 0x8000, mode)); // underflow onto -0
    }

    // --- NaN propagation -----------------------------------------------
    let qnan = 0x7E00u16;
    let snan = 0x7C01u16;
    let neg_nan = 0xFE77u16;
    for mode in [Round::NearestEven, Round::TowardZero] {
        for (a, b, c) in [
            (qnan, 0x3C00, 0x3C00),
            (0x3C00, qnan, 0x3C00),
            (0x3C00, 0x3C00, qnan),
            (snan, 0x3C00, 0x3C00),
            (0x3C00, snan, 0x3C00),
            (0x3C00, 0x3C00, snan),
            (neg_nan, 0x0000, 0x7C00),
            (qnan, snan, neg_nan),
            (qnan, 0x7C00, 0x0000),
        ] {
            cases.push((a, b, c, mode));
        }
    }

    // --- Inf arithmetic and Inf - Inf ----------------------------------
    let inf = 0x7C00u16;
    let ninf = 0xFC00u16;
    for mode in all {
        cases.push((inf, 0x3C00, ninf, mode)); // +Inf + -Inf -> NaN
        cases.push((inf, 0xBC00, inf, mode)); // -Inf + +Inf -> NaN
        cases.push((inf, 0x0000, 0x3C00, mode)); // Inf * 0 -> NaN
        cases.push((0x0000, ninf, 0x0000, mode)); // 0 * -Inf -> NaN
        cases.push((inf, 0x3C00, 0x3C00, mode)); // Inf stays Inf
        cases.push((0x3C00, 0x3C00, ninf, mode)); // finite + -Inf -> -Inf
    }

    // --- Overflow saturation, per rounding mode ------------------------
    // MAX * 2 overflows: RNE/RMM/Up -> +Inf, RTZ/Down -> MAX. Mirrored
    // for the negative side.
    for mode in all {
        cases.push((0x7BFF, 0x4000, 0x0000, mode)); // MAX * 2
        cases.push((0xFBFF, 0x4000, 0x0000, mode)); // -MAX * 2
        cases.push((0x7BFF, 0x3C00, 0x7BFF, mode)); // MAX + MAX
        cases.push((0x7BFF, 0x3C01, 0x0000, mode)); // barely over
    }

    // --- Signed zeros ---------------------------------------------------
    for mode in all {
        cases.push((0x0000, 0x3C00, 0x8000, mode)); // +0 + -0 (mode-dependent!)
        cases.push((0x8000, 0x3C00, 0x0000, mode)); // -0 + +0
        cases.push((0x8000, 0x3C00, 0x8000, mode)); // -0 + -0 = -0
        cases.push((0xBC00, 0x0000, 0x0000, mode)); // -1 * +0 + +0
    }

    // --- Deterministic seeded fill up to ~200 cases ---------------------
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    while cases.len() < 200 {
        let r = next();
        let mode = Round::ALL[(r >> 48) as usize % 5];
        cases.push((r as u16, (r >> 16) as u16, (r >> 32) as u16, mode));
    }
    cases
}

fn render_vectors() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(
        "# Directed FP16 FMA vectors: a b c mode expected (hex bit patterns).\n\
         # Generated from the softfloat reference by fma_vectors.rs::regenerate_vectors\n\
         # and FROZEN: a diff in existing lines means the rounding behaviour moved.\n",
    );
    for (a, b, c, mode) in directed_inputs() {
        let expected = fma(a, b, c, mode);
        let _ = writeln!(
            out,
            "{a:04x} {b:04x} {c:04x} {} {expected:04x}",
            mode_name(mode)
        );
    }
    out
}

/// Without `REGEN_FMA_VECTORS=1` this is a dry-run: it renders the file
/// from the reference and asserts it matches what is checked in (the
/// drift check CI runs through `make test-full`). With the variable set — only when adding
/// new directed cases — it (re)writes `tests/vectors/fma.txt`; review
/// the diff, existing lines changing means the reference moved.
#[test]
#[ignore = "slow-path drift check; CI runs it via `make test-full` (--include-ignored)"]
fn regenerate_vectors() {
    let out = render_vectors();
    let exists = std::path::Path::new(VECTORS_PATH).exists();
    if std::env::var_os("REGEN_FMA_VECTORS").is_some() || !exists {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors");
        std::fs::create_dir_all(dir).expect("create vectors dir");
        std::fs::write(VECTORS_PATH, out).expect("write fma.txt");
    } else {
        let current = std::fs::read_to_string(VECTORS_PATH).expect("read fma.txt");
        assert_eq!(
            current, out,
            "the softfloat reference no longer reproduces the frozen vectors; \
             if the change is intentional, regenerate with REGEN_FMA_VECTORS=1 \
             and review the diff"
        );
    }
}

/// Every checked-in vector must match the implementation bit-exactly.
#[test]
fn checked_in_vectors_match_exactly() {
    let text = std::fs::read_to_string(VECTORS_PATH)
        .unwrap_or_else(|e| panic!("cannot read {VECTORS_PATH}: {e}"));
    let mut checked = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            fields.len(),
            5,
            "{VECTORS_PATH}:{}: expected `a b c mode expected`",
            lineno + 1
        );
        let parse = |s: &str| u16::from_str_radix(s, 16).expect("hex field");
        let (a, b, c) = (parse(fields[0]), parse(fields[1]), parse(fields[2]));
        let mode = parse_mode(fields[3])
            .unwrap_or_else(|| panic!("{VECTORS_PATH}:{}: bad mode {}", lineno + 1, fields[3]));
        let expected = parse(fields[4]);
        let got = fma(a, b, c, mode);
        assert_eq!(
            got,
            expected,
            "{VECTORS_PATH}:{}: fma({a:#06x}, {b:#06x}, {c:#06x}, {}) = {got:#06x}, \
             file says {expected:#06x}",
            lineno + 1,
            mode_name(mode),
        );
        checked += 1;
    }
    assert!(
        checked >= 200,
        "only {checked} vectors in {VECTORS_PATH}; the directed set is ~200"
    );
}

/// The directed input list itself stays in sync with the file size —
/// guards against the generator and the checked-in file drifting apart.
#[test]
fn directed_set_covers_every_category() {
    let inputs = directed_inputs();
    assert!(inputs.len() >= 200);
    let has = |f: &dyn Fn(&FmaInput) -> bool| inputs.iter().any(f);
    assert!(has(&|&(a, ..)| a == 0x0001), "subnormal boundary cases");
    assert!(has(&|&(a, ..)| a == 0x7E00), "quiet NaN cases");
    assert!(has(&|&(a, ..)| a == 0x7C01), "signalling NaN cases");
    assert!(
        has(&|&(a, _, c, _)| a == 0x7C00 && c == 0xFC00),
        "Inf - Inf cases"
    );
    assert!(has(&|&(a, ..)| a == 0x7BFF), "overflow saturation cases");
    for mode in Round::ALL {
        assert!(has(&|&(.., m)| m == mode), "mode {mode:?} is exercised");
    }
}
