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
//! Line format: `a b c rne expected` (hex bit patterns; `rne` names the
//! one rounding mode, round-to-nearest-even); `#` starts a comment.

use redmule_fp16::arith::fma;

const VECTORS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors/fma.txt");

/// One FMA test input: the `a`, `b`, `c` bit patterns.
type FmaInput = (u16, u16, u16);

/// The directed inputs: every case the checked-in file covers, grouped
/// by the corner it aims at.
fn directed_inputs() -> Vec<FmaInput> {
    let mut cases: Vec<FmaInput> = Vec::new();

    // --- RNE ties ------------------------------------------------------
    // 1.0 + 2^-11 sits exactly halfway between 1.0 and 1.0 + ulp;
    // 0x3C01 + 2^-11 is the odd-significand mirror. 0x1000 = 2^-11.
    for c in [0x3C00u16, 0x3C01, 0x3C02, 0x3C03] {
        cases.push((0x3C00, 0x1000, c));
    }
    // Halfway products: (1 + 2^-5)^2 has a bit landing on the round bit.
    for (a, b) in [(0x3C20u16, 0x3C20u16), (0x3C10, 0x3C10), (0x3C01, 0x3C01)] {
        cases.push((a, b, 0x0000));
    }

    // --- Subnormal flush boundaries ------------------------------------
    // minsub * 0.5 is a tie at half the smallest subnormal: it flushes
    // to +0 — the flush boundary itself.
    cases.extend([
        (0x0001, 0x3800, 0x0000), // minsub * 0.5
        (0x8001, 0x3800, 0x0000), // -minsub * 0.5
        (0x0001, 0x3C00, 0x0000), // minsub exactly
        (0x0400, 0x3800, 0x0000), // minnormal * 0.5 -> subnormal
        (0x0401, 0x3800, 0x0000), // just above the boundary
        (0x03FF, 0x3C00, 0x0001), // maxsub + minsub -> minnormal
        (0x0200, 0x3C00, 0x0200), // subnormal + subnormal
        (0x0001, 0x0001, 0x0000), // minsub^2: total underflow
        (0x0001, 0x0001, 0x8000), // underflow onto -0
    ]);

    // --- NaN propagation -----------------------------------------------
    let qnan = 0x7E00u16;
    let snan = 0x7C01u16;
    let neg_nan = 0xFE77u16;
    cases.extend([
        (qnan, 0x3C00, 0x3C00),
        (0x3C00, qnan, 0x3C00),
        (0x3C00, 0x3C00, qnan),
        (snan, 0x3C00, 0x3C00),
        (0x3C00, snan, 0x3C00),
        (0x3C00, 0x3C00, snan),
        (neg_nan, 0x0000, 0x7C00),
        (qnan, snan, neg_nan),
        (qnan, 0x7C00, 0x0000),
    ]);

    // --- Inf arithmetic and Inf - Inf ----------------------------------
    let inf = 0x7C00u16;
    let ninf = 0xFC00u16;
    cases.extend([
        (inf, 0x3C00, ninf),    // +Inf + -Inf -> NaN
        (inf, 0xBC00, inf),     // -Inf + +Inf -> NaN
        (inf, 0x0000, 0x3C00),  // Inf * 0 -> NaN
        (0x0000, ninf, 0x0000), // 0 * -Inf -> NaN
        (inf, 0x3C00, 0x3C00),  // Inf stays Inf
        (0x3C00, 0x3C00, ninf), // finite + -Inf -> -Inf
    ]);

    // --- Overflow to infinity ------------------------------------------
    // MAX * 2 overflows to +Inf, mirrored for the negative side.
    cases.extend([
        (0x7BFF, 0x4000, 0x0000), // MAX * 2
        (0xFBFF, 0x4000, 0x0000), // -MAX * 2
        (0x7BFF, 0x3C00, 0x7BFF), // MAX + MAX
        (0x7BFF, 0x3C01, 0x0000), // barely over
    ]);

    // --- Signed zeros ---------------------------------------------------
    cases.extend([
        (0x0000, 0x3C00, 0x8000), // +0 + -0 = +0
        (0x8000, 0x3C00, 0x0000), // -0 + +0
        (0x8000, 0x3C00, 0x8000), // -0 + -0 = -0
        (0xBC00, 0x0000, 0x0000), // -1 * +0 + +0
    ]);

    // --- Deterministic seeded fill --------------------------------------
    // The file was first frozen with one line per rounding mode of five;
    // its seeded fill drew 32 cases and gave each the mode `(r >> 48) % 5`.
    // The lines kept are the round-to-nearest-even ones, selector 0, so
    // the same draws keep the frozen lines byte for byte.
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..32 {
        let r = next();
        if (r >> 48) % 5 == 0 {
            cases.push((r as u16, (r >> 16) as u16, (r >> 32) as u16));
        }
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
    for (a, b, c) in directed_inputs() {
        let expected = fma(a, b, c);
        let _ = writeln!(out, "{a:04x} {b:04x} {c:04x} rne {expected:04x}");
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
            "{VECTORS_PATH}:{}: expected `a b c rne expected`",
            lineno + 1
        );
        assert_eq!(fields[3], "rne", "{VECTORS_PATH}:{}: bad mode", lineno + 1);
        let parse = |s: &str| u16::from_str_radix(s, 16).expect("hex field");
        let (a, b, c) = (parse(fields[0]), parse(fields[1]), parse(fields[2]));
        let expected = parse(fields[4]);
        let got = fma(a, b, c);
        assert_eq!(
            got,
            expected,
            "{VECTORS_PATH}:{}: fma({a:#06x}, {b:#06x}, {c:#06x}) = {got:#06x}, \
             file says {expected:#06x}",
            lineno + 1,
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        directed_inputs().len(),
        "{VECTORS_PATH} and the directed set differ in size"
    );
}

/// The directed input list itself stays in sync with the file size —
/// guards against the generator and the checked-in file drifting apart.
#[test]
fn directed_set_covers_every_category() {
    let inputs = directed_inputs();
    assert_eq!(inputs.len(), 47);
    let has = |f: &dyn Fn(&FmaInput) -> bool| inputs.iter().any(f);
    assert!(has(&|&(a, ..)| a == 0x0001), "subnormal boundary cases");
    assert!(has(&|&(a, ..)| a == 0x7E00), "quiet NaN cases");
    assert!(has(&|&(a, ..)| a == 0x7C01), "signalling NaN cases");
    assert!(
        has(&|&(a, _, c)| a == 0x7C00 && c == 0xFC00),
        "Inf - Inf cases"
    );
    assert!(has(&|&(a, ..)| a == 0x7BFF), "overflow cases");
}
