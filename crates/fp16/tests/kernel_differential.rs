//! Differential lock of the batched kernel against the scalar `fma`.
//!
//! [`fma_acc`] must be bit-for-bit equivalent to `arith::fma` on the packed
//! encodings — every special-value combination — [`gemm_staged`] to the
//! scalar fold of `arith::fma`, and [`fma_column`] to `arith::fma` per
//! lane. Five locks:
//!
//! 1. the 47 frozen FMA vectors (`tests/vectors/fma.txt`) replayed through
//!    the kernel — the same ground truth that pins the scalar path;
//! 2. an exhaustive-pairs sweep: **every** one of the 65 536 bit patterns
//!    in one operand slot against a class-covering set in the other two
//!    slots, rotated through all three positions;
//! 3. a dense pseudo-random soak;
//! 4. the block kernel's window edges, one event at a time, in every
//!    ragged block shape;
//! 5. the column step's special lanes, one at a time, at every position of
//!    every column height from 1 to 9, against ordinary and special `w`.

use redmule_fp16::arith::fma;
use redmule_fp16::kernel::{fma_acc, fma_column, gemm_staged, Acc, Operand, Staged};
use redmule_fp16::F16;

const VECTORS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors/fma.txt");

fn step(a: u16, b: u16, c: u16) -> u16 {
    fma_acc(
        Operand::from_bits(a),
        Operand::from_bits(b),
        Acc::from_bits(c),
    )
    .to_bits()
}

/// Lock 1: the frozen vectors are ground truth for the kernel too.
#[test]
fn kernel_matches_frozen_fma_vectors() {
    let text = std::fs::read_to_string(VECTORS_PATH).expect("frozen vector file");
    let mut checked = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 5, "line {}: {line}", lineno + 1);
        let parse = |s: &str| u16::from_str_radix(s, 16).expect("hex field");
        let (a, b, c) = (parse(fields[0]), parse(fields[1]), parse(fields[2]));
        assert_eq!(fields[3], "rne", "line {}: mode field", lineno + 1);
        let expected = parse(fields[4]);
        assert_eq!(
            step(a, b, c),
            expected,
            "line {}: fma_acc({a:#06x}, {b:#06x}, {c:#06x})",
            lineno + 1
        );
        checked += 1;
    }
    assert_eq!(checked, 47, "expected 47 frozen vectors, got {checked}");
}

/// Class-covering probe set for the non-exhaustive operand slots: zeros,
/// ones, subnormal edges, normal edges, max finite, infinities, NaNs, and
/// a few odd-significand values that exercise tie-breaking.
fn probes() -> [u16; 14] {
    [
        0x0000, 0x8000, // +-0
        0x3C00, 0xBC01, // +-1-ish (odd significand on the negative side)
        0x0001, 0x8001, // min subnormals
        0x03FF, // max subnormal
        0x0400, // min normal
        0x7BFF, 0xFBFF, // +-max finite
        0x7C00, 0xFC00, // +-inf
        0x7E00, 0x7C01, // canonical and signalling-pattern NaN
    ]
}

/// Lock 2: exhaustive pairs. All 2^16 bit patterns sweep through each
/// operand position in turn, against every (probe, probe) pair in the
/// other two slots — ~38M FMA comparisons.
#[test]
fn kernel_matches_fma_exhaustively_per_slot() {
    let probes = probes();
    for sweep in (0u32..=0xFFFF).map(|v| v as u16) {
        for &p in &probes {
            for &q in &probes {
                assert_eq!(
                    step(sweep, p, q),
                    fma(sweep, p, q),
                    "a-slot sweep a={sweep:#06x} b={p:#06x} c={q:#06x}"
                );
                assert_eq!(
                    step(p, sweep, q),
                    fma(p, sweep, q),
                    "b-slot sweep a={p:#06x} b={sweep:#06x} c={q:#06x}"
                );
                assert_eq!(
                    step(p, q, sweep),
                    fma(p, q, sweep),
                    "c-slot sweep a={p:#06x} b={q:#06x} c={sweep:#06x}"
                );
            }
        }
    }
}

/// Lock 3: dense pseudo-random soak over every operand class at once.
#[test]
fn kernel_matches_fma_randomly() {
    let mut state = 0x1234_5678u32;
    let mut next = move || {
        // xorshift32: deterministic, dependency-free.
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    for _ in 0..200_000 {
        let r = next();
        let a = (r & 0xFFFF) as u16;
        let b = (r >> 16) as u16;
        let c = (next() & 0xFFFF) as u16;
        assert_eq!(
            step(a, b, c),
            fma(a, b, c),
            "a={a:#06x} b={b:#06x} c={c:#06x}"
        );
    }
}

/// One window-edge event: the accumulator `c` a lane meets at the event's
/// first step, the `(x, w)` operands of its one or two steps, and the
/// binary16 value the lane must hold after them.
struct Event {
    what: &'static str,
    c: u16,
    steps: &'static [(u16, u16)],
    want: u16,
}

const fn ev(what: &'static str, c: u16, steps: &'static [(u16, u16)], want: u16) -> Event {
    Event {
        what,
        c,
        steps,
        want,
    }
}

/// The events. Window: the unrounded `f64` sum is an exact zero, or its
/// magnitude lies in `[2^-14, 65520)`.
const EVENTS: &[Event] = &[
    // Exact zero sums stay in the window with IEEE's zero-sum sign: -0
    // only when the product and the accumulator are both -0.
    ev("+0*+1 + +0", 0x0000, &[(0x0000, 0x3C00)], 0x0000),
    ev("+0*+1 + -0", 0x8000, &[(0x0000, 0x3C00)], 0x0000),
    ev("+0*-1 + +0", 0x0000, &[(0x0000, 0xBC00)], 0x0000),
    ev("+0*-1 + -0", 0x8000, &[(0x0000, 0xBC00)], 0x8000),
    ev("-0*+1 + +0", 0x0000, &[(0x8000, 0x3C00)], 0x0000),
    ev("-0*+1 + -0", 0x8000, &[(0x8000, 0x3C00)], 0x8000),
    ev("-0*-1 + +0", 0x0000, &[(0x8000, 0xBC00)], 0x0000),
    ev("-0*-1 + -0", 0x8000, &[(0x8000, 0xBC00)], 0x0000),
    ev("+1*+0 + -0", 0x8000, &[(0x3C00, 0x0000)], 0x0000),
    ev("+1*-0 + -0", 0x8000, &[(0x3C00, 0x8000)], 0x8000),
    ev("-1*+0 + -0", 0x8000, &[(0xBC00, 0x0000)], 0x8000),
    ev("-1*-0 + +0", 0x0000, &[(0xBC00, 0x8000)], 0x0000),
    // Exact cancellation of nonzero terms gives +0 for every sign pattern.
    ev("2*0.5 - 1", 0xBC00, &[(0x4000, 0x3800)], 0x0000),
    ev("-2*0.5 + 1", 0x3C00, &[(0xC000, 0x3800)], 0x0000),
    ev("2*-0.5 + 1", 0x3C00, &[(0x4000, 0xB800)], 0x0000),
    ev("-2*-0.5 - 1", 0xBC00, &[(0xC000, 0xB800)], 0x0000),
    // 2^-14 - 2^-25 is just below the window; it ties up to 2^-14.
    ev("just below 2^-14", 0x0400, &[(0x0001, 0xB800)], 0x0400),
    // The top of the range: 65504 and (65504, 65520) stay finite, 65520
    // ties to +inf, anything above overflows.
    ev("= 65504", 0x0000, &[(0x7BFF, 0x3C00)], 0x7BFF),
    ev("65504 + 8", 0x7BFF, &[(0x4800, 0x3C00)], 0x7BFF),
    ev("65504 + 16 = 65520", 0x7BFF, &[(0x4C00, 0x3C00)], 0x7C00),
    ev("-65504 - 16", 0xFBFF, &[(0xCC00, 0x3C00)], 0xFC00),
    ev("65504 + 32", 0x7BFF, &[(0x5000, 0x3C00)], 0x7C00),
    // Binary16 subnormal results: (1 + 2^-10) * 2^-15 ties down onto the
    // subnormal grid, which an 11-bit round would keep.
    ev("subnormal tie", 0x0000, &[(0x3C01, 0x0200)], 0x0200),
    ev("min subnormal", 0x0000, &[(0x0001, 0x3C00)], 0x0001),
    // Lanes that leave the window and come back.
    ev(
        "to 2^-15 and back",
        0x0400,
        &[(0x8200, 0x3C00), (0x3C00, 0x3C00)],
        0x3C00,
    ),
    ev(
        "to 65520 and back",
        0x7BFF,
        &[(0x4C00, 0x3C00), (0xD000, 0x3C00)],
        0x7C00,
    ),
    ev(
        "to -65520 and further",
        0xFBFF,
        &[(0xCC00, 0x3C00), (0xD800, 0x3C00)],
        0xFC00,
    ),
    ev(
        "to 2^-24 and back",
        0x0000,
        &[(0x0001, 0x3C00), (0x2000, 0x3C00)],
        0x2000,
    ),
    // Infinities and NaNs in X, W and Y, and inf * 0.
    ev("inf in X", 0x0000, &[(0x7C00, 0x3C00)], 0x7C00),
    ev("-inf in X", 0x0000, &[(0xFC00, 0x3C00)], 0xFC00),
    ev("inf in W", 0x0000, &[(0x3C00, 0x7C00)], 0x7C00),
    ev("inf in Y", 0x7C00, &[(0x3C00, 0x3C00)], 0x7C00),
    ev("-inf in Y", 0xFC00, &[(0x3C00, 0x3C00)], 0xFC00),
    ev("inf - inf", 0xFC00, &[(0x7C00, 0x3C00)], 0x7E00),
    ev("NaN in X", 0x0000, &[(0x7E00, 0x3C00)], 0x7E00),
    ev("NaN in W", 0x0000, &[(0x3C00, 0x7E00)], 0x7E00),
    ev("NaN in Y", 0x7E00, &[(0x3C00, 0x3C00)], 0x7E00),
    ev("sNaN pattern in Y", 0x7C01, &[(0x3C00, 0x3C00)], 0x7E00),
    ev("inf * 0", 0x0000, &[(0x7C00, 0x0000)], 0x7E00),
    ev("0 * -inf", 0x0000, &[(0x0000, 0xFC00)], 0x7E00),
];

/// Lock 4: the block kernel's window edges. A band of in-window data —
/// X on a 1/64 grid in [-1, 1] with zeros, W positive on it, Y on it, so
/// every accumulator is zero or a multiple of 2^-12 — gets one event at a
/// chosen (row, column, step). Before the event the lane's X elements are
/// zeros of the accumulator's sign, so against positive W it meets exactly
/// `c`. The band must equal the scalar fold everywhere, for every tail
/// class (rows mod 4 x columns mod 8, each beside a full block, plus the
/// single-lane band, whose block has no other live lane to leave the
/// window) and for n in {1, 2, 33}; when the event ends the reduction,
/// the lane must also hold the event's value.
#[test]
fn gemm_staged_window_edges_in_every_tail_class() {
    let grid =
        |i: usize, salt: usize| (i.wrapping_mul(2_654_435_761).wrapping_add(salt) >> 7) % 129;
    let f16 = |v: f32| F16::from_f32(v).to_bits();
    let bands = (5..=8)
        .flat_map(|rows| (9..=16).map(move |cols| (rows, cols)))
        .chain([(1, 1)]);
    let mut checked = 0usize;
    for (rows, cols) in bands {
        for n in [1usize, 2, 33] {
            for (e, event) in EVENTS.iter().enumerate() {
                if event.steps.len() > n {
                    continue;
                }
                // Alternate the event between the band's last lane
                // (inside the ragged tail block) and a lane elsewhere.
                let (row, col) = if e % 2 == 0 {
                    (rows - 1, cols - 1)
                } else {
                    (e % rows, (e * 5) % cols)
                };
                let s = (n / 2).min(n - event.steps.len());
                let mut xs: Vec<u16> = (0..rows * n)
                    .map(|i| f16(grid(i, 1) as f32 / 64.0 - 1.0))
                    .collect();
                let mut ws: Vec<u16> = (0..n * cols)
                    .map(|i| f16((1 + grid(i, 2) % 64) as f32 / 64.0))
                    .collect();
                let mut y: Vec<u16> = (0..rows * cols)
                    .map(|i| f16(grid(i, 3) as f32 / 64.0 - 1.0))
                    .collect();
                for x in &mut xs[row * n..row * n + s] {
                    *x = event.c & 0x8000;
                }
                for (t, &(a, b)) in event.steps.iter().enumerate() {
                    xs[row * n + s + t] = a;
                    ws[(s + t) * cols + col] = b;
                }
                y[row * cols + col] = event.c;

                let x = Staged::from_bits_iter(xs.iter().copied());
                let w = Staged::from_bits_iter(ws.iter().copied());
                let mut acc: Vec<Acc> = y.iter().map(|&v| Acc::from_bits(v)).collect();
                gemm_staged(&x, 0, n, &w, cols, &mut acc);
                let got: Vec<u16> = acc.iter().map(|a| a.to_bits()).collect();
                let mut want = y.clone();
                for (idx, z) in want.iter_mut().enumerate() {
                    let (r, j) = (idx / cols, idx % cols);
                    for l in 0..n {
                        *z = fma(xs[r * n + l], ws[l * cols + j], *z);
                    }
                }
                let at = format!("{} at ({row}, {col}, {s}) of {rows}x{n}x{cols}", event.what);
                assert_eq!(got, want, "{at}");
                if s + event.steps.len() == n {
                    assert_eq!(got[row * cols + col], event.want, "{at}");
                }
                checked += 1;
            }
        }
    }
    assert_eq!(
        checked,
        33 * (2 * EVENTS.len() + EVENTS.iter().filter(|e| e.steps.len() == 1).count())
    );
}

/// One special lane of the column step: its X element and accumulator
/// bits. The named result class holds for `w = 1.0`; the other `w` values
/// move it around, and every lane is checked against `arith::fma` anyway.
const LANES: &[(&str, u16, u16)] = &[
    ("subnormal result", 0x0001, 0x0000),
    ("subnormal sum", 0x0200, 0x8001),
    ("just below 2^-14 ties up", 0x0001, 0x03FF),
    ("+0 sum of nonzero terms", 0x3C00, 0xBC00),
    ("+0 sum of zeros", 0x0000, 0x0000),
    ("-0 sum of zeros", 0x8000, 0x8000),
    ("overflow to +inf", 0x7BFF, 0x7BFF),
    ("overflow to -inf", 0xFBFF, 0xFBFF),
    ("65520 ties to +inf", 0x4C00, 0x7BFF),
    ("+inf accumulator", 0x3C00, 0x7C00),
    ("-inf accumulator", 0xBC00, 0xFC00),
    ("canonical NaN accumulator", 0x3C00, 0x7E00),
    ("non-canonical NaN accumulator", 0x3C00, 0x7C01),
    ("negative NaN accumulator", 0x0000, 0xFFFF),
    ("infinite X", 0x7C00, 0x3C00),
    ("NaN X", 0x7D00, 0x0000),
];

/// Lock 5: the column step. For every height from 1 to 9 lanes, every `w`
/// of the set (ordinary values, both zeros, both infinities, canonical and
/// non-canonical NaNs) and every special lane at every position, in a
/// column of ordinary in-window lanes: each lane equals `arith::fma` on
/// its raw bits, and the ordinary lanes equal what they compute in a
/// column without the special lane. Miri runs a strided subset.
#[test]
fn fma_column_matches_fma_lane_for_lane() {
    let ws: &[u16] = &[
        0x3C00, 0xBC00, 0x3555, 0x5640, 0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7C01,
    ];
    let stride = if cfg!(miri) { 5 } else { 1 };
    let grid =
        |i: usize, salt: usize| (i.wrapping_mul(2_654_435_761).wrapping_add(salt) >> 7) % 129;
    let f16 = |v: f32| F16::from_f32(v).to_bits();
    let mut checked = 0usize;
    for lanes in 1..=9usize {
        let x: Vec<u16> = (0..lanes)
            .map(|i| f16(grid(i, lanes) as f32 / 64.0 - 1.0))
            .collect();
        let y: Vec<u16> = (0..lanes)
            .map(|i| f16(grid(i, 7 * lanes) as f32 / 32.0 - 2.0))
            .collect();
        for (wi, &w) in ws.iter().enumerate() {
            let mut plain = vec![0; lanes];
            fma_column(&x, w, &y, &mut plain);
            for (r, &z) in plain.iter().enumerate() {
                assert_eq!(z, fma(x[r], w, y[r]), "{lanes} lanes, w={w:#06x}, lane {r}");
            }
            for (ci, &(what, bx, by)) in LANES.iter().enumerate() {
                for at in (0..lanes).filter(|at| (wi + ci + at) % stride == 0) {
                    let (mut xs, mut acc) = (x.clone(), y.clone());
                    xs[at] = bx;
                    acc[at] = by;
                    let mut out = vec![0; lanes];
                    fma_column(&xs, w, &acc, &mut out);
                    for (r, &z) in out.iter().enumerate() {
                        let want = fma(xs[r], w, acc[r]);
                        let ctx = format!("{what} at lane {at} of {lanes}, w={w:#06x}, lane {r}");
                        assert_eq!(z, want, "{ctx}");
                        if r != at {
                            assert_eq!(z, plain[r], "{ctx}: a neighbour moved");
                        }
                    }
                    checked += 1;
                }
            }
        }
    }
    if !cfg!(miri) {
        assert_eq!(checked, 45 * ws.len() * LANES.len());
    }
}
