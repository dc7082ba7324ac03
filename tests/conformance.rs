//! Differential conformance harness: the fast functional backend
//! ([`FunctionalGemm`]), the cycle-accurate engine and the software
//! baseline must produce **bit-identical** Z for arbitrary shapes and
//! data — including subnormals, NaNs (quiet and signalling payloads),
//! infinities and negative zero.
//!
//! The offline proptest stand-in has no shrinking or failure
//! persistence, so this harness implements the workflow itself:
//!
//! 1. **Replay** every case committed to
//!    `tests/conformance.proptest-regressions` before generating
//!    anything new (same convention as real proptest).
//! 2. **Generate** fresh `(seed, m, n, k)` cases; all matrix data is
//!    re-derived from the seed, so a case is fully described by one
//!    regression-file line.
//! 3. On failure, **minimize** by greedily shrinking the dimensions
//!    while the mismatch reproduces, then **append** the minimized case
//!    to the regressions file. Commit that file — never delete lines
//!    from it (see DESIGN.md, testing section).

use proptest::TestRng;
use redmule_suite::cluster::{baseline::SwGemm, ClusterConfig};
use redmule_suite::fp16::vector::GemmShape;
use redmule_suite::fp16::F16;
use redmule_suite::redmule::{Accelerator, Format, FunctionalGemm};

/// One conformance case: every matrix element is derived from `seed`,
/// so the whole case round-trips through one regression-file line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Case {
    seed: u64,
    m: usize,
    n: usize,
    k: usize,
}

impl Case {
    fn shape(&self) -> GemmShape {
        GemmShape::new(self.m, self.n, self.k)
    }

    fn line(&self, tag: &str) -> String {
        format!("{tag} {:#018x} {} {} {}", self.seed, self.m, self.n, self.k)
    }
}

/// A named generator of special-value matrix elements.
type Fill = (&'static str, Box<dyn Fn(usize) -> F16>);

/// Regression-file tag for a format's case lines: the FP16 differential
/// cases keep the historic `cc` tag, the FP8 ones are tagged by format.
fn format_tag(format: Format) -> &'static str {
    match format {
        Format::Fp16 => "cc",
        Format::Fp8E4M3 => "e4m3",
        Format::Fp8E5M2 => "e5m2",
    }
}

const FP8_FORMATS: [Format; 2] = [Format::Fp8E4M3, Format::Fp8E5M2];

const REGRESSIONS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/conformance.proptest-regressions"
);

/// Draws one FP16 element, biased so that every run of a few hundred
/// elements contains subnormals, NaN payloads (quiet *and* signalling),
/// infinities of both signs, negative zero and near-overflow normals.
fn element(rng: &mut TestRng) -> F16 {
    match rng.below(16) {
        0 => F16::from_bits((rng.next_u64() & 0x03FF) as u16), // +subnormal / +0
        1 => F16::from_bits(0x8000 | (rng.next_u64() & 0x03FF) as u16), // -subnormal / -0
        2 => F16::INFINITY,
        3 => F16::from_bits(0xFC00), // -inf
        4 => {
            // NaN with a random payload; low payload bits give sNaNs.
            let payload = 1 + (rng.below(0x3FF) as u16);
            F16::from_bits(0x7C00 | payload | ((rng.next_u64() as u16) & 0x8000))
        }
        5 => F16::from_bits(0x7800 + rng.below(0x400) as u16), // near-overflow
        6 => F16::from_bits(0xF800 + rng.below(0x400) as u16), // near -overflow
        _ => {
            let v = (rng.below(2048) as f32 - 1024.0) / 128.0;
            F16::from_f32(v)
        }
    }
}

fn matrix(len: usize, seed: u64) -> Vec<F16> {
    let mut rng = TestRng::seeded(seed);
    (0..len).map(|_| element(&mut rng)).collect()
}

fn bits(v: &[F16]) -> Vec<u16> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs one case through all three execution paths and compares Z
/// bitwise. Returns the first divergence as an error message.
fn run_case(c: Case) -> Result<(), String> {
    let shape = c.shape();
    let x = matrix(shape.x_len(), c.seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let w = matrix(shape.w_len(), c.seed ^ 0x5A5A_5A5A_5A5A_5A5A);

    let func = FunctionalGemm::paper_instance()
        .run(shape, Format::Fp16, &x, &w, None)
        .map_err(|e| format!("functional backend error: {e}"))?;
    let hw = Accelerator::paper_instance()
        .gemm(shape, &x, &w)
        .map_err(|e| format!("engine error: {e}"))?;
    let sw = SwGemm::new(&ClusterConfig::default())
        .run(shape, &x, &w)
        .map_err(|e| format!("sw baseline error: {e}"))?;

    diff("functional", &func.z, "engine", &hw.z)?;
    diff("engine", &hw.z, "sw", &sw.z)?;
    Ok(())
}

/// The accumulate-mode variant: functional vs engine (the SW baseline
/// has no Y input).
fn run_accumulate_case(c: Case) -> Result<(), String> {
    let shape = c.shape();
    let x = matrix(shape.x_len(), c.seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let w = matrix(shape.w_len(), c.seed ^ 0x5A5A_5A5A_5A5A_5A5A);
    let y = matrix(shape.z_len(), c.seed ^ 0x3C3C_3C3C_3C3C_3C3C);

    let func = FunctionalGemm::paper_instance()
        .run_accumulate_format(shape, Format::Fp16, &x, &w, &y)
        .map_err(|e| format!("functional backend error: {e}"))?;
    let hw = Accelerator::paper_instance()
        .gemm_in(shape, Format::Fp16, &x, &w, Some(&y))
        .map_err(|e| format!("engine error: {e}"))?;
    diff("functional+Y", &func.z, "engine+Y", &hw.z)
}

/// The FP8 differential: operands stored in an 8-bit format, widened at
/// buffer fill (castin) and narrowed at store drain (castout). The
/// functional backend models the same quantisation boundary, so the two
/// must agree bitwise — including NaN canonicalisation, E4M3's
/// NaN-on-overflow and E5M2's infinities.
fn run_fp8_case(format: Format, c: Case) -> Result<(), String> {
    let shape = c.shape();
    let x = matrix(shape.x_len(), c.seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let w = matrix(shape.w_len(), c.seed ^ 0x5A5A_5A5A_5A5A_5A5A);

    let func = FunctionalGemm::paper_instance()
        .run_format(shape, format, &x, &w)
        .map_err(|e| format!("functional backend error: {e}"))?;
    let hw = Accelerator::paper_instance()
        .gemm_in(shape, format, &x, &w, None)
        .map_err(|e| format!("engine error: {e}"))?;
    diff("functional", &func.z, "engine", &hw.z)
}

/// The FP8 accumulate-mode variant (Y is stored in the same format).
fn run_fp8_accumulate_case(format: Format, c: Case) -> Result<(), String> {
    let shape = c.shape();
    let x = matrix(shape.x_len(), c.seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let w = matrix(shape.w_len(), c.seed ^ 0x5A5A_5A5A_5A5A_5A5A);
    let y = matrix(shape.z_len(), c.seed ^ 0x3C3C_3C3C_3C3C_3C3C);

    let func = FunctionalGemm::paper_instance()
        .run_accumulate_format(shape, format, &x, &w, &y)
        .map_err(|e| format!("functional backend error: {e}"))?;
    let hw = Accelerator::paper_instance()
        .gemm_in(shape, format, &x, &w, Some(&y))
        .map_err(|e| format!("engine error: {e}"))?;
    diff("functional+Y", &func.z, "engine+Y", &hw.z)
}

fn diff(name_a: &str, a: &[F16], name_b: &str, b: &[F16]) -> Result<(), String> {
    let (ab, bb) = (bits(a), bits(b));
    if ab == bb {
        return Ok(());
    }
    let idx = ab
        .iter()
        .zip(&bb)
        .position(|(x, y)| x != y)
        .unwrap_or(ab.len().min(bb.len()));
    Err(format!(
        "{name_a} != {name_b} at element {idx}: {:#06x} vs {:#06x}",
        ab.get(idx).copied().unwrap_or(0),
        bb.get(idx).copied().unwrap_or(0),
    ))
}

/// Greedily shrinks a failing case: repeatedly halves, then decrements,
/// each dimension while the failure (any failure) still reproduces.
/// Matrix data is re-derived from the seed at every step, so the
/// minimized case is self-contained.
fn minimize(mut c: Case, fails: &dyn Fn(Case) -> bool) -> Case {
    loop {
        let mut improved = false;
        for dim in 0..3usize {
            loop {
                let cur = [c.m, c.n, c.k][dim];
                let floor = if dim == 1 { 0 } else { 1 }; // n may be empty
                if cur <= floor {
                    break;
                }
                // Try halving toward the floor first, then a decrement.
                let mut shrunk = false;
                for candidate in [floor + (cur - floor) / 2, cur - 1] {
                    if candidate >= cur {
                        continue;
                    }
                    let mut next = c;
                    match dim {
                        0 => next.m = candidate,
                        1 => next.n = candidate,
                        _ => next.k = candidate,
                    }
                    if fails(next) {
                        c = next;
                        improved = true;
                        shrunk = true;
                        break;
                    }
                }
                if !shrunk {
                    break;
                }
            }
        }
        if !improved {
            return c;
        }
    }
}

/// Reads the committed regression cases for one tag (lines
/// `<tag> <seed> <m> <n> <k>`; tags `cc`, `e4m3`, `e5m2`).
fn read_tagged(tag: &str) -> Vec<Case> {
    let Ok(text) = std::fs::read_to_string(REGRESSIONS_PATH) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or("").trim();
            let mut parts = line.split_whitespace();
            if parts.next() != Some(tag) {
                return None;
            }
            let seed = parts.next().and_then(parse_u64)?;
            let m = parts.next()?.parse().ok()?;
            let n = parts.next()?.parse().ok()?;
            let k = parts.next()?.parse().ok()?;
            Some(Case { seed, m, n, k })
        })
        .collect()
}

fn read_regressions() -> Vec<Case> {
    read_tagged("cc")
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Appends a minimized failing case to the regressions file so the next
/// run (and everyone else's) replays it first.
fn persist(tag: &str, c: Case, note: &str) {
    use std::io::Write as _;
    let line = format!("{} # {}\n", c.line(tag), note.replace('\n', " "));
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(REGRESSIONS_PATH);
    match file {
        Ok(mut f) => {
            let _ = f.write_all(line.as_bytes());
        }
        Err(e) => eprintln!("cannot persist regression case to {REGRESSIONS_PATH}: {e}"),
    }
}

/// Runs `case`, minimizing and persisting on failure before panicking.
/// `tag` selects the regression-file namespace the minimized case lands
/// in (`cc` for FP16, the format tag for FP8).
fn check_tagged(tag: &str, case: Case, runner: &dyn Fn(Case) -> Result<(), String>) {
    if let Err(msg) = runner(case) {
        let min = minimize(case, &|c| runner(c).is_err());
        let min_msg = runner(min).err().unwrap_or_else(|| msg.clone());
        persist(tag, min, &min_msg);
        panic!(
            "conformance failure: {msg}\n  case     {case:?}\n  minimized {min:?}: {min_msg}\n  \
             appended `{}` to {REGRESSIONS_PATH} — commit that file",
            min.line(tag),
        );
    }
}

fn check_with(case: Case, runner: &dyn Fn(Case) -> Result<(), String>) {
    check_tagged("cc", case, runner);
}

fn base_seed(name: &str) -> u64 {
    // Same override convention as the proptest stand-in.
    match std::env::var("PROPTEST_SEED") {
        Ok(s) => parse_u64(&s).unwrap_or(0xC0DE_CAFE),
        Err(_) => name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        }),
    }
}

/// The committed regression cases must keep passing, forever. A failure
/// here is a reintroduced bug, not a flaky test — do not delete lines
/// from the regressions file to make it pass.
#[test]
fn committed_regression_cases_still_pass() {
    for case in read_regressions() {
        if let Err(msg) = run_case(case) {
            panic!("committed regression case {case:?} fails again: {msg}");
        }
        if let Err(msg) = run_accumulate_case(case) {
            panic!("committed regression case {case:?} fails in accumulate mode: {msg}");
        }
    }
}

/// The main differential sweep: 1024 random cases over shapes crossing
/// every tile boundary of the paper instance (L = 8 rows,
/// phase_width = 16 columns, H = 4 lanes), with special-value-seeded
/// data. Replays the committed cases first.
#[test]
fn functional_engine_and_sw_agree_bitwise() {
    for case in read_regressions() {
        check_with(case, &run_case);
    }
    let mut rng = TestRng::seeded(base_seed("functional_engine_and_sw_agree_bitwise"));
    for _ in 0..1024 {
        let case = Case {
            seed: rng.next_u64(),
            m: 1 + rng.below(10) as usize,
            n: rng.below(19) as usize,
            k: 1 + rng.below(18) as usize,
        };
        check_with(case, &run_case);
    }
}

/// Accumulate mode (Z = X·W + Y) agrees between the functional backend
/// and the engine on 256 random cases.
#[test]
fn accumulate_mode_agrees_bitwise() {
    let mut rng = TestRng::seeded(base_seed("accumulate_mode_agrees_bitwise"));
    for _ in 0..256 {
        let case = Case {
            seed: rng.next_u64(),
            m: 1 + rng.below(10) as usize,
            n: rng.below(19) as usize,
            k: 1 + rng.below(18) as usize,
        };
        check_with(case, &run_accumulate_case);
    }
}

/// Directed all-special matrices: entire operands made of NaNs,
/// infinities of both signs (forcing Inf − Inf = NaN in accumulation)
/// and subnormals.
#[test]
fn all_special_value_matrices_agree() {
    let shape = GemmShape::new(9, 17, 20); // crosses every tile boundary
    let fills: [Fill; 4] = [
        (
            "all-NaN",
            Box::new(|i| F16::from_bits(0x7C01 + (i % 0x3FE) as u16)),
        ),
        (
            "alternating +/-Inf",
            Box::new(|i| F16::from_bits(if i % 2 == 0 { 0x7C00 } else { 0xFC00 })),
        ),
        (
            "all-subnormal",
            Box::new(|i| F16::from_bits(1 + (i % 0x3FF) as u16)),
        ),
        (
            "signed zeros",
            Box::new(|i| F16::from_bits(if i % 2 == 0 { 0x0000 } else { 0x8000 })),
        ),
    ];
    for (name, fill) in &fills {
        let x: Vec<F16> = (0..shape.x_len()).map(fill).collect();
        let w: Vec<F16> = (0..shape.w_len()).map(|i| fill(i + 7)).collect();
        let func = FunctionalGemm::paper_instance()
            .run(shape, Format::Fp16, &x, &w, None)
            .expect("functional");
        let hw = Accelerator::paper_instance()
            .gemm(shape, &x, &w)
            .expect("engine");
        let sw = SwGemm::new(&ClusterConfig::default())
            .run(shape, &x, &w)
            .expect("sw");
        assert_eq!(bits(&func.z), bits(&hw.z), "{name}: functional vs engine");
        assert_eq!(bits(&hw.z), bits(&sw.z), "{name}: engine vs sw");
    }
}

/// Deep sweep over larger shapes — slow, so it only runs under
/// `cargo test -- --include-ignored`: `make test-full`, which CI's verify
/// job runs on every push and pull request.
#[test]
#[ignore = "deep conformance sweep; run with --include-ignored (`make test-full`, run by CI)"]
fn deep_sweep_over_larger_shapes() {
    let mut rng = TestRng::seeded(base_seed("deep_sweep_over_larger_shapes"));
    for _ in 0..256 {
        let case = Case {
            seed: rng.next_u64(),
            m: 1 + rng.below(40) as usize,
            n: rng.below(64) as usize,
            k: 1 + rng.below(48) as usize,
        };
        check_with(case, &run_case);
        check_with(case, &run_accumulate_case);
    }
}

/// The committed FP8 regression cases must keep passing, forever —
/// same contract as the FP16 `cc` lines.
#[test]
fn fp8_committed_regression_cases_still_pass() {
    for format in FP8_FORMATS {
        for case in read_tagged(format_tag(format)) {
            if let Err(msg) = run_fp8_case(format, case) {
                panic!("committed {format} regression case {case:?} fails again: {msg}");
            }
            if let Err(msg) = run_fp8_accumulate_case(format, case) {
                panic!(
                    "committed {format} regression case {case:?} fails in accumulate mode: {msg}"
                );
            }
        }
    }
}

/// The FP8 differential sweep: for each format, the functional backend
/// and the cycle-accurate engine (castin/castout datapath, paired-beat
/// streamer) must agree bitwise over shapes crossing every tile boundary,
/// with special-value-seeded data. Replays the committed cases first.
#[test]
fn fp8_functional_and_engine_agree_bitwise() {
    for format in FP8_FORMATS {
        let tag = format_tag(format);
        let runner = move |c: Case| run_fp8_case(format, c);
        for case in read_tagged(tag) {
            check_tagged(tag, case, &runner);
        }
        let mut rng = TestRng::seeded(base_seed(tag));
        for _ in 0..384 {
            let case = Case {
                seed: rng.next_u64(),
                m: 1 + rng.below(10) as usize,
                n: rng.below(19) as usize,
                k: 1 + rng.below(18) as usize,
            };
            check_tagged(tag, case, &runner);
        }
    }
}

/// FP8 accumulate mode (Z = X·W + Y with Y quantised to the storage
/// format too) agrees bitwise between functional backend and engine.
#[test]
fn fp8_accumulate_mode_agrees_bitwise() {
    for format in FP8_FORMATS {
        let tag = format_tag(format);
        let runner = move |c: Case| run_fp8_accumulate_case(format, c);
        let mut rng = TestRng::seeded(base_seed("fp8_accumulate_mode_agrees_bitwise"));
        for _ in 0..128 {
            let case = Case {
                seed: rng.next_u64(),
                m: 1 + rng.below(10) as usize,
                n: rng.below(19) as usize,
                k: 1 + rng.below(18) as usize,
            };
            check_tagged(tag, case, &runner);
        }
    }
}

/// Directed all-special FP8 matrices: NaN payloads (canonicalised
/// differently per format), infinities (E5M2 keeps them, E4M3 turns
/// them into NaN at castin), subnormals at the 8-bit flush boundary and
/// signed zeros — all through both execution paths.
#[test]
fn fp8_all_special_value_matrices_agree() {
    let shape = GemmShape::new(9, 17, 20); // crosses every tile boundary
    let fills: [Fill; 4] = [
        (
            "all-NaN",
            Box::new(|i| F16::from_bits(0x7C01 + (i % 0x3FE) as u16)),
        ),
        (
            "alternating +/-Inf",
            Box::new(|i| F16::from_bits(if i % 2 == 0 { 0x7C00 } else { 0xFC00 })),
        ),
        (
            "fp8 underflow band", // straddles both formats' min subnormals
            Box::new(|i| F16::from_bits(0x0001 + (i % 0x1900) as u16)),
        ),
        (
            "signed zeros",
            Box::new(|i| F16::from_bits(if i % 2 == 0 { 0x0000 } else { 0x8000 })),
        ),
    ];
    for format in FP8_FORMATS {
        for (name, fill) in &fills {
            let x: Vec<F16> = (0..shape.x_len()).map(fill).collect();
            let w: Vec<F16> = (0..shape.w_len()).map(|i| fill(i + 7)).collect();
            let func = FunctionalGemm::paper_instance()
                .run_format(shape, format, &x, &w)
                .expect("functional");
            let hw = Accelerator::paper_instance()
                .gemm_in(shape, format, &x, &w, None)
                .expect("engine");
            assert_eq!(
                bits(&func.z),
                bits(&hw.z),
                "{format}/{name}: functional vs engine"
            );
        }
    }
}

/// FP8 deep sweep over larger shapes — slow, so it only runs under
/// `cargo test -- --include-ignored`: `make test-full`, which CI's verify
/// job runs on every push and pull request.
#[test]
#[ignore = "deep FP8 conformance sweep; run with --include-ignored (`make test-full`, run by CI)"]
fn fp8_deep_sweep_over_larger_shapes() {
    for format in FP8_FORMATS {
        let tag = format_tag(format);
        let mut rng = TestRng::seeded(base_seed("fp8_deep_sweep_over_larger_shapes"));
        for _ in 0..128 {
            let case = Case {
                seed: rng.next_u64(),
                m: 1 + rng.below(40) as usize,
                n: rng.below(64) as usize,
                k: 1 + rng.below(48) as usize,
            };
            check_tagged(tag, case, &move |c| run_fp8_case(format, c));
            check_tagged(tag, case, &move |c| run_fp8_accumulate_case(format, c));
        }
    }
}
