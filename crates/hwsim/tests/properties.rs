//! Property-based tests for the simulation kernel primitives.

use proptest::prelude::*;
use redmule_hwsim::arbiter::{RotatingMux, RoundRobin, Side};
use redmule_hwsim::vcd::VcdWriter;
use redmule_hwsim::Stats;

proptest! {
    /// Round-robin: every grant answers a real request, and under any
    /// request pattern a continuously requesting index waits at most n-1
    /// grants rounds.
    #[test]
    fn round_robin_grants_requests_and_bounds_waits(
        n in 1usize..8,
        rounds in prop::collection::vec(prop::collection::vec(any::<bool>(), 0..8), 1..64),
        hot in 0usize..8,
    ) {
        let hot = hot % n;
        let mut arb = RoundRobin::new(n);
        let mut wait = 0u32;
        for round in &rounds {
            let mut reqs: Vec<bool> = (0..n).map(|i| round.get(i).copied().unwrap_or(false)).collect();
            reqs[hot] = true; // the hot requestor never deasserts
            let g = arb.grant(&reqs).expect("hot requestor guarantees demand");
            prop_assert!(reqs[g], "granted a non-requesting index");
            if g == hot {
                wait = 0;
            } else {
                wait += 1;
                prop_assert!(wait < n as u32, "hot requestor starved");
            }
        }
    }

    /// Rotating mux: under continuous contention the shallow side never
    /// wins more than `streak` consecutive grants, and the log side never
    /// waits longer than `streak`.
    #[test]
    fn rotating_mux_bounds_streaks(streak in 1u32..6, cycles in 1usize..200) {
        let mut mux = RotatingMux::new(streak);
        let mut consecutive = 0u32;
        for _ in 0..cycles {
            match mux.grant(true, true) {
                Side::Shallow => {
                    consecutive += 1;
                    prop_assert!(consecutive <= streak);
                }
                Side::Log => consecutive = 0,
            }
        }
    }

    /// Stats merge is order-insensitive for disjoint and overlapping keys.
    #[test]
    fn stats_merge_commutes(
        a in prop::collection::vec((0u8..6, 0u64..1000), 0..20),
        b in prop::collection::vec((0u8..6, 0u64..1000), 0..20),
    ) {
        let build = |entries: &[(u8, u64)]| -> Stats {
            let mut s = Stats::new();
            for &(k, v) in entries {
                s.add(&format!("k{k}"), v);
            }
            s
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        prop_assert_eq!(ab, ba);
    }

    /// Every value written to a VCD wire appears verbatim in the dump, and
    /// timestamps are strictly increasing.
    #[test]
    fn vcd_dump_contains_all_changes(values in prop::collection::vec(any::<u16>(), 1..32)) {
        let mut buf = Vec::new();
        {
            let mut vcd = VcdWriter::new(&mut buf, 1);
            let wire = vcd.add_wire(16, "bus").expect("declare wire");
            vcd.begin_dump().expect("finish header");
            for (t, &v) in values.iter().enumerate() {
                vcd.set(wire, u64::from(v));
                vcd.tick(t as u64).expect("dump tick");
            }
        }
        let text = String::from_utf8(buf).expect("VCD is ASCII");
        // Deduplicate consecutive repeats (only changes are dumped).
        let mut last = None;
        let mut expected_changes = 0;
        for &v in &values {
            if last != Some(v) {
                expected_changes += 1;
                prop_assert!(
                    text.contains(&format!("b{v:b} !")),
                    "missing change to {v:#06x}"
                );
            }
            last = Some(v);
        }
        let change_lines = text.lines().filter(|l| l.starts_with('b')).count();
        prop_assert_eq!(change_lines, expected_changes);
        let stamps: Vec<u64> = text
            .lines()
            .filter_map(|l| l.strip_prefix('#').and_then(|t| t.parse().ok()))
            .collect();
        prop_assert!(stamps.windows(2).all(|w| w[0] < w[1]), "timestamps increase");
    }
}
