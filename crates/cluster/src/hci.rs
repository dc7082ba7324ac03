//! The Heterogeneous Cluster Interconnect (HCI) model.
//!
//! Two branches connect initiators to the TCDM banks:
//!
//! * **Logarithmic branch** — all-to-all, single-cycle crossbar for 32-bit
//!   initiators (cores, DMA). When several initiators hit the same bank in
//!   the same cycle, only one is granted, chosen round-robin; the rest
//!   retry next cycle.
//! * **Shallow branch** — one 288-bit port routed to
//!   [`shallow_banks`](crate::ClusterConfig::shallow_banks) adjacent banks
//!   "treated like a single 288-bit bank without arbitration". The whole
//!   group is granted atomically.
//!
//! Banks choose between the branches through a configurable-latency,
//! starvation-free rotation ([`RotatingMux`]); under contention the
//! accelerator wins bursts of up to
//! [`rotation_streak`](crate::ClusterConfig::rotation_streak) cycles.

use crate::config::ClusterConfig;
use redmule_hwsim::arbiter::{RotatingMux, RoundRobin, Side};
use redmule_hwsim::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use redmule_hwsim::Stats;

/// A 32-bit initiator on the logarithmic branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Initiator {
    /// A cluster core by index.
    Core(usize),
    /// The cluster DMA engine.
    Dma,
}

/// Per-cycle arbitration outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HciGrants {
    /// `granted[i]` tells whether logarithmic request `i` (in submission
    /// order) won its bank this cycle.
    pub log_granted: Vec<bool>,
    /// Whether the shallow-branch request (if any) won its whole bank
    /// group this cycle.
    pub shallow_granted: bool,
}

/// The HCI's arbitration counters, kept as plain fields on the per-cycle
/// path and folded into the [`Stats`] view by [`Hci::stats`] and the
/// snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    log_grants: u64,
    log_conflicts: u64,
    shallow_grants: u64,
    shallow_conflicts: u64,
    shallow_dropped: u64,
    /// `arbitrate` has run: from then on the `log_*` keys are present,
    /// at zero if nothing was granted or refused. The `shallow_*` keys
    /// appear with their first count.
    arbitrated: bool,
}

impl Counters {
    fn stats(&self) -> Stats {
        let log = [
            ("log_conflicts", self.log_conflicts),
            ("log_grants", self.log_grants),
        ];
        let shallow = [
            ("shallow_conflicts", self.shallow_conflicts),
            ("shallow_dropped", self.shallow_dropped),
            ("shallow_grants", self.shallow_grants),
        ];
        let log = log.into_iter().filter(|_| self.arbitrated);
        log.chain(shallow.into_iter().filter(|&(_, v)| v > 0))
            .collect()
    }

    fn from_stats(stats: &Stats) -> Result<Counters, SnapshotError> {
        let mut c = Counters::default();
        for (key, v) in stats.iter() {
            let field = match key {
                "log_conflicts" => &mut c.log_conflicts,
                "log_grants" => &mut c.log_grants,
                "shallow_conflicts" => &mut c.shallow_conflicts,
                "shallow_dropped" => &mut c.shallow_dropped,
                "shallow_grants" => &mut c.shallow_grants,
                _ => {
                    return Err(SnapshotError::Corrupt(format!(
                        "unknown HCI counter {key:?}"
                    )))
                }
            };
            *field = v;
            c.arbitrated |= key.starts_with("log_");
        }
        Ok(c)
    }
}

/// Cycle-by-cycle interconnect arbiter.
///
/// Call [`Hci::arbitrate`] once per simulated cycle with every access
/// attempted in that cycle.
///
/// # Example
///
/// ```
/// use redmule_cluster::{ClusterConfig, Hci, Initiator};
///
/// let cfg = ClusterConfig::default();
/// let mut hci = Hci::new(&cfg);
/// // Two cores hitting the same bank: only one wins.
/// let grants = hci.arbitrate(&[(Initiator::Core(0), 0x0), (Initiator::Core(1), 0x40)], None);
/// let winners = grants.log_granted.iter().filter(|&&g| g).count();
/// assert_eq!(winners, 1);
/// ```
#[derive(Debug)]
pub struct Hci {
    n_banks: usize,
    // modelcheck-allow: RM-SNAP-001 -- configuration constant, rebuilt from
    // ClusterConfig on restore; never mutated after `new`.
    shallow_banks: usize,
    bank_arb: Vec<RoundRobin>,
    group_mux: RotatingMux,
    counters: Counters,
    // modelcheck-allow: RM-SNAP-001 -- configuration constant, rebuilt from
    // ClusterConfig on restore; never mutated after `new`.
    max_log_initiators: usize,
    /// Remaining shallow-branch transactions to silently drop (fault
    /// injection); `u32::MAX` is effectively "drop forever".
    drop_shallow: u32,
    /// Scratch buffers reused every cycle to keep arbitration
    /// allocation-free on the hot path.
    // modelcheck-allow: RM-SNAP-001 -- per-cycle scratch, fully overwritten at
    // the start of every arbitrate() call; holds no cross-cycle state.
    scratch_requests: Vec<bool>,
    // modelcheck-allow: RM-SNAP-001 -- per-cycle scratch, fully overwritten at
    // the start of every arbitrate() call; holds no cross-cycle state.
    scratch_idx: Vec<Option<usize>>,
}

impl Hci {
    /// Builds the interconnect for a cluster configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ClusterConfig::validate`].
    pub fn new(cfg: &ClusterConfig) -> Hci {
        // modelcheck-allow: RM-PANIC-001 -- documented constructor contract: an
        // invalid ClusterConfig is a programming error, and validate() is the
        // fallible path for untrusted input.
        cfg.validate().expect("invalid cluster configuration");
        assert!(cfg.n_banks <= 64, "bank bitmask limited to 64 banks");
        // Initiators on the log branch: cores + DMA.
        let max_log_initiators = cfg.n_cores + 1;
        Hci {
            n_banks: cfg.n_banks,
            shallow_banks: cfg.shallow_banks,
            bank_arb: (0..cfg.n_banks)
                .map(|_| RoundRobin::new(max_log_initiators))
                .collect(),
            group_mux: RotatingMux::new(cfg.rotation_streak),
            counters: Counters::default(),
            max_log_initiators,
            drop_shallow: 0,
            scratch_requests: vec![false; max_log_initiators],
            scratch_idx: vec![None; max_log_initiators],
        }
    }

    /// Bank index serving byte address `addr`.
    pub fn bank_of(&self, addr: u32) -> usize {
        (addr as usize / 4) % self.n_banks
    }

    /// The set of banks a shallow (288-bit) access at `addr` occupies:
    /// `shallow_banks` adjacent banks starting at `addr`'s bank.
    pub fn shallow_group(&self, addr: u32) -> Vec<usize> {
        let start = self.bank_of(addr);
        (0..self.shallow_banks)
            .map(|i| (start + i) % self.n_banks)
            .collect()
    }

    /// Arbitrates one cycle.
    ///
    /// `log_requests` carries each logarithmic-branch access attempted this
    /// cycle as `(initiator, byte address)`; `shallow_request` optionally
    /// carries the accelerator's wide access address.
    ///
    /// Statistics recorded: `log_grants`, `log_conflicts`,
    /// `shallow_grants`, `shallow_conflicts`, `shallow_dropped`.
    pub fn arbitrate(
        &mut self,
        log_requests: &[(Initiator, u32)],
        shallow_request: Option<u32>,
    ) -> HciGrants {
        let n = self.n_banks;
        // Fault injection: a dropped shallow transaction is never granted —
        // from the accelerator's point of view the beat simply vanished and
        // it will retry next cycle (forever, if drops persist).
        let shallow_request = if shallow_request.is_some() && self.drop_shallow > 0 {
            self.drop_shallow = self.drop_shallow.saturating_sub(1);
            self.counters.shallow_dropped += 1;
            None
        } else {
            shallow_request
        };
        let shallow_start = shallow_request.map(|addr| self.bank_of(addr));
        let in_group = |bank: usize| match shallow_start {
            Some(start) => (bank + n - start) % n < self.shallow_banks,
            None => false,
        };

        // Decide branch ownership for the shallow group when contended.
        let log_wants_group = log_requests
            .iter()
            .any(|&(_, addr)| in_group(self.bank_of(addr)));
        let shallow_granted = if shallow_request.is_some() {
            if log_wants_group {
                match self.group_mux.grant(true, true) {
                    Side::Shallow => true,
                    Side::Log => false,
                }
            } else {
                true
            }
        } else {
            false
        };
        if shallow_request.is_some() {
            if shallow_granted {
                self.counters.shallow_grants += 1;
            } else {
                self.counters.shallow_conflicts += 1;
            }
        }

        // Round-robin per bank among logarithmic requestors; banks owned by
        // a granted shallow access are unavailable. Only banks that are
        // actually requested this cycle are visited.
        let mut requested_banks: u64 = 0;
        for &(_, addr) in log_requests {
            requested_banks |= 1 << self.bank_of(addr);
        }
        let mut log_granted = vec![false; log_requests.len()];
        let mut grants = 0u64;
        let mut mask = requested_banks;
        while mask != 0 {
            let bank = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if shallow_granted && in_group(bank) {
                continue;
            }
            self.scratch_requests.fill(false);
            self.scratch_idx.fill(None);
            for (i, &(init, addr)) in log_requests.iter().enumerate() {
                if self.bank_of(addr) == bank {
                    let slot = self.initiator_slot(init);
                    self.scratch_requests[slot] = true;
                    self.scratch_idx[slot] = Some(i);
                }
            }
            if let Some(winner) = self.bank_arb[bank].grant(&self.scratch_requests) {
                // modelcheck-allow: RM-PANIC-001 -- arbiter invariant: a grant
                // can only be issued for a slot that raised a request, and the
                // request/idx scratch vectors are filled together just above.
                let idx = self.scratch_idx[winner].expect("granted slot has a request");
                log_granted[idx] = true;
                grants += 1;
            }
        }

        self.counters.log_grants += grants;
        self.counters.log_conflicts += log_requests.len() as u64 - grants;
        self.counters.arbitrated = true;

        HciGrants {
            log_granted,
            shallow_granted,
        }
    }

    fn initiator_slot(&self, init: Initiator) -> usize {
        match init {
            Initiator::Core(i) => {
                assert!(i < self.max_log_initiators - 1, "core index out of range");
                i
            }
            Initiator::Dma => self.max_log_initiators - 1,
        }
    }

    /// Arms fault injection: the next `n` shallow-branch transactions are
    /// silently dropped (never granted); pass `u32::MAX` to drop forever.
    /// Dropped beats are counted in the `shallow_dropped` statistic.
    pub fn inject_shallow_drop(&mut self, n: u32) {
        self.drop_shallow = n;
    }

    /// Shallow-branch drops still armed.
    pub fn pending_shallow_drops(&self) -> u32 {
        self.drop_shallow
    }

    /// Accumulated arbitration statistics: `log_grants` and
    /// `log_conflicts` once any cycle was arbitrated, and each of
    /// `shallow_grants`, `shallow_conflicts` and `shallow_dropped` once it
    /// counted a beat.
    pub fn stats(&self) -> Stats {
        self.counters.stats()
    }
}

impl Snapshot for Hci {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.n_banks);
        for arb in &self.bank_arb {
            arb.save_state(w);
        }
        self.group_mux.save_state(w);
        self.counters.stats().save_state(w);
        w.put(&self.drop_shallow);
        // Scratch buffers are per-cycle temporaries; not state.
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n_banks: usize = r.get()?;
        if n_banks != self.n_banks {
            return Err(SnapshotError::ConfigMismatch(format!(
                "HCI has {n_banks} banks, target has {}",
                self.n_banks
            )));
        }
        for arb in &mut self.bank_arb {
            arb.restore_state(r)?;
        }
        self.group_mux.restore_state(r)?;
        let mut stats = Stats::new();
        stats.restore_state(r)?;
        self.counters = Counters::from_stats(&stats)?;
        self.drop_shallow = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hci() -> Hci {
        Hci::new(&ClusterConfig::default())
    }

    #[test]
    fn distinct_banks_all_granted() {
        let mut h = hci();
        let reqs: Vec<(Initiator, u32)> = (0..8)
            .map(|i| (Initiator::Core(i), (i as u32) * 4))
            .collect();
        let g = h.arbitrate(&reqs, None);
        assert!(g.log_granted.iter().all(|&x| x));
        assert_eq!(h.stats().get("log_conflicts"), 0);
    }

    #[test]
    fn same_bank_conflicts_serialise_fairly() {
        let mut h = hci();
        // Cores 0 and 1 both hit bank 0 repeatedly.
        let mut wins = [0u32; 2];
        for _ in 0..10 {
            let g = h.arbitrate(&[(Initiator::Core(0), 0), (Initiator::Core(1), 64)], None);
            for (i, &won) in g.log_granted.iter().enumerate() {
                if won {
                    wins[i] += 1;
                }
            }
            assert_eq!(g.log_granted.iter().filter(|&&x| x).count(), 1);
        }
        assert_eq!(wins, [5, 5]);
        assert_eq!(h.stats().get("log_conflicts"), 10);
    }

    #[test]
    fn shallow_group_spans_nine_adjacent_banks() {
        let h = hci();
        assert_eq!(h.shallow_group(0), (0..9).collect::<Vec<_>>());
        // Wraps around the 16-bank boundary.
        let g = h.shallow_group(14 * 4);
        assert_eq!(g, vec![14, 15, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn uncontended_shallow_always_granted() {
        let mut h = hci();
        for _ in 0..100 {
            let g = h.arbitrate(&[], Some(0));
            assert!(g.shallow_granted);
        }
        assert_eq!(h.stats().get("shallow_conflicts"), 0);
    }

    #[test]
    fn contended_shallow_rotates_after_streak() {
        let mut h = hci();
        // Core 0 hammers bank 2, inside the shallow group [0..9).
        let mut shallow_wins = 0;
        let mut log_wins = 0;
        for _ in 0..10 {
            let g = h.arbitrate(&[(Initiator::Core(0), 8)], Some(0));
            if g.shallow_granted {
                shallow_wins += 1;
                assert!(!g.log_granted[0], "bank granted to both branches");
            } else {
                log_wins += 1;
                assert!(g.log_granted[0], "rotation must hand the bank to the core");
            }
        }
        // rotation_streak = 4: pattern SSSS L SSSS L => 8 shallow, 2 log.
        assert_eq!(shallow_wins, 8);
        assert_eq!(log_wins, 2);
    }

    #[test]
    fn log_requests_outside_group_coexist_with_shallow() {
        let mut h = hci();
        // Bank 12 is outside the shallow group starting at bank 0.
        let g = h.arbitrate(&[(Initiator::Core(3), 12 * 4)], Some(0));
        assert!(g.shallow_granted);
        assert!(g.log_granted[0]);
    }

    #[test]
    fn dma_participates_in_round_robin() {
        let mut h = hci();
        let g = h.arbitrate(&[(Initiator::Dma, 0), (Initiator::Core(0), 64)], None);
        assert_eq!(g.log_granted.iter().filter(|&&x| x).count(), 1);
    }

    #[test]
    fn dropped_shallow_beats_never_grant() {
        let mut h = hci();
        h.inject_shallow_drop(3);
        for i in 0..10 {
            let g = h.arbitrate(&[], Some(0));
            assert_eq!(g.shallow_granted, i >= 3, "beat {i}");
        }
        assert_eq!(h.stats().get("shallow_dropped"), 3);
        assert_eq!(h.stats().get("shallow_grants"), 7);
        assert_eq!(h.pending_shallow_drops(), 0);
        // A dropped beat frees its banks for the logarithmic branch.
        h.inject_shallow_drop(u32::MAX);
        let g = h.arbitrate(&[(Initiator::Core(0), 8)], Some(0));
        assert!(!g.shallow_granted);
        assert!(g.log_granted[0]);
    }

    #[test]
    fn stats_view_keeps_key_presence_and_snapshot_bytes() {
        let mut h = hci();
        assert!(h.stats().is_empty(), "no key before the first cycle");
        let _ = h.arbitrate(&[], None);
        let keys = |h: &Hci| -> Vec<(String, u64)> {
            h.stats().iter().map(|(k, v)| (k.to_owned(), v)).collect()
        };
        let zero = |k: &str| (k.to_owned(), 0);
        assert_eq!(keys(&h), [zero("log_conflicts"), zero("log_grants")]);
        h.inject_shallow_drop(1);
        let _ = h.arbitrate(&[(Initiator::Core(0), 8)], Some(0));
        let _ = h.arbitrate(&[(Initiator::Core(0), 8)], Some(0));
        assert_eq!(h.stats().get("shallow_dropped"), 1);
        assert_eq!(h.stats().get("shallow_grants"), 1);
        assert!(!keys(&h).iter().any(|(k, _)| k == "shallow_conflicts"));

        // The snapshot carries the same view, and restores it exactly.
        let mut w = StateWriter::new();
        h.save_state(&mut w);
        let bytes = w.finish();
        let mut back = hci();
        back.restore_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(keys(&back), keys(&h));
        let mut w = StateWriter::new();
        back.save_state(&mut w);
        assert_eq!(w.finish(), bytes);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_core_index_panics() {
        let mut h = hci();
        let _ = h.arbitrate(&[(Initiator::Core(99), 0)], None);
    }
}
