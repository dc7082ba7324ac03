//! Arbitration primitives used by the HCI interconnect model.
//!
//! The PULP cluster's Heterogeneous Cluster Interconnect resolves conflicts
//! in two places that this module models generically:
//!
//! * the **logarithmic branch** grants one 32-bit initiator per TCDM bank
//!   per cycle with a round-robin scheme ([`RoundRobin`]);
//! * each TCDM bank chooses between the logarithmic branch and the shallow
//!   (HWPE) branch through a **configurable-latency, starvation-free
//!   rotation** scheme ([`RotatingMux`]).

use crate::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};

/// A round-robin arbiter over `n` requestors.
///
/// Fairness rule: after granting requestor `i`, priority moves to `i + 1`,
/// so a continuously requesting initiator cannot starve the others.
///
/// # Example
///
/// ```
/// use redmule_hwsim::arbiter::RoundRobin;
///
/// let mut arb = RoundRobin::new(3);
/// assert_eq!(arb.grant(&[true, true, true]), Some(0));
/// assert_eq!(arb.grant(&[true, true, true]), Some(1));
/// assert_eq!(arb.grant(&[true, true, true]), Some(2));
/// assert_eq!(arb.grant(&[true, false, false]), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates an arbiter for `n` requestors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> RoundRobin {
        assert!(n > 0, "arbiter needs at least one requestor");
        RoundRobin { n, next: 0 }
    }

    /// Number of requestors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the arbiter has exactly zero requestors (never: kept for
    /// API symmetry with collections).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants at most one requestor this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` differs from the requestor count.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector width mismatch");
        for offset in 0..self.n {
            let idx = (self.next + offset) % self.n;
            if requests[idx] {
                self.next = (idx + 1) % self.n;
                return Some(idx);
            }
        }
        None
    }
}

impl Snapshot for RoundRobin {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.n);
        w.put(&self.next);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n: usize = r.get()?;
        if n != self.n {
            return Err(SnapshotError::ConfigMismatch(format!(
                "round-robin width {n}, arbiter has {}",
                self.n
            )));
        }
        let next: usize = r.get()?;
        if next >= n {
            return Err(SnapshotError::Corrupt(format!(
                "round-robin cursor {next} out of range {n}"
            )));
        }
        self.next = next;
        Ok(())
    }
}

/// The two sides a [`RotatingMux`] can grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Logarithmic branch (cores / DMA, 32-bit initiators).
    Log,
    /// Shallow branch (HWPE wide port).
    Shallow,
}

/// Starvation-free rotation between the HCI logarithmic and shallow
/// branches at a TCDM bank.
///
/// The real HCI gives the shallow branch (the accelerator) priority but
/// bounds the latency of logarithmic-branch accesses: after the shallow
/// side has won `max_shallow_streak` consecutive contended cycles, one
/// cycle is rotated to the logarithmic side. This is the paper's
/// "configurable-latency starvation-free rotation scheme".
///
/// # Example
///
/// ```
/// use redmule_hwsim::arbiter::{RotatingMux, Side};
///
/// let mut mux = RotatingMux::new(2);
/// // Contended: shallow wins twice, then must yield once.
/// assert_eq!(mux.grant(true, true), Side::Shallow);
/// assert_eq!(mux.grant(true, true), Side::Shallow);
/// assert_eq!(mux.grant(true, true), Side::Log);
/// assert_eq!(mux.grant(true, true), Side::Shallow);
/// ```
#[derive(Debug, Clone)]
pub struct RotatingMux {
    max_shallow_streak: u32,
    streak: u32,
}

impl RotatingMux {
    /// Creates a mux that lets the shallow branch win at most
    /// `max_shallow_streak` contended cycles in a row.
    ///
    /// # Panics
    ///
    /// Panics if `max_shallow_streak` is zero.
    pub fn new(max_shallow_streak: u32) -> RotatingMux {
        assert!(
            max_shallow_streak > 0,
            "the shallow branch must be allowed at least one win"
        );
        RotatingMux {
            max_shallow_streak,
            streak: 0,
        }
    }

    /// Arbitrates one cycle given each side's request.
    ///
    /// Uncontended requests are always granted and do not advance the
    /// rotation state.
    ///
    /// # Panics
    ///
    /// Panics if neither side requests (callers must only arbitrate real
    /// conflicts; an idle bank has no grant).
    pub fn grant(&mut self, log_req: bool, shallow_req: bool) -> Side {
        match (log_req, shallow_req) {
            // modelcheck-allow: RM-PANIC-001 -- documented API contract (see
            // # Panics): arbitrating an idle bank is a caller bug, and every
            // call site gates on a request being present.
            (false, false) => panic!("grant called with no requests"),
            (true, false) => Side::Log,
            (false, true) => Side::Shallow,
            (true, true) => {
                if self.streak >= self.max_shallow_streak {
                    self.streak = 0;
                    Side::Log
                } else {
                    self.streak += 1;
                    Side::Shallow
                }
            }
        }
    }
}

impl Snapshot for RotatingMux {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.max_shallow_streak);
        w.put(&self.streak);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let max: u32 = r.get()?;
        if max != self.max_shallow_streak {
            return Err(SnapshotError::ConfigMismatch(format!(
                "rotation streak bound {max}, mux has {}",
                self.max_shallow_streak
            )));
        }
        self.streak = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair_under_full_load() {
        let mut arb = RoundRobin::new(4);
        let mut grants = [0u32; 4];
        for _ in 0..400 {
            let g = arb.grant(&[true; 4]).expect("some requestor asserted");
            grants[g] += 1;
        }
        assert_eq!(grants, [100; 4]);
        assert_eq!(arb.len(), 4);
        assert!(!arb.is_empty());
    }

    #[test]
    fn round_robin_skips_idle_requestors() {
        let mut arb = RoundRobin::new(3);
        assert_eq!(arb.grant(&[false, true, false]), Some(1));
        assert_eq!(arb.grant(&[false, true, false]), Some(1));
        assert_eq!(arb.grant(&[true, true, false]), Some(0)); // priority moved to 2, wraps to 0
        assert_eq!(arb.grant(&[false, false, false]), None);
    }

    #[test]
    fn round_robin_no_starvation_property() {
        // Requestor 0 requests continuously; requestor 1 requests every
        // cycle too. Neither may wait more than n cycles.
        let mut arb = RoundRobin::new(2);
        let mut waits = [0u32; 2];
        for _ in 0..100 {
            let g = arb.grant(&[true, true]).expect("both requested");
            for (i, w) in waits.iter_mut().enumerate() {
                if i == g {
                    *w = 0;
                } else {
                    *w += 1;
                    assert!(*w <= 2, "requestor {i} starved");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn round_robin_checks_width() {
        let mut arb = RoundRobin::new(2);
        let _ = arb.grant(&[true]);
    }

    #[test]
    fn rotating_mux_bounds_log_latency() {
        let mut mux = RotatingMux::new(3);
        let mut log_wait = 0u32;
        for _ in 0..100 {
            match mux.grant(true, true) {
                Side::Log => log_wait = 0,
                Side::Shallow => {
                    log_wait += 1;
                    assert!(log_wait <= 3, "logarithmic side starved");
                }
            }
        }
    }

    #[test]
    fn rotating_mux_uncontended_grants_do_not_rotate() {
        let mut mux = RotatingMux::new(1);
        // Shallow alone many times: no rotation state accrues.
        for _ in 0..5 {
            assert_eq!(mux.grant(false, true), Side::Shallow);
        }
        // First contended cycle still goes to shallow.
        assert_eq!(mux.grant(true, true), Side::Shallow);
        assert_eq!(mux.grant(true, true), Side::Log);
    }

    #[test]
    #[should_panic(expected = "no requests")]
    fn rotating_mux_rejects_idle_arbitration() {
        let mut mux = RotatingMux::new(1);
        let _ = mux.grant(false, false);
    }
}
