//! Named event counters for simulation statistics.

use crate::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use std::collections::BTreeMap;
use std::fmt;

/// A registry of named `u64` event counters.
///
/// Models (`BTreeMap`-backed so iteration order is stable for golden-file
/// tests) the performance counters a hardware block would expose, e.g.
/// RedMulE's busy cycles, issued memory transactions, or bank conflicts.
///
/// # Example
///
/// ```
/// use redmule_hwsim::Stats;
///
/// let mut s = Stats::new();
/// s.add("macs", 32);
/// s.incr("cycles");
/// assert_eq!(s.get("macs"), 32);
/// assert_eq!(s.get("not-recorded"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Adds `amount` to the named counter (creating it at zero first).
    pub fn add(&mut self, name: &str, amount: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += amount;
        } else {
            self.counters.insert(name.to_owned(), amount);
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter; unknown names read as zero, like an
    /// unwritten hardware counter.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merges another registry into this one by summing counters.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` if no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl Snapshot for Stats {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.counters.len());
        for (k, v) in &self.counters {
            w.put(k);
            w.put(v);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len: usize = r.get()?;
        self.counters.clear();
        for _ in 0..len {
            let k: String = r.get()?;
            let v: u64 = r.get()?;
            self.counters.insert(k, v);
        }
        Ok(())
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k:<32} {v}")?;
        }
        Ok(())
    }
}

impl<'a> Extend<(&'a str, u64)> for Stats {
    fn extend<T: IntoIterator<Item = (&'a str, u64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.add(k, v);
        }
    }
}

impl<'a> FromIterator<(&'a str, u64)> for Stats {
    fn from_iter<T: IntoIterator<Item = (&'a str, u64)>>(iter: T) -> Stats {
        let mut s = Stats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        assert!(s.is_empty());
        s.incr("a");
        s.incr("a");
        s.add("b", 40);
        assert_eq!(s.get("a"), 2);
        assert_eq!(s.get("b"), 40);
        assert_eq!(s.get("missing"), 0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a: Stats = [("m", 1u64), ("n", 2)].into_iter().collect();
        let b: Stats = [("n", 3u64), ("p", 4)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.get("m"), 1);
        assert_eq!(a.get("n"), 5);
        assert_eq!(a.get("p"), 4);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let s: Stats = [("z", 1u64), ("a", 2), ("m", 3)].into_iter().collect();
        let names: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn display_lists_each_counter() {
        let s: Stats = [("cycles", 10u64)].into_iter().collect();
        let text = s.to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("10"));
    }
}
