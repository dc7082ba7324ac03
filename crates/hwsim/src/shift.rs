//! Shift registers: RedMulE's W-buffer broadcast element.

use crate::snapshot::{Persist, Snapshot, SnapshotError, StateReader, StateWriter};
use std::collections::VecDeque;

/// A serial-in, broadcast-out shift register.
///
/// Models RedMulE's W-buffer element: each of the `H` per-column shift
/// registers is loaded with 16 W-operands at once and then shifts one
/// element out per cycle to broadcast to the `L` FMAs of that column.
///
/// # Example
///
/// ```
/// use redmule_hwsim::ShiftRegister;
///
/// let mut sr = ShiftRegister::new(4);
/// sr.load(vec![10, 20, 30, 40]).expect("register is empty");
/// assert_eq!(sr.shift(), Some(10));
/// assert_eq!(sr.shift(), Some(20));
/// assert_eq!(sr.remaining(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ShiftRegister<T> {
    capacity: usize,
    data: VecDeque<T>,
}

/// Error returned by [`ShiftRegister::load`] when the register still holds
/// elements or the payload has the wrong length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// The register still holds unshifted elements.
    Busy,
    /// The payload length does not equal the register capacity.
    WrongLength {
        /// Capacity of the register.
        expected: usize,
        /// Length of the rejected payload.
        got: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Busy => write!(f, "shift register still holds elements"),
            LoadError::WrongLength { expected, got } => {
                write!(f, "payload length {got} does not match capacity {expected}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl<T> ShiftRegister<T> {
    /// Creates an empty shift register holding up to `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ShiftRegister<T> {
        assert!(capacity > 0, "shift register capacity must be at least 1");
        ShiftRegister {
            capacity,
            data: VecDeque::with_capacity(capacity),
        }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements still waiting to be shifted out.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// `true` when all elements have been shifted out.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Parallel-loads a full payload.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Busy`] if elements remain, or
    /// [`LoadError::WrongLength`] if `payload.len() != capacity`.
    pub fn load(&mut self, payload: Vec<T>) -> Result<(), LoadError> {
        if !self.data.is_empty() {
            return Err(LoadError::Busy);
        }
        if payload.len() != self.capacity {
            return Err(LoadError::WrongLength {
                expected: self.capacity,
                got: payload.len(),
            });
        }
        self.data.extend(payload);
        Ok(())
    }

    /// Shifts one element out (front first), or `None` if empty.
    pub fn shift(&mut self) -> Option<T> {
        self.data.pop_front()
    }
}

impl<T: Persist> Snapshot for ShiftRegister<T> {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.capacity);
        w.put(&self.data.len());
        for item in &self.data {
            w.put(item);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let capacity: usize = r.get()?;
        if capacity != self.capacity {
            return Err(SnapshotError::ConfigMismatch(format!(
                "shift-register capacity {capacity}, component has {}",
                self.capacity
            )));
        }
        let len: usize = r.get()?;
        if len > capacity {
            return Err(SnapshotError::Corrupt(format!(
                "shift register holds {len} elements over capacity {capacity}"
            )));
        }
        self.data.clear();
        for _ in 0..len {
            self.data.push_back(r.get::<T>()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_register_fifo_order() {
        let mut sr = ShiftRegister::new(3);
        assert!(sr.is_empty());
        sr.load(vec![7, 8, 9])
            .expect("empty register accepts a load");
        assert_eq!(sr.remaining(), 3);
        assert_eq!(sr.shift(), Some(7));
        assert_eq!(sr.shift(), Some(8));
        assert_eq!(sr.shift(), Some(9));
        assert_eq!(sr.shift(), None);
    }

    #[test]
    fn shift_register_rejects_bad_loads() {
        let mut sr = ShiftRegister::new(2);
        assert_eq!(
            sr.load(vec![1]),
            Err(LoadError::WrongLength {
                expected: 2,
                got: 1
            })
        );
        sr.load(vec![1, 2]).expect("load fits");
        assert_eq!(sr.load(vec![3, 4]), Err(LoadError::Busy));
        sr.shift();
        // Still busy with one element left.
        assert_eq!(sr.load(vec![3, 4]), Err(LoadError::Busy));
        sr.shift();
        sr.load(vec![3, 4])
            .expect("drained register accepts a load");
        assert_eq!(sr.capacity(), 2);
    }

    #[test]
    fn load_error_display() {
        assert!(LoadError::Busy.to_string().contains("holds"));
        assert!(LoadError::WrongLength {
            expected: 4,
            got: 2
        }
        .to_string()
        .contains("capacity 4"));
    }
}
