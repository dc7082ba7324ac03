//! RedMulE's three internal buffers.
//!
//! * [`XBuffer`] — holds, for each of the `L` datapath rows, the current
//!   chunk of `H*(P+1)` X-operands (one per future column-phase slot), plus
//!   a staging chunk the Streamer fills ahead of time. The paper: "a
//!   X-Buffer that changes all the L inputs of a column once every
//!   H*(P+1) cycles".
//! * [`WBuffer`] — `H` shift registers, each broadcasting one W element per
//!   cycle to the `L` FMAs of its column, reloaded with a fresh group of
//!   `H*(P+1)` elements once per phase (one memory access every `P+1`
//!   cycles in aggregate).
//! * [`ZBuffer`] — collects the `L x H*(P+1)` output tile while the store
//!   accesses are interleaved into free memory slots.

use redmule_fp16::F16;
use redmule_hwsim::ShiftRegister;

/// Double-buffered X operand storage.
///
/// # Example
///
/// ```
/// use redmule::buffers::XBuffer;
/// use redmule_fp16::F16;
///
/// let mut xb = XBuffer::new(2, 4); // L = 2 rows, chunks of 4 elements
/// xb.stage_row(0, vec![F16::ONE; 4]);
/// xb.stage_row(1, vec![F16::TWO; 4]);
/// assert!(xb.staging_complete());
/// xb.swap();
/// assert_eq!(xb.operand(0, 2), F16::ONE);
/// ```
#[derive(Debug, Clone)]
pub struct XBuffer {
    l: usize,
    chunk: usize,
    current: Vec<Option<Vec<F16>>>,
    staging: Vec<Option<Vec<F16>>>,
}

impl XBuffer {
    /// Creates an empty buffer for `l` rows with `chunk` elements per row.
    ///
    /// # Panics
    ///
    /// Panics if `l` or `chunk` is zero.
    pub fn new(l: usize, chunk: usize) -> XBuffer {
        assert!(l > 0 && chunk > 0, "buffer dimensions must be positive");
        XBuffer {
            l,
            chunk,
            current: vec![None; l],
            staging: vec![None; l],
        }
    }

    /// Deposits a freshly loaded chunk for `row` into the staging half.
    ///
    /// # Panics
    ///
    /// Panics if the row index or data length is wrong, or the staging slot
    /// is already full (the Streamer must not over-fetch).
    pub fn stage_row(&mut self, row: usize, data: Vec<F16>) {
        assert!(row < self.l, "row {row} out of range");
        assert_eq!(data.len(), self.chunk, "chunk length mismatch");
        assert!(
            self.staging[row].is_none(),
            "staging slot for row {row} already full"
        );
        self.staging[row] = Some(data);
    }

    /// `true` when `row`'s staging slot is free to receive a load.
    pub fn staging_free(&self, row: usize) -> bool {
        self.staging[row].is_none()
    }

    /// `true` when every row's staging chunk has arrived.
    pub fn staging_complete(&self) -> bool {
        self.staging.iter().all(Option::is_some)
    }

    /// Read access to the staging slots, for session snapshots.
    pub(crate) fn staging_slots(&self) -> &[Option<Vec<F16>>] {
        &self.staging
    }

    /// Makes the staged chunks current (consumed chunk is dropped).
    ///
    /// # Panics
    ///
    /// Panics unless [`XBuffer::staging_complete`]; callers stall instead.
    pub fn swap(&mut self) {
        assert!(self.staging_complete(), "swap before staging completed");
        for (cur, stage) in self.current.iter_mut().zip(&mut self.staging) {
            *cur = stage.take();
        }
    }

    /// Reads the X operand at `idx` within `row`'s current chunk.
    ///
    /// # Panics
    ///
    /// Panics if no chunk is current or indices are out of range.
    pub fn operand(&self, row: usize, idx: usize) -> F16 {
        // modelcheck-allow: RM-PANIC-001 -- documented schedule invariant (see
        // # Panics): the datapath stalls while no chunk is current, so a miss
        // here is a scheduler bug that must not be silently absorbed.
        self.current[row]
            .as_ref()
            .expect("no current chunk; datapath should have stalled")[idx]
    }
}

/// Per-column W broadcast registers with one staged group each.
#[derive(Debug, Clone)]
pub struct WBuffer {
    group: usize,
    current: Vec<ShiftRegister<F16>>,
    staging: Vec<Option<Vec<F16>>>,
}

impl WBuffer {
    /// Creates the buffer for `h` columns with `group` elements per
    /// register.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `group` is zero.
    pub fn new(h: usize, group: usize) -> WBuffer {
        assert!(h > 0 && group > 0, "buffer dimensions must be positive");
        WBuffer {
            group,
            current: (0..h).map(|_| ShiftRegister::new(group)).collect(),
            staging: vec![None; h],
        }
    }

    /// Deposits a loaded W group for `col` into staging.
    ///
    /// # Panics
    ///
    /// Panics if the column index or length is wrong, or staging is full.
    pub fn stage_group(&mut self, col: usize, data: Vec<F16>) {
        assert_eq!(data.len(), self.group, "group length mismatch");
        assert!(
            self.staging[col].is_none(),
            "staging for column {col} already full"
        );
        self.staging[col] = Some(data);
    }

    /// `true` when `col` can accept a staged group.
    pub fn staging_free(&self, col: usize) -> bool {
        self.staging[col].is_none()
    }

    /// Read access to the staging slots, for session snapshots.
    pub(crate) fn staging_slots(&self) -> &[Option<Vec<F16>>] {
        &self.staging
    }

    /// `true` when `col`'s shift register has been fully drained (used by
    /// the single-buffered ablation policy to forbid prefetch).
    pub fn register_empty(&self, col: usize) -> bool {
        self.current[col].is_empty()
    }

    /// Moves `col`'s staged group into its (drained) shift register.
    /// Returns `false` (and changes nothing) when the group has not
    /// arrived yet — the datapath stalls.
    ///
    /// # Panics
    ///
    /// Panics if the register still holds elements (a schedule bug).
    pub fn activate(&mut self, col: usize) -> bool {
        match self.staging[col].take() {
            Some(data) => {
                // modelcheck-allow: RM-PANIC-001 -- documented schedule
                // invariant (see # Panics): activate() only runs after the
                // register drained; a violation is a scheduler bug.
                self.current[col]
                    .load(data)
                    .expect("register drained before reload");
                true
            }
            None => false,
        }
    }

    /// Broadcasts (shifts out) the next W element of `col`.
    ///
    /// # Panics
    ///
    /// Panics if the register is empty (a schedule bug: `activate` governs
    /// phase starts).
    pub fn broadcast(&mut self, col: usize) -> F16 {
        // modelcheck-allow: RM-PANIC-001 -- documented schedule invariant (see
        // # Panics): the datapath stalls on W underrun, so an empty register
        // here is a scheduler bug.
        self.current[col]
            .shift()
            .expect("W register underrun; datapath should have stalled")
    }
}

/// Output tile collector.
#[derive(Debug, Clone)]
pub struct ZBuffer {
    width: usize,
    rows: Vec<Vec<F16>>,
    occupied: bool,
}

impl ZBuffer {
    /// Creates a buffer of `l` rows by `width` elements.
    ///
    /// # Panics
    ///
    /// Panics if `l` or `width` is zero.
    pub fn new(l: usize, width: usize) -> ZBuffer {
        assert!(l > 0 && width > 0, "buffer dimensions must be positive");
        ZBuffer {
            width,
            rows: vec![vec![F16::ZERO; width]; l],
            occupied: false,
        }
    }

    /// `true` while a completed tile is waiting to be stored.
    pub fn is_occupied(&self) -> bool {
        self.occupied
    }

    /// Records the output element for (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics when the buffer still holds a previous, un-stored tile or the
    /// indices are out of range.
    pub fn record(&mut self, row: usize, col: usize, value: F16) {
        assert!(!self.occupied, "Z-buffer overwritten before store");
        assert!(col < self.width, "column {col} out of range");
        self.rows[row][col] = value;
    }

    /// Marks the tile complete: no more records until it is released.
    pub fn seal(&mut self) {
        self.occupied = true;
    }

    /// Reads a sealed row for storing.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not sealed.
    pub fn row(&self, row: usize) -> &[F16] {
        assert!(self.occupied, "reading an unsealed Z-buffer");
        &self.rows[row]
    }

    /// Releases the buffer after all stores were issued.
    pub fn release(&mut self) {
        self.occupied = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_buffer_double_buffers() {
        let mut xb = XBuffer::new(2, 4);
        assert!(!xb.staging_complete());
        assert!(xb.staging_free(0));
        xb.stage_row(0, vec![F16::ONE; 4]);
        assert!(!xb.staging_free(0));
        xb.stage_row(1, vec![F16::TWO; 4]);
        xb.swap();
        assert_eq!(xb.operand(0, 3), F16::ONE);
        assert_eq!(xb.operand(1, 0), F16::TWO);
        // Staging is free again for the next chunk while current is in use.
        assert!(xb.staging_free(0));
        xb.stage_row(0, vec![F16::HALF; 4]);
        assert_eq!(xb.operand(0, 0), F16::ONE, "current chunk unchanged");
    }

    #[test]
    #[should_panic(expected = "swap before staging completed")]
    fn x_swap_requires_all_rows() {
        let mut xb = XBuffer::new(2, 4);
        xb.stage_row(0, vec![F16::ONE; 4]);
        xb.swap();
    }

    #[test]
    #[should_panic(expected = "already full")]
    fn x_stage_rejects_overfetch() {
        let mut xb = XBuffer::new(1, 2);
        xb.stage_row(0, vec![F16::ONE; 2]);
        xb.stage_row(0, vec![F16::ONE; 2]);
    }

    #[test]
    fn w_buffer_stages_and_broadcasts_in_order() {
        let mut wb = WBuffer::new(2, 3);
        assert!(!wb.activate(0), "no staged group yet");
        let g: Vec<F16> = [1.0, 2.0, 3.0].iter().map(|&v| F16::from_f32(v)).collect();
        wb.stage_group(0, g.clone());
        assert!(!wb.staging_free(0));
        assert!(wb.activate(0));
        assert!(wb.staging_free(0), "activation frees the staging slot");
        assert_eq!(wb.broadcast(0).to_f32(), 1.0);
        assert_eq!(wb.broadcast(0).to_f32(), 2.0);
        assert_eq!(wb.broadcast(0).to_f32(), 3.0);
        // Register drained: next group can activate.
        wb.stage_group(0, g);
        assert!(wb.activate(0));
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn w_broadcast_panics_on_empty_register() {
        let mut wb = WBuffer::new(1, 2);
        let _ = wb.broadcast(0);
    }

    #[test]
    #[should_panic(expected = "drained before reload")]
    fn w_activate_panics_mid_group() {
        let mut wb = WBuffer::new(1, 2);
        wb.stage_group(0, vec![F16::ONE; 2]);
        assert!(wb.activate(0));
        wb.broadcast(0); // one element still inside
        wb.stage_group(0, vec![F16::ONE; 2]);
        let _ = wb.activate(0);
    }

    #[test]
    fn z_buffer_lifecycle() {
        let mut zb = ZBuffer::new(2, 3);
        assert!(!zb.is_occupied());
        zb.record(0, 0, F16::ONE);
        zb.record(1, 2, F16::TWO);
        zb.seal();
        assert!(zb.is_occupied());
        assert_eq!(zb.row(0)[0], F16::ONE);
        assert_eq!(zb.row(1)[2], F16::TWO);
        zb.release();
        assert!(!zb.is_occupied());
        zb.record(0, 1, F16::HALF); // usable again
    }

    #[test]
    #[should_panic(expected = "overwritten before store")]
    fn z_record_rejected_while_sealed() {
        let mut zb = ZBuffer::new(1, 1);
        zb.seal();
        zb.record(0, 0, F16::ONE);
    }

    #[test]
    #[should_panic(expected = "unsealed")]
    fn z_row_requires_seal() {
        let zb = ZBuffer::new(1, 1);
        let _ = zb.row(0);
    }
}
