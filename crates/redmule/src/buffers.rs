//! RedMulE's internal buffers, each a set of flat slots allocated once.
//!
//! * [`XBuffer`] — holds, for each of the `L` datapath rows, the current
//!   chunk of `H*(P+1)` X-operands (one per future column-phase slot), plus
//!   a staging chunk the Streamer fills ahead of time. The paper: "a
//!   X-Buffer that changes all the L inputs of a column once every
//!   H*(P+1) cycles".
//! * [`WBuffer`] — `H` broadcast registers, each a slot of `H*(P+1)` W
//!   elements and a read cursor that hands one element per cycle to the
//!   `L` FMAs of its column; each register reloads from a staged group
//!   once per phase (one memory access every `P+1` cycles in aggregate).
//! * [`ZBuffer`] — collects the `L x H*(P+1)` output tile while the store
//!   accesses are interleaved into free memory slots.
//! * `StoreQueue` — the finished Z rows waiting for a store slot.
//!
//! The Streamer fills a staging slot in place — the cast-in stage writes
//! each transfer straight into it — and then commits it, so no buffer
//! allocates after construction.

use redmule_fp16::F16;

/// Double-buffered X operand storage.
///
/// # Example
///
/// ```
/// use redmule::buffers::XBuffer;
/// use redmule_fp16::F16;
///
/// let mut xb = XBuffer::new(2, 4); // L = 2 rows, chunks of 4 elements
/// xb.staging_row(0).fill(F16::ONE);
/// xb.commit_row(0);
/// xb.staging_row(1).fill(F16::TWO);
/// xb.commit_row(1);
/// assert!(xb.staging_complete());
/// xb.swap();
/// assert_eq!(xb.operand(0, 2), F16::ONE);
/// ```
#[derive(Debug, Clone)]
pub struct XBuffer {
    chunk: usize,
    /// The current chunks, row `r` at `r * chunk`.
    current: Vec<F16>,
    /// Whether a chunk is current: all rows swap in together.
    has_current: bool,
    /// The staging chunks, laid out like `current`.
    staging: Vec<F16>,
    /// Per row: its staging slot holds a committed chunk.
    staged: Vec<bool>,
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
            chunk,
            current: vec![F16::ZERO; l * chunk],
            has_current: false,
            staging: vec![F16::ZERO; l * chunk],
            staged: vec![false; l],
        }
    }

    /// `row`'s free staging slot, to fill in place before
    /// [`XBuffer::commit_row`].
    ///
    /// # Panics
    ///
    /// Panics if the row index is out of range or the staging slot is
    /// already full (the Streamer must not over-fetch).
    pub fn staging_row(&mut self, row: usize) -> &mut [F16] {
        assert!(row < self.staged.len(), "row {row} out of range");
        assert!(!self.staged[row], "staging slot for row {row} already full");
        &mut self.staging[row * self.chunk..][..self.chunk]
    }

    /// Marks `row`'s staging slot as holding a freshly loaded chunk.
    ///
    /// # Panics
    ///
    /// As [`XBuffer::staging_row`].
    pub fn commit_row(&mut self, row: usize) {
        assert!(!self.staged[row], "staging slot for row {row} already full");
        self.staged[row] = true;
    }

    /// `true` when `row`'s staging slot is free to receive a load.
    pub fn staging_free(&self, row: usize) -> bool {
        !self.staged[row]
    }

    /// `true` when every row's staging chunk has arrived.
    pub fn staging_complete(&self) -> bool {
        self.staged.iter().all(|&s| s)
    }

    /// `row`'s staged chunk, if committed (for session snapshots).
    pub(crate) fn staged_row(&self, row: usize) -> Option<&[F16]> {
        self.staged[row].then(|| &self.staging[row * self.chunk..][..self.chunk])
    }

    /// Makes the staged chunks current (consumed chunk is dropped).
    ///
    /// # Panics
    ///
    /// Panics unless [`XBuffer::staging_complete`]; callers stall instead.
    pub fn swap(&mut self) {
        assert!(self.staging_complete(), "swap before staging completed");
        std::mem::swap(&mut self.current, &mut self.staging);
        self.staged.fill(false);
        self.has_current = true;
    }

    /// Reads the X operand at `idx` within `row`'s current chunk.
    ///
    /// # Panics
    ///
    /// Panics if no chunk is current or indices are out of range.
    pub fn operand(&self, row: usize, idx: usize) -> F16 {
        assert!(
            self.has_current,
            "no current chunk; datapath should have stalled"
        );
        assert!(idx < self.chunk, "operand {idx} out of range");
        self.current[row * self.chunk + idx]
    }
}

/// Per-column W broadcast registers with one staged group each.
///
/// Each register is a slot of `group` elements and a read cursor: a
/// broadcast hands out the element under the cursor and advances it, and
/// a drained register (cursor at the end) reloads from its column's
/// staged group.
#[derive(Debug, Clone)]
pub struct WBuffer {
    group: usize,
    /// The registers, column `c` at `c * group`.
    regs: Vec<F16>,
    /// Per column: elements its register has broadcast (`group` when
    /// drained).
    cursor: Vec<usize>,
    /// The staged groups, laid out like `regs`.
    staging: Vec<F16>,
    /// Per column: its staging slot holds a committed group.
    staged: Vec<bool>,
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
            regs: vec![F16::ZERO; h * group],
            cursor: vec![group; h],
            staging: vec![F16::ZERO; h * group],
            staged: vec![false; h],
        }
    }

    /// `col`'s free staging slot, to fill in place before
    /// [`WBuffer::commit_group`].
    ///
    /// # Panics
    ///
    /// Panics if the column index is out of range or staging is full.
    pub fn staging_group(&mut self, col: usize) -> &mut [F16] {
        assert!(!self.staged[col], "staging for column {col} already full");
        &mut self.staging[col * self.group..][..self.group]
    }

    /// Marks `col`'s staging slot as holding a loaded W group.
    ///
    /// # Panics
    ///
    /// As [`WBuffer::staging_group`].
    pub fn commit_group(&mut self, col: usize) {
        assert!(!self.staged[col], "staging for column {col} already full");
        self.staged[col] = true;
    }

    /// `true` when `col` can accept a staged group.
    pub fn staging_free(&self, col: usize) -> bool {
        !self.staged[col]
    }

    /// `col`'s staged group, if committed (for session snapshots).
    pub(crate) fn staged_group(&self, col: usize) -> Option<&[F16]> {
        self.staged[col].then(|| &self.staging[col * self.group..][..self.group])
    }

    /// `true` when `col`'s register has been fully drained (used by the
    /// single-buffered ablation policy to forbid prefetch).
    pub fn register_empty(&self, col: usize) -> bool {
        self.cursor[col] == self.group
    }

    /// Moves `col`'s staged group into its (drained) register. Returns
    /// `false` (and changes nothing) when the group has not arrived yet —
    /// the datapath stalls.
    ///
    /// # Panics
    ///
    /// Panics if the register still holds elements (a schedule bug).
    pub fn activate(&mut self, col: usize) -> bool {
        if !self.staged[col] {
            return false;
        }
        assert!(self.register_empty(col), "register drained before reload");
        let slot = col * self.group..(col + 1) * self.group;
        self.regs[slot.clone()].copy_from_slice(&self.staging[slot]);
        self.cursor[col] = 0;
        self.staged[col] = false;
        true
    }

    /// Broadcasts (shifts out) the next W element of `col`.
    ///
    /// # Panics
    ///
    /// Panics if the register is empty (a schedule bug: `activate` governs
    /// phase starts).
    pub fn broadcast(&mut self, col: usize) -> F16 {
        let at = self.cursor[col];
        assert!(
            at < self.group,
            "W register underrun; datapath should have stalled"
        );
        self.cursor[col] = at + 1;
        self.regs[col * self.group + at]
    }
}

/// Output tile collector.
#[derive(Debug, Clone)]
pub struct ZBuffer {
    width: usize,
    /// The tile, row `r` at `r * width`.
    tile: Vec<F16>,
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
            tile: vec![F16::ZERO; l * width],
            occupied: false,
        }
    }

    /// `true` while a completed tile is waiting to be stored.
    pub fn is_occupied(&self) -> bool {
        self.occupied
    }

    /// The whole tile, row-major, for writing before [`ZBuffer::seal`].
    ///
    /// # Panics
    ///
    /// Panics when the buffer still holds a previous, un-stored tile.
    pub fn tile_mut(&mut self) -> &mut [F16] {
        assert!(!self.occupied, "Z-buffer overwritten before store");
        &mut self.tile
    }

    /// Records output column `col` of every row from the datapath's raw
    /// binary16 bits, one element per row.
    ///
    /// # Panics
    ///
    /// Panics when the buffer still holds a previous, un-stored tile, the
    /// column is out of range or `bits` does not hold one element per row.
    pub fn record_column(&mut self, col: usize, bits: &[u16]) {
        let width = self.width;
        assert!(col < width, "column {col} out of range");
        let tile = self.tile_mut();
        assert_eq!(bits.len() * width, tile.len(), "one element per row");
        for (z, &b) in tile[col..].iter_mut().step_by(width).zip(bits) {
            *z = F16::from_bits(b);
        }
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
        &self.tile[row * self.width..][..self.width]
    }

    /// Releases the buffer after all stores were issued.
    pub fn release(&mut self) {
        self.occupied = false;
    }
}

/// The finished Z rows waiting for a store slot, oldest first: a ring of
/// row slots with room for every row the job stores, so it never grows.
#[derive(Debug, Clone)]
pub(crate) struct StoreQueue {
    width: usize,
    /// Per slot: the row's TCDM address and element count.
    heads: Vec<(u32, usize)>,
    /// The row data, slot `s` at `s * width`.
    data: Vec<F16>,
    front: usize,
    len: usize,
}

impl StoreQueue {
    /// A queue with room for `rows` rows of up to `width` elements.
    pub(crate) fn new(rows: usize, width: usize) -> StoreQueue {
        let rows = rows.max(1);
        StoreQueue {
            width,
            heads: vec![(0, 0); rows],
            data: vec![F16::ZERO; rows * width],
            front: 0,
            len: 0,
        }
    }

    /// Rows waiting.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` when no row waits.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows the queue has room for.
    pub(crate) fn capacity(&self) -> usize {
        self.heads.len()
    }

    /// The address of the oldest waiting row.
    pub(crate) fn front_addr(&self) -> Option<u32> {
        (self.len > 0).then(|| self.heads[self.front].0)
    }

    /// Queues a row for `addr`, copied into the next free slot.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or the row is wider than a slot.
    pub(crate) fn push(&mut self, addr: u32, row: &[F16]) {
        assert!(self.len < self.capacity(), "store queue overflow");
        assert!(row.len() <= self.width, "store row wider than a slot");
        let slot = (self.front + self.len) % self.heads.len();
        self.heads[slot] = (addr, row.len());
        self.data[slot * self.width..][..row.len()].copy_from_slice(row);
        self.len += 1;
    }

    /// Dequeues the oldest row: its address and its data, which stay in
    /// their slot, writable, until the next push.
    pub(crate) fn pop(&mut self) -> Option<(u32, &mut [F16])> {
        if self.len == 0 {
            return None;
        }
        let slot = self.front;
        self.front = (slot + 1) % self.heads.len();
        self.len -= 1;
        let (addr, n) = self.heads[slot];
        Some((addr, &mut self.data[slot * self.width..][..n]))
    }

    /// The waiting rows, oldest first (for session snapshots).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &[F16])> {
        (0..self.len).map(|i| {
            let slot = (self.front + i) % self.heads.len();
            let (addr, n) = self.heads[slot];
            (addr, &self.data[slot * self.width..][..n])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage_x(xb: &mut XBuffer, row: usize, v: F16) {
        xb.staging_row(row).fill(v);
        xb.commit_row(row);
    }

    fn stage_w(wb: &mut WBuffer, col: usize, data: &[F16]) {
        wb.staging_group(col).copy_from_slice(data);
        wb.commit_group(col);
    }

    #[test]
    fn x_buffer_double_buffers() {
        let mut xb = XBuffer::new(2, 4);
        assert!(!xb.staging_complete());
        assert!(xb.staging_free(0));
        stage_x(&mut xb, 0, F16::ONE);
        assert!(!xb.staging_free(0));
        assert_eq!(xb.staged_row(0), Some(&[F16::ONE; 4][..]));
        assert_eq!(xb.staged_row(1), None);
        stage_x(&mut xb, 1, F16::TWO);
        xb.swap();
        assert_eq!(xb.operand(0, 3), F16::ONE);
        assert_eq!(xb.operand(1, 0), F16::TWO);
        // Staging is free again for the next chunk while current is in use.
        assert!(xb.staging_free(0));
        stage_x(&mut xb, 0, F16::HALF);
        assert_eq!(xb.operand(0, 0), F16::ONE, "current chunk unchanged");
    }

    #[test]
    #[should_panic(expected = "swap before staging completed")]
    fn x_swap_requires_all_rows() {
        let mut xb = XBuffer::new(2, 4);
        stage_x(&mut xb, 0, F16::ONE);
        xb.swap();
    }

    #[test]
    #[should_panic(expected = "already full")]
    fn x_stage_rejects_overfetch() {
        let mut xb = XBuffer::new(1, 2);
        stage_x(&mut xb, 0, F16::ONE);
        let _ = xb.staging_row(0);
    }

    #[test]
    #[should_panic(expected = "no current chunk")]
    fn x_operand_requires_a_current_chunk() {
        let xb = XBuffer::new(1, 2);
        let _ = xb.operand(0, 0);
    }

    #[test]
    fn w_buffer_stages_and_broadcasts_in_order() {
        let mut wb = WBuffer::new(2, 3);
        assert!(!wb.activate(0), "no staged group yet");
        let g: Vec<F16> = [1.0, 2.0, 3.0].iter().map(|&v| F16::from_f32(v)).collect();
        stage_w(&mut wb, 0, &g);
        assert!(!wb.staging_free(0));
        assert_eq!(wb.staged_group(0), Some(&g[..]));
        assert!(wb.activate(0));
        assert!(wb.staging_free(0), "activation frees the staging slot");
        // A group staged behind a busy register waits for it to drain.
        let h: Vec<F16> = [4.0, 5.0, 6.0].iter().map(|&v| F16::from_f32(v)).collect();
        stage_w(&mut wb, 0, &h);
        assert_eq!(wb.broadcast(0).to_f32(), 1.0);
        assert_eq!(wb.broadcast(0).to_f32(), 2.0);
        assert!(!wb.register_empty(0));
        assert_eq!(wb.broadcast(0).to_f32(), 3.0);
        assert!(wb.register_empty(0));
        // Register drained: the next group activates, in order again.
        assert!(wb.activate(0));
        let out: Vec<f32> = (0..3).map(|_| wb.broadcast(0).to_f32()).collect();
        assert_eq!(out, [4.0, 5.0, 6.0]);
        assert!(wb.register_empty(1), "columns are independent");
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
        stage_w(&mut wb, 0, &[F16::ONE; 2]);
        assert!(wb.activate(0));
        wb.broadcast(0); // one element still inside
        stage_w(&mut wb, 0, &[F16::ONE; 2]);
        let _ = wb.activate(0);
    }

    #[test]
    fn z_buffer_lifecycle() {
        let mut zb = ZBuffer::new(2, 3);
        assert!(!zb.is_occupied());
        zb.record_column(0, &[F16::ONE.to_bits(), F16::HALF.to_bits()]);
        zb.record_column(2, &[0x7C01, F16::TWO.to_bits()]);
        zb.seal();
        assert!(zb.is_occupied());
        assert_eq!(zb.row(0)[0], F16::ONE);
        assert_eq!(zb.row(0)[2].to_bits(), 0x7C01, "bits land as they are");
        assert_eq!(zb.row(1)[0], F16::HALF);
        assert_eq!(zb.row(1)[2], F16::TWO);
        zb.release();
        assert!(!zb.is_occupied());
        zb.tile_mut().fill(F16::ZERO); // usable again
    }

    #[test]
    #[should_panic(expected = "overwritten before store")]
    fn z_record_rejected_while_sealed() {
        let mut zb = ZBuffer::new(1, 1);
        zb.seal();
        zb.record_column(0, &[0]);
    }

    #[test]
    #[should_panic(expected = "unsealed")]
    fn z_row_requires_seal() {
        let zb = ZBuffer::new(1, 1);
        let _ = zb.row(0);
    }

    #[test]
    fn store_queue_is_a_fifo_ring_that_never_grows() {
        let mut q = StoreQueue::new(2, 3);
        assert!(q.pop().is_none());
        let row = |v: f32| [F16::from_f32(v); 3];
        for round in 0..3u32 {
            q.push(round, &row(1.0));
            q.push(round + 100, &row(2.0)[..2]);
            assert_eq!(q.len(), q.capacity());
            assert_eq!(q.front_addr(), Some(round));
            let queued: Vec<(u32, usize)> = q.iter().map(|(a, d)| (a, d.len())).collect();
            assert_eq!(queued, [(round, 3), (round + 100, 2)]);
            let (addr, data) = q.pop().expect("oldest row");
            assert_eq!((addr, &*data), (round, &row(1.0)[..]));
            let (addr, data) = q.pop().expect("second row");
            assert_eq!((addr, data.len()), (round + 100, 2));
            assert!(q.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "store queue overflow")]
    fn store_queue_rejects_overflow() {
        let mut q = StoreQueue::new(1, 1);
        q.push(0, &[F16::ONE]);
        q.push(4, &[F16::ONE]);
    }
}
