//! Visualises the Streamer's memory-access schedule (the paper's Fig. 2c)
//! and exports a VCD waveform.
//!
//! Runs a single-tile GEMM with the engine's event log recorded, rebuilds
//! a per-cycle view from it, prints an ASCII timeline of the W/X/Z streams
//! (one column per cycle: `W`, `X`, `Z` for a fired transfer, `.` for an
//! idle port slot), and writes a GTKWave-compatible VCD to
//! `target/redmule_schedule.vcd`.
//!
//! ```text
//! cargo run --release --example trace_schedule
//! ```

use redmule_suite::fp16::vector::GemmShape;
use redmule_suite::fp16::{Format, F16};
use redmule_suite::hwsim::vcd::VcdWriter;
use redmule_suite::redmule::obs::{Channel, EventKind, EventLog};
use redmule_suite::redmule::{stage_gemm_workspace_in, AccelConfig, Engine};
use std::fs::File;
use std::io::BufWriter;

/// What the event log says happened on one cycle.
#[derive(Debug, Clone, Copy, Default)]
struct CycleView {
    /// A W group was loaded.
    w: bool,
    /// An X row was loaded.
    x: bool,
    /// A Z row was stored.
    z: bool,
    /// The datapath was clock-gated.
    stalled: bool,
    /// Z rows waiting in the store queue at the end of the cycle.
    z_pending: u32,
}

/// One [`CycleView`] per cycle of a `cycles`-long run. The store queue
/// grows by the tile's live rows at each `TileEnd` and is read back from
/// each `StoreDrain`.
fn cycle_views(log: &EventLog, cycles: u64) -> Vec<CycleView> {
    let mut views = vec![CycleView::default(); cycles as usize];
    let (mut tile_rows, mut pending) = (0, 0);
    let mut events = log.events().iter().peekable();
    for (cycle, view) in (0..).zip(views.iter_mut()) {
        while let Some(e) = events.next_if(|e| e.cycle == cycle) {
            match e.kind {
                EventKind::Refill {
                    channel: Channel::W,
                    ..
                } => view.w = true,
                EventKind::Refill {
                    channel: Channel::X,
                    ..
                } => view.x = true,
                EventKind::StoreDrain { pending: left } => {
                    view.z = true;
                    pending = left;
                }
                EventKind::TileStart { rows, .. } => tile_rows = rows,
                EventKind::TileEnd { .. } => pending += tile_rows,
                EventKind::Stall { .. } => view.stalled = true,
                _ => {}
            }
        }
        view.z_pending = pending;
    }
    views
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One output tile (8 x 16) with 16 phases over N = 64: long enough to
    // reach the steady state where the W port fires every P+1 = 4 cycles.
    let shape = GemmShape::new(8, 64, 16);
    let x: Vec<F16> = (0..shape.x_len())
        .map(|i| F16::from_f32(((i % 7) as f32 - 3.0) / 4.0))
        .collect();
    let w: Vec<F16> = (0..shape.w_len())
        .map(|i| F16::from_f32(((i % 5) as f32 - 2.0) / 4.0))
        .collect();

    let (job, mut mem, mut hci) = stage_gemm_workspace_in(shape, Format::Fp16, &x, &w, None)?;
    let (report, log) = Engine::new(AccelConfig::paper()).run_logged(job, &mut mem, &mut hci)?;
    let views = cycle_views(&log, report.cycles.count());
    let count = |fired: fn(&CycleView) -> bool| views.iter().filter(|v| fired(v)).count();

    println!("RedMulE streamer schedule for {shape} (Fig. 2c reproduction)");
    println!(
        "cycles: {}, W loads: {}, X loads: {}, Z stores: {}\n",
        report.cycles,
        count(|v| v.w),
        count(|v| v.x),
        count(|v| v.z)
    );

    // ASCII timeline, 64 cycles per row.
    for (row, chunk) in views.chunks(64).enumerate() {
        let line: String = chunk
            .iter()
            .map(|v| match (v.w, v.x, v.z) {
                (true, _, _) => 'W',
                (_, true, _) => 'X',
                (_, _, true) => 'Z',
                _ => '.',
            })
            .collect();
        println!("cycle {:>4} | {line}", row * 64);
    }

    // Steady-state check: W fires exactly every 4 cycles mid-run.
    let fires: Vec<usize> = views
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.w.then_some(i))
        .collect();
    let gaps: Vec<usize> = fires[8..fires.len() - 1]
        .windows(2)
        .map(|p| p[1] - p[0])
        .collect();
    println!(
        "\nsteady-state W cadence: every {} cycles (P + 1 = 4 per the paper)",
        gaps[0]
    );
    assert!(gaps.iter().all(|&g| g == 4));

    // VCD export.
    std::fs::create_dir_all("target")?;
    let path = "target/redmule_schedule.vcd";
    let file = BufWriter::new(File::create(path)?);
    let mut vcd = VcdWriter::new(file, 1);
    vcd.scope("redmule")?;
    vcd.scope("streamer")?;
    let w_fire = vcd.add_wire(1, "w_fire")?;
    let x_fire = vcd.add_wire(1, "x_fire")?;
    let z_fire = vcd.add_wire(1, "z_fire")?;
    vcd.upscope()?;
    vcd.scope("buffers")?;
    let stalled = vcd.add_wire(1, "datapath_stall")?;
    let z_pending = vcd.add_wire(4, "z_pending")?;
    vcd.upscope()?;
    vcd.upscope()?;
    vcd.begin_dump()?;
    for (i, v) in views.iter().enumerate() {
        vcd.set(w_fire, u64::from(v.w));
        vcd.set(x_fire, u64::from(v.x));
        vcd.set(z_fire, u64::from(v.z));
        vcd.set(stalled, u64::from(v.stalled));
        vcd.set(z_pending, u64::from(v.z_pending));
        vcd.tick(i as u64)?;
    }
    println!("waveform written to {path} (open with GTKWave)");
    Ok(())
}
