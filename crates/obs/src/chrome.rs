//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! The exporter maps the engine's typed event stream onto the [Trace Event
//! Format]: tiles become `B`/`E` duration spans, everything else becomes
//! thread-scoped instant events, and each job gets its own lane (`tid`).
//! All timestamps are **simulated cycles**, and lane ids are job ids — both
//! are worker-count-independent, so the exported JSON is byte-identical no
//! matter how many host threads executed the batch.
//!
//! [`validate_chrome_trace`] is a dependency-free structural checker (the
//! build environment is offline, so no serde): it parses the JSON with a
//! small recursive-descent parser and verifies the invariants Perfetto
//! relies on (integer timestamps, required keys per event kind).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// One horizontal lane of a Chrome trace: a named thread (`tid`) plus the
/// events rendered into it.
///
/// Lane ids must be host-independent (the batch layer uses job ids, never
/// worker indices) to keep the export byte-deterministic.
#[derive(Debug, Clone)]
pub struct TraceLane<'a> {
    /// Thread id for the lane. Use a stable, worker-independent key.
    pub tid: u64,
    /// Human-readable lane name shown by the viewer.
    pub name: String,
    /// Events to render, in emission order.
    pub events: &'a [TraceEvent],
}

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_event_header(out: &mut String, name: &str, cat: &str, ph: char, ts: u64, tid: u64) {
    out.push_str("{\"name\":\"");
    escape_into(out, name);
    out.push_str("\",\"cat\":\"");
    out.push_str(cat);
    let _ = write!(
        out,
        "\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}"
    );
}

/// Renders lanes into a Chrome trace-event JSON document.
///
/// Tile start/end pairs become `B`/`E` spans (the `E` timestamp is the end
/// cycle plus one, so a tile spanning cycles `[a, b]` renders with duration
/// `b + 1 - a`); all other events are thread-scoped instants (`ph:"i"`,
/// `s:"t"`). Timestamps are simulated cycles; the `pid` is always 0.
///
/// The output is a pure function of `lanes` — byte-identical across runs
/// and worker counts.
pub fn chrome_trace(lanes: &[TraceLane<'_>]) -> String {
    let mut out =
        String::with_capacity(256 + lanes.iter().map(|l| l.events.len() * 96).sum::<usize>());
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for lane in lanes {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"",
            lane.tid
        );
        escape_into(&mut out, &lane.name);
        out.push_str("\"}}");
        for ev in lane.events {
            sep(&mut out);
            render_event(&mut out, ev, lane.tid);
        }
    }
    out.push_str("]}");
    out
}

fn render_event(out: &mut String, ev: &TraceEvent, tid: u64) {
    let ts = ev.cycle;
    match &ev.kind {
        EventKind::TileStart {
            tile,
            row0,
            rows,
            cols,
        } => {
            push_event_header(out, &format!("tile {tile}"), "tile", 'B', ts, tid);
            let _ = write!(
                out,
                ",\"args\":{{\"row0\":{row0},\"rows\":{rows},\"cols\":{cols}}}}}"
            );
        }
        EventKind::TileEnd { tile } => {
            push_event_header(
                out,
                &format!("tile {tile}"),
                "tile",
                'E',
                ts.saturating_add(1),
                tid,
            );
            out.push('}');
        }
        EventKind::Refill { channel, seq } => {
            push_event_header(
                out,
                &format!("refill {}", channel.label()),
                "mem",
                'i',
                ts,
                tid,
            );
            let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"seq\":{seq}}}}}");
        }
        EventKind::StoreDrain { pending } => {
            push_event_header(out, "store drain", "mem", 'i', ts, tid);
            let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"pending\":{pending}}}}}");
        }
        EventKind::HciStall => {
            push_event_header(out, "hci stall", "stall", 'i', ts, tid);
            out.push_str(",\"s\":\"t\"}");
        }
        EventKind::Stall { phase } => {
            push_event_header(
                out,
                &format!("stall {}", phase.label()),
                "stall",
                'i',
                ts,
                tid,
            );
            out.push_str(",\"s\":\"t\"}");
        }
        EventKind::Fault { class, phase } => {
            push_event_header(out, &format!("fault {phase}"), "fault", 'i', ts, tid);
            let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"class\":\"{class}\"}}}}");
        }
        EventKind::Checkpoint { tile } => {
            push_event_header(out, "checkpoint", "runtime", 'i', ts, tid);
            let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"tile\":{tile}}}}}");
        }
        EventKind::Watchdog { stalled_for } => {
            push_event_header(out, "watchdog", "runtime", 'i', ts, tid);
            let _ = write!(
                out,
                ",\"s\":\"t\",\"args\":{{\"stalled_for\":{stalled_for}}}}}"
            );
        }
    }
}

/// What [`validate_chrome_trace`] found in a structurally valid document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Non-metadata trace events.
    pub events: usize,
    /// Distinct lanes (`tid` values).
    pub lanes: usize,
    /// Largest timestamp seen (simulated cycles), 0 if no events.
    pub max_ts: u64,
}

// ---------------------------------------------------------------------------
// Minimal JSON model for validation (offline environment: no serde).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// `true` flag marks an integer-syntax number (no fraction/exponent).
    Num(f64, bool),
    Str(String),
    Arr(Vec<Json>),
    /// Key-value pairs in document order (`Vec`, not a hash map, to keep
    /// RM-DET-001 trivially satisfied and preserve ordering).
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v, true) if *v >= 0.0 && *v <= u64::MAX as f64 => Some(*v as u64),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Decode the next char straight from the source `str`
                    // (already valid UTF-8): constant work per char, so a
                    // long string parses in linear time.
                    let ch = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        Ok(Json::Num(v, integral))
    }
}

fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Structurally validates a Chrome trace-event JSON document.
///
/// Checks that the document parses, has a top-level `traceEvents` array,
/// and that every event carries the keys the viewer needs: a string `ph`
/// and `name`, integer `pid`/`tid`, an **integer** `ts` on non-metadata
/// events (simulated cycles — fractional timestamps would mean wall clock
/// leaked in), and a `s` scope on instant events.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceSummary, String> {
    let doc = parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\"")?;
    let Json::Arr(items) = events else {
        return Err("\"traceEvents\" is not an array".to_owned());
    };
    let mut summary = ChromeTraceSummary {
        events: 0,
        lanes: 0,
        max_ts: 0,
    };
    let mut tids: Vec<u64> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let fail = |msg: &str| format!("traceEvents[{i}]: {msg}");
        if !matches!(item, Json::Obj(_)) {
            return Err(fail("not an object"));
        }
        let ph = item
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string \"ph\""))?;
        item.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string \"name\""))?;
        item.get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("missing integer \"pid\""))?;
        let tid = item
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("missing integer \"tid\""))?;
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts = item
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("missing integer \"ts\""))?;
        summary.max_ts = summary.max_ts.max(ts);
        summary.events += 1;
        if ph == "i" && item.get("s").and_then(Json::as_str).is_none() {
            return Err(fail("instant event missing \"s\" scope"));
        }
    }
    summary.lanes = tids.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Channel;
    use crate::phase::Phase;

    fn sample_events() -> Vec<TraceEvent> {
        [
            (
                12,
                EventKind::TileStart {
                    tile: 0,
                    row0: 0,
                    rows: 4,
                    cols: 16,
                },
            ),
            (
                13,
                EventKind::Refill {
                    channel: Channel::W,
                    seq: 5,
                },
            ),
            (
                14,
                EventKind::Stall {
                    phase: Phase::Refill,
                },
            ),
            (15, EventKind::HciStall),
            (90, EventKind::TileEnd { tile: 0 }),
            (91, EventKind::StoreDrain { pending: 3 }),
            (92, EventKind::Checkpoint { tile: 1 }),
            (93, EventKind::Watchdog { stalled_for: 64 }),
            (
                94,
                EventKind::Fault {
                    class: redmule_hwsim::FaultClass::TransientFlip,
                    phase: redmule_hwsim::FaultPhase::Detected,
                },
            ),
        ]
        .into_iter()
        .map(|(cycle, kind)| TraceEvent { cycle, kind })
        .collect()
    }

    #[test]
    fn export_validates_and_counts() {
        let events = sample_events();
        let lanes = [
            TraceLane {
                tid: 0,
                name: "job 0 \"quoted\"".to_owned(),
                events: &events,
            },
            TraceLane {
                tid: 7,
                name: "job 7".to_owned(),
                events: &events[..2],
            },
        ];
        let json = chrome_trace(&lanes);
        let summary = validate_chrome_trace(&json).expect("valid");
        assert_eq!(summary.lanes, 2);
        assert_eq!(summary.events, events.len() + 2);
        assert_eq!(summary.max_ts, 94);
    }

    /// FNV-1a 64 with the multiply done bit by bit (shift-and-add), so
    /// the pinned digest shares no code with any library checksum.
    fn bit_serial_fnv1a64(bytes: &[u8]) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            let mut product = 0u64;
            for bit in 0..64 {
                if (PRIME >> bit) & 1 == 1 {
                    product = product.wrapping_add(hash << bit);
                }
            }
            hash = product;
        }
        hash
    }

    /// Locks the rendered bytes of every event kind, escaping included,
    /// so a change to the event types or the renderer that moves a single
    /// byte of an exported trace fails here.
    #[test]
    fn rendered_bytes_of_every_event_kind_are_pinned() {
        let events = sample_events();
        let lanes = [
            TraceLane {
                tid: 0,
                name: "job 0 \"quoted\"".to_owned(),
                events: &events,
            },
            TraceLane {
                tid: 7,
                name: "job 7".to_owned(),
                events: &events,
            },
        ];
        let json = chrome_trace(&lanes);
        assert_eq!(json.len(), 1839);
        assert_eq!(bit_serial_fnv1a64(json.as_bytes()), 0x6353_16e4_1aac_084a);
    }

    #[test]
    fn export_is_deterministic() {
        let events = sample_events();
        let lanes = [TraceLane {
            tid: 3,
            name: "lane".to_owned(),
            events: &events,
        }];
        assert_eq!(chrome_trace(&lanes), chrome_trace(&lanes));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace(&[]);
        let summary = validate_chrome_trace(&json).expect("valid");
        assert_eq!(summary.events, 0);
        assert_eq!(summary.lanes, 0);
    }

    #[test]
    fn validator_rejects_garbage_and_structure_violations() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        // Fractional timestamp: wall clock leaked in.
        let frac = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":1.5,\"pid\":0,\"tid\":0,\"s\":\"t\"}]}";
        assert!(validate_chrome_trace(frac).is_err());
        // Instant without scope.
        let noscope =
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":1,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(noscope).is_err());
        // Trailing data.
        assert!(validate_chrome_trace("{\"traceEvents\":[]} x").is_err());
    }

    #[test]
    fn validator_is_linear_on_long_strings() {
        // Several MB of trace whose bulk is long string fields: re-reading
        // the rest of the document per character would take minutes.
        let events = sample_events();
        let lanes: Vec<TraceLane> = (0..4)
            .map(|tid| TraceLane {
                tid,
                name: "lane \u{e9}".repeat(200_000),
                events: &events,
            })
            .collect();
        let json = chrome_trace(&lanes);
        assert!(json.len() > 4_000_000, "trace is {} bytes", json.len());
        let summary = validate_chrome_trace(&json).expect("valid");
        assert_eq!(summary.lanes, 4);
        assert_eq!(summary.events, 4 * events.len());
    }

    #[test]
    fn validator_accepts_escapes_and_unicode() {
        let json = "{\"traceEvents\":[{\"name\":\"caf\\u00e9 ☕\\n\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{}}]}";
        let summary = validate_chrome_trace(json).expect("valid");
        assert_eq!(summary.lanes, 1);
        assert_eq!(summary.events, 0);
    }
}
