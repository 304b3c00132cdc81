//! The daemon's hand-rolled wire format.
//!
//! The workspace has a no-serde policy, so frames are explicit
//! little-endian layouts, length-prefixed for stream transports:
//!
//! ```text
//! frame    := len:u32 payload[len]            (len excludes itself)
//! payload  := magic:u16 version:u8 kind:u8 body
//! kind     := 0 request | 1 response | 2 shutdown
//!
//! request  := id:u64 flags:u8 machine scheduler:str graph
//! machine  := procs:u16 budget:u64[procs] comm_price:u64
//! flags    := bit0 cost_only, bit1 no_cache
//! str      := len:u16 utf8[len]
//! graph    := 0 custom:u8 n:u32 weight:u64[n] m:u32 (from:u32 to:u32)[m]
//!           | 1 dwt:u8    n:u64 d:u64        scheme
//!           | 2 mvm:u8    m:u64 n:u64        scheme
//!           | 3 conv:u8   n:u64 k:u64        scheme
//!           | 4 dwt2d:u8  n:u64 levels:u64   scheme
//!           | 5 banded:u8 n:u64 bandwidth:u64 scheme
//! scheme   := kind:u8 (0 equal | 1 double-accumulator) word:u64
//!
//! response := id:u64 status:u8 cache:u8 cost:u64 makespan:u64 comm:u64
//!             message:str moves
//! status   := 0 ok | 1 unknown-scheduler | 2 unsupported | 3 infeasible
//!           | 4 validation-failed | 5 overloaded | 6 bad-request
//! cost     := replayed cost (ok) | min-feasible hint or u64::MAX (infeasible)
//! makespan := multiprocessor makespan, u64::MAX when absent (uniprocessor)
//! comm     := multiprocessor communication cost, u64::MAX when absent
//! moves    := present:u8 [count:u32 (tag:u8 node:u32)[count]]
//!
//! shutdown := (empty body; the server acknowledges with an empty
//!              shutdown frame, flushes telemetry, and stops accepting)
//! ```
//!
//! Version history: v1 requests carried a bare `budget:u64` where v2
//! carries `machine`, and v1 responses had no `makespan`/`comm` words.
//! Encoders emit v2 and the decoder accepts only v2; a v1 frame is
//! rejected as an unsupported version.
//!
//! Decoders never trust lengths: every read is bounds-checked, frame and
//! collection sizes are capped, and any violation surfaces as a
//! [`WireError`] which the server answers with a `bad-request` response
//! instead of dying.

use crate::service::{GraphSpec, Outcome, RejectKind, Request, Response};
use pebblyn_core::stream::MoveTag;
use pebblyn_core::{CdagBuilder, MachineSpec, Move, NodeId, ProcBudget, Schedule, ScheduleRequest};
use pebblyn_graphs::{WeightScheme, Workload};
use std::fmt;
use std::io::{self, Read, Write};

/// `"pw"` — pebblyn wire.
pub const MAGIC: u16 = 0x7077;
/// Wire format version emitted and accepted.
pub const VERSION: u8 = 2;
/// Upper bound on a frame payload (guards allocations on hostile input).
pub const MAX_FRAME: u32 = 64 << 20;
/// Upper bound on nodes/edges/moves in one frame, and on the nodes a
/// workload spec may ask the server to build.
pub(crate) const MAX_ITEMS: u32 = 1 << 24;

/// A decoded frame.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A scheduling request.
    Request(Request),
    /// A response (client side decodes these).
    Response(Response),
    /// Graceful-stop marker.
    Shutdown,
}

/// Decode failure: malformed bytes, not I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

// ---------------------------------------------------------------- encode

struct Enc(Vec<u8>);

impl Enc {
    fn new(kind: u8) -> Self {
        let mut e = Enc(Vec::with_capacity(64));
        e.0.extend_from_slice(&MAGIC.to_le_bytes());
        e.0.push(VERSION);
        e.0.push(kind);
        e
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let len = u16::try_from(bytes.len()).expect("wire string over 64 KiB");
        self.0.extend_from_slice(&len.to_le_bytes());
        self.0.extend_from_slice(bytes);
    }
}

fn encode_scheme(e: &mut Enc, scheme: WeightScheme) {
    match scheme {
        WeightScheme::Equal(w) => {
            e.u8(0);
            e.u64(w);
        }
        WeightScheme::DoubleAccumulator(w) => {
            e.u8(1);
            e.u64(w);
        }
        WeightScheme::Custom { input, compute } => {
            e.u8(2);
            e.u64(input);
            e.u64(compute);
        }
    }
}

fn encode_machine(e: &mut Enc, machine: &MachineSpec) {
    let procs = u16::try_from(machine.num_procs()).expect("over 65535 processors on the wire");
    e.0.extend_from_slice(&procs.to_le_bytes());
    for p in machine.procs() {
        e.u64(p.budget());
    }
    e.u64(machine.comm_price());
}

fn encode_graph(e: &mut Enc, spec: &GraphSpec) {
    match spec {
        GraphSpec::Custom(g) => {
            e.u8(0);
            e.u32(g.len() as u32);
            for v in g.nodes() {
                e.u64(g.weight(v));
            }
            e.u32(g.edge_count() as u32);
            for v in g.nodes() {
                for &u in g.preds(v) {
                    e.u32(u.0);
                    e.u32(v.0);
                }
            }
        }
        GraphSpec::Workload { workload, scheme } => {
            let (tag, a, b) = match *workload {
                Workload::Dwt { n, d } => (1u8, n as u64, d as u64),
                Workload::Mvm { m, n } => (2, m as u64, n as u64),
                Workload::Conv { n, k } => (3, n as u64, k as u64),
                Workload::Dwt2d { n, levels } => (4, n as u64, levels as u64),
                Workload::Banded { n, bandwidth } => (5, n as u64, bandwidth as u64),
            };
            e.u8(tag);
            e.u64(a);
            e.u64(b);
            encode_scheme(e, *scheme);
        }
    }
}

/// Encode a request payload (without the length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc::new(0);
    e.u64(req.id);
    let mut flags = 0u8;
    if req.ask.is_cost_only() {
        flags |= 1;
    }
    if req.no_cache {
        flags |= 2;
    }
    e.u8(flags);
    encode_machine(&mut e, req.ask.machine());
    e.str(req.ask.scheduler());
    encode_graph(&mut e, req.ask.graph());
    e.0
}

fn status_code(kind: RejectKind) -> u8 {
    match kind {
        RejectKind::UnknownScheduler => 1,
        RejectKind::Unsupported => 2,
        RejectKind::Infeasible => 3,
        RejectKind::ValidationFailed => 4,
        RejectKind::Overloaded => 5,
        RejectKind::BadRequest => 6,
    }
}

/// Encode a response payload (without the length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = Enc::new(1);
    e.u64(resp.id);
    match &resp.outcome {
        Outcome::Ok {
            cost,
            schedule,
            cache_hit,
            makespan,
            comm_cost,
        } => {
            e.u8(0);
            e.u8(u8::from(*cache_hit));
            e.u64(*cost);
            e.u64(makespan.unwrap_or(u64::MAX));
            e.u64(comm_cost.unwrap_or(u64::MAX));
            e.str("");
            match schedule {
                Some(s) => {
                    e.u8(1);
                    let stream = s.stream();
                    e.u32(stream.len() as u32);
                    for mv in stream.iter() {
                        let tag = match mv {
                            Move::Load(_) => MoveTag::Load,
                            Move::Store(_) => MoveTag::Store,
                            Move::Compute(_) => MoveTag::Compute,
                            Move::Delete(_) => MoveTag::Delete,
                        };
                        e.u8(tag as u8);
                        e.u32(mv.node().0);
                    }
                }
                None => e.u8(0),
            }
        }
        Outcome::Rejected {
            kind,
            message,
            min_feasible,
        } => {
            e.u8(status_code(*kind));
            e.u8(0);
            e.u64(min_feasible.unwrap_or(u64::MAX));
            e.u64(u64::MAX);
            e.u64(u64::MAX);
            e.str(message);
            e.u8(0);
        }
    }
    e.0
}

/// Encode the shutdown payload.
pub fn encode_shutdown() -> Vec<u8> {
    Enc::new(2).0
}

// ---------------------------------------------------------------- decode

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return err(format!(
                "truncated payload: wanted {n} bytes at offset {}",
                self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError("invalid utf8".into()))
    }
    /// Read an item count, capped and cross-checked against the bytes
    /// actually remaining (`stride` per item), so a hostile length can
    /// never drive an allocation the payload cannot back.
    fn counted(&mut self, what: &str, stride: usize) -> Result<u32, WireError> {
        let n = self.u32()?;
        if n > MAX_ITEMS {
            return err(format!("{what} count {n} exceeds cap {MAX_ITEMS}"));
        }
        if (n as usize).saturating_mul(stride) > self.buf.len() - self.pos {
            return err(format!("{what} count {n} exceeds payload size"));
        }
        Ok(n)
    }
    fn done(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn decode_scheme(d: &mut Dec) -> Result<WeightScheme, WireError> {
    let kind = d.u8()?;
    let word = d.u64()?;
    if word == 0 {
        return err("weight scheme word must be positive");
    }
    match kind {
        0 => Ok(WeightScheme::Equal(word)),
        1 => Ok(WeightScheme::DoubleAccumulator(word)),
        2 => {
            let compute = d.u64()?;
            if compute == 0 {
                return err("weight scheme compute weight must be positive");
            }
            Ok(WeightScheme::Custom {
                input: word,
                compute,
            })
        }
        k => err(format!("unknown weight scheme kind {k}")),
    }
}

fn decode_machine(d: &mut Dec) -> Result<MachineSpec, WireError> {
    let procs = d.u16()? as usize;
    if procs == 0 {
        return err("a machine needs at least one processor");
    }
    if procs.saturating_mul(8) > d.buf.len() - d.pos {
        return err(format!("processor count {procs} exceeds payload size"));
    }
    let mut budgets = Vec::with_capacity(procs);
    for _ in 0..procs {
        budgets.push(ProcBudget::new(d.u64()?));
    }
    let comm_price = d.u64()?;
    Ok(MachineSpec::new(budgets).with_comm_price(comm_price))
}

fn decode_graph(d: &mut Dec) -> Result<GraphSpec, WireError> {
    let tag = d.u8()?;
    if tag == 0 {
        let n = d.counted("node", 8)?;
        let mut b = CdagBuilder::with_capacity(n as usize);
        let mut ids = Vec::with_capacity(n as usize);
        for _ in 0..n {
            ids.push(b.unnamed(d.u64()?));
        }
        let m = d.counted("edge", 8)?;
        for _ in 0..m {
            let from = d.u32()?;
            let to = d.u32()?;
            if from >= n || to >= n {
                return err(format!("edge ({from}, {to}) out of range for {n} nodes"));
            }
            b.edge(ids[from as usize], ids[to as usize]);
        }
        let cdag = b
            .build()
            .map_err(|e| WireError(format!("graph rejected: {e}")))?;
        return Ok(GraphSpec::Custom(cdag));
    }
    let a = d.u64()? as usize;
    let b = d.u64()? as usize;
    let workload = match tag {
        1 => Workload::Dwt { n: a, d: b },
        2 => Workload::Mvm { m: a, n: b },
        3 => Workload::Conv { n: a, k: b },
        4 => Workload::Dwt2d { n: a, levels: b },
        5 => Workload::Banded { n: a, bandwidth: b },
        t => return err(format!("unknown graph tag {t}")),
    };
    let scheme = decode_scheme(d)?;
    Ok(GraphSpec::Workload { workload, scheme })
}

fn decode_moves(d: &mut Dec) -> Result<Option<Schedule>, WireError> {
    match d.u8()? {
        0 => Ok(None),
        1 => {
            let count = d.counted("move", 5)?;
            let mut moves = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let tag = match d.u8()? {
                    0 => MoveTag::Load,
                    1 => MoveTag::Store,
                    2 => MoveTag::Compute,
                    3 => MoveTag::Delete,
                    t => return err(format!("unknown move tag {t}")),
                };
                moves.push(tag.with_node(NodeId(d.u32()?)));
            }
            Ok(Some(Schedule::from_moves(moves)))
        }
        p => err(format!("bad schedule-present flag {p}")),
    }
}

/// Decode one payload (a frame body without its length prefix).
pub fn decode_payload(buf: &[u8]) -> Result<Frame, WireError> {
    let mut d = Dec { buf, pos: 0 };
    let magic = d.u16()?;
    if magic != MAGIC {
        return err(format!("bad magic {magic:#06x}"));
    }
    let version = d.u8()?;
    if version != VERSION {
        return err(format!("unsupported version {version}"));
    }
    match d.u8()? {
        0 => {
            let id = d.u64()?;
            let flags = d.u8()?;
            if flags & !3 != 0 {
                return err(format!("unknown request flags {flags:#04x}"));
            }
            let machine = decode_machine(&mut d)?;
            let scheduler = d.str()?;
            let graph = decode_graph(&mut d)?;
            d.done()?;
            Ok(Frame::Request(Request {
                id,
                ask: ScheduleRequest::new(graph, machine, scheduler).with_cost_only(flags & 1 != 0),
                no_cache: flags & 2 != 0,
            }))
        }
        1 => {
            let id = d.u64()?;
            let status = d.u8()?;
            let cache = d.u8()?;
            let cost = d.u64()?;
            let (makespan, comm) = (d.u64()?, d.u64()?);
            let message = d.str()?;
            let schedule = decode_moves(&mut d)?;
            d.done()?;
            let outcome = match status {
                0 => Outcome::Ok {
                    cost,
                    schedule,
                    cache_hit: cache != 0,
                    makespan: (makespan != u64::MAX).then_some(makespan),
                    comm_cost: (comm != u64::MAX).then_some(comm),
                },
                s => {
                    let kind = match s {
                        1 => RejectKind::UnknownScheduler,
                        2 => RejectKind::Unsupported,
                        3 => RejectKind::Infeasible,
                        4 => RejectKind::ValidationFailed,
                        5 => RejectKind::Overloaded,
                        6 => RejectKind::BadRequest,
                        _ => return err(format!("unknown status {s}")),
                    };
                    Outcome::Rejected {
                        kind,
                        message,
                        min_feasible: (kind == RejectKind::Infeasible && cost != u64::MAX)
                            .then_some(cost),
                    }
                }
            };
            Ok(Frame::Response(Response { id, outcome }))
        }
        2 => {
            d.done()?;
            Ok(Frame::Shutdown)
        }
        k => err(format!("unknown frame kind {k}")),
    }
}

// ---------------------------------------------------------------- framing

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame over 4 GiB");
    assert!(len <= MAX_FRAME, "frame over MAX_FRAME");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame.  `Ok(None)` means clean EOF at a frame
/// boundary; mid-frame EOF is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::Cdag;

    fn diamond() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.unnamed(2);
        let l = b.unnamed(3);
        let r = b.unnamed(3);
        let s = b.unnamed(4);
        b.edge(a, l);
        b.edge(a, r);
        b.edge(l, s);
        b.edge(r, s);
        b.build().unwrap()
    }

    #[test]
    fn request_round_trips_both_graph_kinds() {
        let custom = Request {
            id: 42,
            ask: ScheduleRequest::new(GraphSpec::Custom(diamond()), 12, "naive")
                .with_cost_only(true),
            no_cache: true,
        };
        let Frame::Request(back) = decode_payload(&encode_request(&custom)).unwrap() else {
            panic!("expected request frame")
        };
        assert_eq!(back.id, 42);
        assert_eq!(back.ask.budget(), 12);
        assert_eq!(back.ask.scheduler(), "naive");
        assert!(back.ask.is_cost_only());
        assert!(back.no_cache);
        let GraphSpec::Custom(g) = back.ask.graph() else {
            panic!("expected custom graph")
        };
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.weight(NodeId(3)), 4);

        let wl = Request {
            id: 7,
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Mvm { m: 4, n: 6 },
                    scheme: WeightScheme::DoubleAccumulator(16),
                },
                999,
                "mvm-tiling",
            ),
            no_cache: false,
        };
        let Frame::Request(back) = decode_payload(&encode_request(&wl)).unwrap() else {
            panic!("expected request frame")
        };
        let GraphSpec::Workload { workload, scheme } = back.ask.graph() else {
            panic!("expected workload graph")
        };
        assert_eq!(*workload, Workload::Mvm { m: 4, n: 6 });
        assert_eq!(*scheme, WeightScheme::DoubleAccumulator(16));
    }

    #[test]
    fn response_round_trips() {
        let ok = Response {
            id: 9,
            outcome: Outcome::Ok {
                cost: 128,
                schedule: Some(Schedule::from_moves(vec![
                    Move::Load(NodeId(0)),
                    Move::Compute(NodeId(1)),
                    Move::Store(NodeId(1)),
                    Move::Delete(NodeId(0)),
                ])),
                cache_hit: true,
                makespan: None,
                comm_cost: None,
            },
        };
        let Frame::Response(back) = decode_payload(&encode_response(&ok)).unwrap() else {
            panic!("expected response frame")
        };
        let Outcome::Ok {
            cost,
            schedule,
            cache_hit,
            makespan,
            comm_cost,
        } = back.outcome
        else {
            panic!("expected ok")
        };
        assert_eq!((back.id, cost, cache_hit), (9, 128, true));
        assert_eq!((makespan, comm_cost), (None, None));
        assert_eq!(schedule.unwrap().len(), 4);

        let multi = Response {
            id: 11,
            outcome: Outcome::Ok {
                cost: 96,
                schedule: None,
                cache_hit: false,
                makespan: Some(40),
                comm_cost: Some(12),
            },
        };
        let Frame::Response(back) = decode_payload(&encode_response(&multi)).unwrap() else {
            panic!("expected response frame")
        };
        let Outcome::Ok {
            cost,
            makespan,
            comm_cost,
            ..
        } = back.outcome
        else {
            panic!("expected ok")
        };
        assert_eq!((cost, makespan, comm_cost), (96, Some(40), Some(12)));

        let infeasible = Response {
            id: 10,
            outcome: Outcome::Rejected {
                kind: RejectKind::Infeasible,
                message: "too tight".into(),
                min_feasible: Some(64),
            },
        };
        let Frame::Response(back) = decode_payload(&encode_response(&infeasible)).unwrap() else {
            panic!("expected response frame")
        };
        let Outcome::Rejected {
            kind,
            message,
            min_feasible,
        } = back.outcome
        else {
            panic!("expected rejection")
        };
        assert_eq!(kind, RejectKind::Infeasible);
        assert_eq!(message, "too tight");
        assert_eq!(min_feasible, Some(64));
    }

    /// v2 requests carry the full machine: processor count, each budget,
    /// and the communication price all survive the round trip.
    #[test]
    fn multi_machine_requests_round_trip() {
        let req = Request {
            id: 5,
            ask: ScheduleRequest::new(
                GraphSpec::Custom(diamond()),
                MachineSpec::new(vec![ProcBudget::new(24), ProcBudget::new(8)]).with_comm_price(3),
                "comm-list",
            ),
            no_cache: false,
        };
        let Frame::Request(back) = decode_payload(&encode_request(&req)).unwrap() else {
            panic!("expected request frame")
        };
        let m = back.ask.machine();
        assert_eq!(m.num_procs(), 2);
        assert_eq!((m.proc_budget(0), m.proc_budget(1)), (24, 8));
        assert_eq!(m.comm_price(), 3);
        assert!(!m.is_uniprocessor());
    }

    /// A v1 payload (bare budget, no makespan/comm words) is rejected as
    /// an unsupported version, not misread as v2.
    #[test]
    fn v1_frames_are_an_unsupported_version() {
        let mut e = Enc::new(0);
        e.0[2] = 1;
        e.u64(77);
        e.u8(1); // cost_only
        e.u64(160); // v1's bare budget
        e.str("naive");
        assert_eq!(
            decode_payload(&e.0).unwrap_err(),
            WireError("unsupported version 1".into())
        );
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        assert!(decode_payload(&[]).is_err());
        assert!(decode_payload(&[0xff, 0xff, 1, 0]).is_err()); // bad magic
        let mut good = encode_request(&Request {
            id: 1,
            ask: ScheduleRequest::new(GraphSpec::Custom(diamond()), 12, "naive"),
            no_cache: false,
        });
        good[2] = 99; // bad version
        assert!(decode_payload(&good).is_err());
        // Truncated frame body.
        let full = encode_shutdown();
        assert!(matches!(decode_payload(&full), Ok(Frame::Shutdown)));
        assert!(decode_payload(&full[..full.len() - 1]).is_err());
        // Edge out of range.
        let mut e = Enc::new(0);
        e.u64(1);
        e.u8(0);
        e.0.extend_from_slice(&1u16.to_le_bytes()); // one processor
        e.u64(10);
        e.u64(2); // comm price
        e.str("naive");
        e.u8(0); // custom graph
        e.u32(1); // one node
        e.u64(5);
        e.u32(1); // one edge
        e.u32(0);
        e.u32(7); // target out of range
        assert!(decode_payload(&e.0).is_err());
        // A machine with zero processors is rejected at decode time.
        let mut e = Enc::new(0);
        e.u64(1);
        e.u8(0);
        e.0.extend_from_slice(&0u16.to_le_bytes());
        e.u64(2);
        e.str("naive");
        assert!(decode_payload(&e.0).is_err());
    }

    #[test]
    fn framing_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());

        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        let partial = [5u8, 0, 0]; // eof inside length
        assert!(read_frame(&mut &partial[..]).is_err());
    }
}
