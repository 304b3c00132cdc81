//! The serving layer: bounded queue, worker pool, transports.
//!
//! [`Server`] owns a pool of worker threads fed by a bounded
//! `sync_channel`.  Submission never blocks: when the queue is full the
//! request is *shed* — an [`Outcome::Rejected`]/`Overloaded` response is
//! delivered immediately and the `service_shed` counter ticks.  Bounding
//! the queue is the backpressure policy: a burst beyond
//! `queue_depth + workers` requests degrades crisply (typed shed
//! responses the client can retry) instead of accumulating unbounded
//! latency.
//!
//! Transports are thin: [`serve_stream`] speaks the length-prefixed wire
//! format over any `Read`/`Write` pair (stdin/stdout for `pebblyn serve`,
//! one accepted unix-socket connection in [`serve_unix`]).  A reader
//! thread decodes and submits as fast as frames arrive — a pipelining
//! client can therefore actually fill the queue — while the transport
//! writes responses back *in request order*, so clients may simply read
//! answers sequentially.

use crate::service::{Request, Response, Service};
use crate::wire::{self, Frame};
use pebblyn_telemetry::{self as telemetry, Counter, Gauge};
use std::io::{Read, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded queue depth; a full queue sheds load.
    pub queue_depth: usize,
    /// Worker threads; `0` sizes from the machine (see
    /// `pebblyn_engine::thread_count`).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 64,
            workers: 0,
        }
    }
}

struct Job {
    req: Request,
    reply: mpsc::Sender<Response>,
}

/// A worker pool over one [`Service`].
pub struct Server {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    queued: Arc<AtomicU64>,
}

impl Server {
    /// Start the worker pool.
    pub fn start(service: Arc<Service>, cfg: &ServerConfig) -> Server {
        let workers = if cfg.workers == 0 {
            pebblyn_engine::par::thread_count(usize::MAX)
        } else {
            cfg.workers
        };
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_depth.max(1));
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let queued = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&service);
                let queued = Arc::clone(&queued);
                std::thread::Builder::new()
                    .name(format!("pebblyn-svc-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = rx.lock().unwrap();
                            guard.recv()
                        };
                        let Ok(job) = job else { return };
                        queued.fetch_sub(1, Ordering::Relaxed);
                        let resp = service.handle(job.req);
                        // A dropped receiver (client gone) is not an error.
                        let _ = job.reply.send(resp);
                    })
                    .expect("spawn service worker")
            })
            .collect();
        Server {
            tx: Some(tx),
            workers: handles,
            queued,
        }
    }

    /// Submit a request without blocking.  The returned channel yields
    /// exactly one [`Response`]: the worker's answer, or an immediate
    /// `Overloaded` shed when the queue is full.
    pub fn submit(&self, req: Request) -> Receiver<Response> {
        let (reply, rx) = mpsc::channel();
        let id = req.id;
        let tx = self.tx.as_ref().expect("server already shut down");
        // Count the slot *before* enqueueing: a worker may dequeue (and
        // decrement) before try_send even returns.
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        match tx.try_send(Job {
            req,
            reply: reply.clone(),
        }) {
            Ok(()) => telemetry::gauge_max(Gauge::ServiceQueueDepthPeak, depth),
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                telemetry::incr(Counter::ServiceShed);
                let _ = reply.send(Response::overloaded(id));
            }
        }
        rx
    }

    /// Stop accepting, drain the queue, and join the workers.
    pub fn shutdown(mut self) {
        self.tx.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.tx.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Serve one framed connection until EOF or a shutdown frame.
///
/// Returns `true` if the client requested daemon shutdown.  Responses are
/// written in request arrival order; submission happens on a dedicated
/// thread so a pipelining client exercises the queue (and can be shed).
pub fn serve_stream(
    server: &Server,
    input: impl Read + Send,
    output: &mut impl Write,
) -> std::io::Result<bool> {
    let (pending_tx, pending_rx) = mpsc::channel::<Receiver<Response>>();
    let result = std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> std::io::Result<bool> {
            let mut input = input;
            let mut shutdown = false;
            while let Some(payload) = wire::read_frame(&mut input)? {
                match wire::decode_payload(&payload) {
                    Ok(Frame::Request(req)) => {
                        if pending_tx.send(server.submit(req)).is_err() {
                            break;
                        }
                    }
                    Ok(Frame::Shutdown) => {
                        shutdown = true;
                        break;
                    }
                    Ok(Frame::Response(_)) => {
                        // A client sending responses is confused; answer
                        // with a malformed-input rejection on id 0.
                        let (tx, rx) = mpsc::channel();
                        let _ = tx.send(Response::rejected(
                            0,
                            crate::service::RejectKind::BadRequest,
                            "unexpected response frame",
                        ));
                        if pending_tx.send(rx).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let (tx, rx) = mpsc::channel();
                        let _ = tx.send(Response::rejected(
                            0,
                            crate::service::RejectKind::BadRequest,
                            e.to_string(),
                        ));
                        if pending_tx.send(rx).is_err() {
                            break;
                        }
                    }
                }
            }
            drop(pending_tx);
            Ok(shutdown)
        });
        for rx in pending_rx {
            let Ok(resp) = rx.recv() else { continue };
            wire::write_frame(output, &wire::encode_response(&resp))?;
        }
        reader.join().expect("connection reader panicked")
    })?;
    if result {
        // Acknowledge so the client can await a clean stop.
        wire::write_frame(output, &wire::encode_shutdown())?;
    }
    Ok(result)
}

/// Serve a unix socket until a client sends a shutdown frame.
///
/// Connections are handled one at a time in accept order — the worker
/// pool parallelism lives *behind* the queue, and a client such as the
/// perfbench harness drives a single connection — which keeps the
/// transport free of per-connection thread management.
pub fn serve_unix(server: &Server, path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let stop = AtomicBool::new(false);
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let mut output = stream.try_clone()?;
                match serve_stream(server, stream, &mut output) {
                    Ok(true) => stop.store(true, Ordering::Relaxed),
                    Ok(false) => {}
                    // A dropped connection must not kill the daemon.
                    Err(_) => {}
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{GraphSpec, Outcome, RejectKind, ServiceConfig};
    use pebblyn_core::ScheduleRequest;
    use pebblyn_graphs::{WeightScheme, Workload};

    fn request(id: u64) -> Request {
        Request {
            id,
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Dwt { n: 16, d: 2 },
                    scheme: WeightScheme::Equal(16),
                },
                256,
                "dwt-opt",
            ),
            no_cache: false,
        }
    }

    #[test]
    fn pool_answers_and_second_request_hits_cache() {
        let server = Server::start(
            Arc::new(Service::new(&ServiceConfig::default())),
            &ServerConfig::default(),
        );
        let first = server.submit(request(1)).recv().unwrap();
        let second = server.submit(request(2)).recv().unwrap();
        let Outcome::Ok { cache_hit: h1, .. } = first.outcome else {
            panic!("expected ok")
        };
        let Outcome::Ok { cache_hit: h2, .. } = second.outcome else {
            panic!("expected ok")
        };
        assert!(!h1);
        assert!(h2);
        server.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_typed_response() {
        // One worker, depth-1 queue, and a worker stalled on a slow MVM
        // solve: subsequent submissions must shed, not block.
        let server = Server::start(
            Arc::new(Service::new(&ServiceConfig { cache: false })),
            &ServerConfig {
                queue_depth: 1,
                workers: 1,
            },
        );
        let slow = |id| Request {
            id,
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Mvm { m: 48, n: 48 },
                    scheme: WeightScheme::Equal(16),
                },
                16 * 256,
                "mvm-tiling",
            ),
            no_cache: true,
        };
        // Submit a burst far faster than one worker can drain: with one
        // slot processing and one queued, the rest must shed immediately.
        let receivers: Vec<_> = (0..64).map(|id| server.submit(slow(id))).collect();
        let mut shed = 0;
        for rx in receivers {
            let resp = rx.recv().unwrap();
            match resp.outcome {
                Outcome::Rejected { kind, .. } => {
                    assert_eq!(kind, RejectKind::Overloaded);
                    shed += 1;
                }
                Outcome::Ok { .. } => {}
            }
        }
        assert!(shed > 0, "expected at least one shed at depth 1");
        server.shutdown();
    }

    /// A custom 2-node graph weighted 2^63 bits per node sums past
    /// `u64::MAX`: the frame's graph build rejects it, so the daemon
    /// answers bad-request and no scheduler ever sees wrapped weights.
    #[test]
    fn custom_graph_with_overflowing_weights_is_a_bad_request() {
        let (wx, wy) = (0x1111_1111_u64, 0x2222_2222_u64);
        let mut b = pebblyn_core::CdagBuilder::new();
        let x = b.unnamed(wx);
        let y = b.unnamed(wy);
        b.edge(x, y);
        let req = Request {
            id: 4,
            ask: ScheduleRequest::new(GraphSpec::Custom(b.build().unwrap()), 64, "naive"),
            no_cache: false,
        };
        // Re-weight both nodes to 2^63 in the encoded frame.
        let mut payload = wire::encode_request(&req);
        for w in [wx, wy] {
            let at = payload
                .windows(8)
                .position(|win| win == w.to_le_bytes())
                .expect("weight is on the wire");
            payload[at..at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        }
        let mut input = Vec::new();
        wire::write_frame(&mut input, &payload).unwrap();

        let server = Server::start(
            Arc::new(Service::new(&ServiceConfig::default())),
            &ServerConfig::default(),
        );
        let mut output = Vec::new();
        serve_stream(&server, &input[..], &mut output).unwrap();
        let payload = wire::read_frame(&mut &output[..]).unwrap().unwrap();
        let Ok(Frame::Response(resp)) = wire::decode_payload(&payload) else {
            panic!("expected a response frame")
        };
        let Outcome::Rejected { kind, message, .. } = resp.outcome else {
            panic!("expected rejection")
        };
        assert_eq!(kind, RejectKind::BadRequest);
        assert!(message.contains("2^64"), "names the overflow: {message}");
        server.shutdown();
    }

    /// A 69-byte frame asking for `MVM(2^62, 2)` decodes cleanly, but its
    /// node count overflows; `MVM(2^30, 2)` fits a `usize` but is far over
    /// the frame's item cap.  Both are bad requests answered under their
    /// own ids before anything is built, and the pool still answers the
    /// valid request sent after them.
    #[test]
    fn oversized_workload_specs_are_bad_requests() {
        let mvm = |id, m| Request {
            id,
            ask: ScheduleRequest::new(
                GraphSpec::Workload {
                    workload: Workload::Mvm { m, n: 2 },
                    scheme: WeightScheme::Equal(16),
                },
                16 * 256,
                "mvm-tiling",
            ),
            no_cache: false,
        };
        let mut input = Vec::new();
        let overflowing = wire::encode_request(&mvm(1, 1 << 62));
        assert_eq!(overflowing.len(), 69);
        wire::write_frame(&mut input, &overflowing).unwrap();
        wire::write_frame(&mut input, &wire::encode_request(&mvm(2, 1 << 30))).unwrap();
        wire::write_frame(&mut input, &wire::encode_request(&request(3))).unwrap();

        let server = Server::start(
            Arc::new(Service::new(&ServiceConfig::default())),
            &ServerConfig::default(),
        );
        let mut output = Vec::new();
        serve_stream(&server, &input[..], &mut output).unwrap();
        server.shutdown();

        let mut r = &output[..];
        let mut responses = Vec::new();
        while let Some(payload) = wire::read_frame(&mut r).unwrap() {
            let Ok(Frame::Response(resp)) = wire::decode_payload(&payload) else {
                panic!("expected a response frame")
            };
            responses.push(resp);
        }
        assert_eq!(responses.len(), 3, "every frame is answered");
        for (resp, id) in responses[..2].iter().zip([1, 2]) {
            assert_eq!(resp.id, id);
            let Outcome::Rejected { kind, message, .. } = &resp.outcome else {
                panic!("expected rejection, got {:?}", resp.outcome)
            };
            assert_eq!(*kind, RejectKind::BadRequest, "{message}");
        }
        assert_eq!(responses[2].id, 3);
        assert!(matches!(responses[2].outcome, Outcome::Ok { .. }));
    }

    #[test]
    fn stream_serves_frames_in_order_and_honors_shutdown() {
        let server = Server::start(
            Arc::new(Service::new(&ServiceConfig::default())),
            &ServerConfig::default(),
        );
        let mut input = Vec::new();
        for id in 0..3 {
            wire::write_frame(&mut input, &wire::encode_request(&request(id))).unwrap();
        }
        wire::write_frame(&mut input, b"garbage").unwrap();
        wire::write_frame(&mut input, &wire::encode_shutdown()).unwrap();

        let mut output = Vec::new();
        let shutdown = serve_stream(&server, &input[..], &mut output).unwrap();
        assert!(shutdown);

        let mut r = &output[..];
        let mut responses = Vec::new();
        while let Some(payload) = wire::read_frame(&mut r).unwrap() {
            responses.push(wire::decode_payload(&payload).unwrap());
        }
        assert_eq!(responses.len(), 5); // 3 answers + 1 bad-request + ack
        for (i, frame) in responses.iter().take(3).enumerate() {
            let Frame::Response(resp) = frame else {
                panic!("expected response")
            };
            assert_eq!(resp.id, i as u64);
            assert!(matches!(resp.outcome, Outcome::Ok { .. }));
        }
        let Frame::Response(bad) = &responses[3] else {
            panic!("expected response")
        };
        assert!(matches!(
            bad.outcome,
            Outcome::Rejected {
                kind: RejectKind::BadRequest,
                ..
            }
        ));
        assert!(matches!(responses[4], Frame::Shutdown));
        server.shutdown();
    }
}
