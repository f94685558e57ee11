//! The TCP server: snapshot-backed query handlers, bounded-channel
//! ingest, an explicitly-driven round engine.
//!
//! Division of labour (see `docs/SERVING.md`):
//!
//! * **Connection handlers** (one OS thread each; a connection whose
//!   thread cannot be spawned is dropped, and accepting carries on)
//!   answer queries straight from the shared [`SnapshotCell`] — they
//!   clone an `Arc` per request and never touch the engine, so readers
//!   cannot block a round and a round cannot tear a read. Ingest
//!   submissions go into the bounded [`std::sync::mpsc::sync_channel`] via
//!   `try_send`: a full channel answers [`Response::Busy`] — typed
//!   shedding, never blocking the handler, never dropping silently
//!   (every shed is counted into the next round's
//!   [`RoundStats::ingest_shed`]).
//! * **The round engine** stays on the caller's thread:
//!   [`Server::run_round`] drains the ingest channel into the
//!   [`ServeSession`] (which sorts by `(source, seq, ...)` — arrival
//!   order cannot affect the run), advances one round, and publishes
//!   the round's snapshot. The `dg_serve` binary calls it in a loop;
//!   tests call it while readers hammer the query endpoints.

use crate::proto::{read_request, write_response, Request, Response};
use dg_graph::NodeId;
use dg_sim::rounds::RoundStats;
use dg_sim::session::SessionError;
use dg_sim::{IngestError, IngestReport, RunConfig, ServeSession};
use dg_store::wire::WireError;
use dg_trust::SnapshotCell;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// The largest `k` a `TopK` query may ask for: a larger one is answered
/// with [`Response::Error`], so one small frame cannot buy an `N`-entry
/// response (12 bytes per entry; this caps it at 48 KiB).
pub(crate) const MAX_TOP_K: u32 = 4096;

/// How the server listens and sheds.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Ingest channel capacity: submissions beyond this between two
    /// rounds are answered [`Response::Busy`].
    pub ingest_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            ingest_capacity: 1024,
        }
    }
}

/// Starting or driving the server failed.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// The underlying session rejected the config or a round failed.
    Session(SessionError),
    /// The session refused a report a connection handler had queued.
    Ingest(IngestError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Session(e) => write!(f, "session error: {e}"),
            ServeError::Ingest(e) => write!(f, "queued ingest report refused: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

/// A running reputation service (see the module docs).
pub struct Server {
    session: ServeSession,
    ingest_rx: Receiver<IngestReport>,
    /// Kept so the channel never reports "all senders dropped" while
    /// the server lives; handlers clone it.
    _ingest_tx: SyncSender<IngestReport>,
    shed: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Build the session, bind the listener and start accepting
    /// connections. The engine does **not** free-run: drive it with
    /// [`run_round`](Self::run_round). Failing to start the acceptor
    /// thread is a [`ServeError::Io`].
    pub fn start(config: RunConfig, opts: ServeOptions) -> Result<Self, ServeError> {
        let session = ServeSession::new(config)?;
        let nodes = session.session().config().nodes;
        let listener = TcpListener::bind(&opts.addr)?;
        // Non-blocking accept so shutdown is a flag check away.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (ingest_tx, ingest_rx) = sync_channel(opts.ingest_capacity.max(1));
        let shed = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let cell = session.snapshots();

        let acceptor = {
            let tx = ingest_tx.clone();
            let shed = Arc::clone(&shed);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("dg-serve-accept".into())
                .spawn(move || accept_loop(listener, cell, tx, shed, shutdown, nodes))?
        };

        Ok(Self {
            session,
            ingest_rx,
            _ingest_tx: ingest_tx,
            shed,
            shutdown,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped session (stats, config, round).
    pub fn session(&self) -> &ServeSession {
        &self.session
    }

    /// The snapshot cell the query handlers answer from.
    pub fn snapshots(&self) -> Arc<SnapshotCell> {
        self.session.snapshots()
    }

    /// Drain the ingest channel into the session and run one round
    /// (sorting and folding the drained reports, stamping the ingest
    /// counters, publishing the round's snapshot).
    pub fn run_round(&mut self) -> Result<&RoundStats, ServeError> {
        while let Ok(report) = self.ingest_rx.try_recv() {
            // Handlers queue only what `IngestReport::validate` passed,
            // the check the session repeats.
            self.session.ingest(report).map_err(ServeError::Ingest)?;
        }
        self.session.note_shed(self.shed.swap(0, Ordering::AcqRel));
        Ok(self.session.run_round()?)
    }

    /// Run rounds until `round` rounds have completed.
    pub fn run_to(&mut self, round: usize) -> Result<(), ServeError> {
        while self.session.round() < round {
            self.run_round()?;
        }
        Ok(())
    }

    /// Stop accepting connections and join the acceptor. Open
    /// connections finish on their own threads when their clients
    /// disconnect.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    cell: Arc<SnapshotCell>,
    tx: SyncSender<IngestReport>,
    shed: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    nodes: usize,
) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let cell = Arc::clone(&cell);
                let tx = tx.clone();
                let shed = Arc::clone(&shed);
                // A failed spawn (thread exhaustion) drops the closure and
                // with it this connection; accepting carries on.
                let _ = std::thread::Builder::new()
                    .name("dg-serve-conn".into())
                    .spawn(move || handle_connection(stream, cell, tx, shed, nodes));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Serve one connection until EOF or a framing error. Responses are
/// written through a buffer that flushes only when no further request
/// is already buffered, so pipelined clients pay one syscall per
/// batch, not per query.
fn handle_connection(
    stream: TcpStream,
    cell: Arc<SnapshotCell>,
    tx: SyncSender<IngestReport>,
    shed: Arc<AtomicU64>,
    nodes: usize,
) -> std::io::Result<()> {
    // The listener was non-blocking; the handler wants blocking io.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let response = match read_request(&mut reader) {
            Ok(request) => respond(&request, &cell, &tx, &shed, nodes),
            Err(WireError::Io(_)) => break, // EOF / reset: client left.
            Err(e) => {
                // Malformed frame: answer once, then drop the
                // connection — framing is unrecoverable.
                let _ = write_response(
                    &mut writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                let _ = writer.flush();
                break;
            }
        };
        if write_response(&mut writer, &response).is_err() {
            break;
        }
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
    }
    Ok(())
}

fn respond(
    request: &Request,
    cell: &SnapshotCell,
    tx: &SyncSender<IngestReport>,
    shed: &AtomicU64,
    nodes: usize,
) -> Response {
    match *request {
        Request::Reputation { subject } => {
            let snap = cell.load();
            if subject as usize >= nodes {
                return Response::Error {
                    message: format!("unknown node {subject}"),
                };
            }
            Response::Reputation {
                round: snap.round(),
                reputation: snap.reputation(NodeId(subject)),
            }
        }
        Request::TopK { k } => {
            if k > MAX_TOP_K {
                return Response::Error {
                    message: format!("top-k of {k} exceeds the cap of {MAX_TOP_K}"),
                };
            }
            let snap = cell.load();
            Response::TopK {
                round: snap.round(),
                entries: snap
                    .top_k(k as usize)
                    .into_iter()
                    .map(|(id, rep)| (id.0, rep))
                    .collect(),
            }
        }
        Request::Percentile { p } => {
            let snap = cell.load();
            Response::Percentile {
                round: snap.round(),
                value: snap.percentile(p),
            }
        }
        Request::Ingest {
            source,
            seq,
            requester,
            provider,
            outcome,
        } => {
            let report = IngestReport {
                from: source,
                seq,
                requester: NodeId(requester),
                provider: NodeId(provider),
                outcome,
            };
            if let Err(e) = report.validate(nodes) {
                return Response::Error {
                    message: e.to_string(),
                };
            }
            match tx.try_send(report) {
                Ok(()) => Response::IngestAccepted {
                    round: cell.load().round(),
                },
                Err(TrySendError::Full(_)) => {
                    shed.fetch_add(1, Ordering::AcqRel);
                    Response::Busy
                }
                Err(TrySendError::Disconnected(_)) => Response::Error {
                    message: "server shutting down".into(),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_trust::ReputationSnapshot;

    fn top_k(cell: &SnapshotCell, k: u32) -> Response {
        let (tx, _rx) = sync_channel(1);
        respond(&Request::TopK { k }, cell, &tx, &AtomicU64::new(0), 8)
    }

    #[test]
    fn top_k_above_the_cap_is_an_error_frame() {
        let cell = SnapshotCell::new(8);
        cell.publish(ReputationSnapshot::build(3, vec![Some(0.5); 8]));
        match top_k(&cell, MAX_TOP_K) {
            Response::TopK { round, entries } => assert_eq!((round, entries.len()), (3, 8)),
            other => panic!("k at the cap: {other:?}"),
        }
        assert_eq!(
            top_k(&cell, MAX_TOP_K + 1),
            Response::Error {
                message: format!("top-k of {} exceeds the cap of 4096", MAX_TOP_K + 1),
            }
        );
        assert!(matches!(top_k(&cell, u32::MAX), Response::Error { .. }));
    }
}
