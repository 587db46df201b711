//! A zero-dependency HTTP/1.1 front end over the epoch-published snapshot.
//!
//! `std` only: one shared [`TcpListener`] and a small fixed pool of reader
//! threads that each block in `accept` concurrently — the kernel
//! load-balances incoming connections across the pool, so there is no
//! user-space dispatch queue (and no lock) in front of the readers.
//! Each worker owns one epoch [`Reader`](crate::epoch::Reader) slot;
//! answering a query is
//! pin → read → unpin against the immutable [`ServeSnapshot`], never a
//! `Mutex`/`RwLock`.
//!
//! Endpoints (all `GET`, JSON unless noted):
//!
//! | path | answer |
//! |------|--------|
//! | `/candidates?id=N` | the retained partners of profile N |
//! | `/topk?id=N&k=K` | the K heaviest partners of N (default 10) |
//! | `/stats` | corpus + serving counters at the current seq |
//! | `/metrics` | Prometheus text exposition (commit + serve families) |
//!
//! Every snapshot-backed response carries the `seq` it was answered at —
//! one pin per request, so a response never mixes two versions.

use crate::epoch::Epoch;
use crate::metrics::{ServeMetrics, ServeTotals};
use crate::snapshot::ServeSnapshot;
use blast_obs::trace::JsonObject;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a reader thread needs to answer queries.
#[derive(Clone)]
pub struct ServeState {
    /// The epoch the writer publishes snapshots into.
    pub epoch: Arc<Epoch<ServeSnapshot>>,
    /// Shared serve-side metric handles (lock-free recording).
    pub metrics: ServeMetrics,
    /// Whether the writer's ingest has drained (surfaced in `/stats`).
    pub ingest_done: Arc<AtomicBool>,
}

/// A running server: the listener address plus the worker pool handles.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// `readers` worker threads. Fails when the bind fails or when more
    /// epoch reader slots are requested than exist.
    pub fn start(state: ServeState, addr: &str, readers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let listener = Arc::new(listener);
        let shutdown = Arc::new(AtomicBool::new(false));
        let readers = readers.max(1);
        let mut workers = Vec::with_capacity(readers);
        for _ in 0..readers {
            let reader = state
                .epoch
                .register()
                .ok_or_else(|| std::io::Error::other("epoch reader slots exhausted"))?;
            let listener = Arc::clone(&listener);
            let shutdown = Arc::clone(&shutdown);
            let state = state.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&listener, &shutdown, &state, reader);
            }));
        }
        Ok(Server {
            addr: local,
            shutdown,
            workers,
        })
    }

    /// The bound address (the ephemeral port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes every worker, and joins the pool.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // One wake-up connection per worker: each blocked `accept` returns
        // once, sees the flag, and exits.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("readers", &self.workers.len())
            .finish()
    }
}

/// One worker: accept → serve the connection (keep-alive) → repeat.
fn worker_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    state: &ServeState,
    mut reader: crate::epoch::Reader<ServeSnapshot>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = serve_connection(stream, shutdown, state, &mut reader);
    }
}

/// Serves one keep-alive connection until the peer closes, asks to close,
/// or the server shuts down.
fn serve_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    state: &ServeState,
    reader: &mut crate::epoch::Reader<ServeSnapshot>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut input = BufReader::new(stream.try_clone()?);
    let mut output = stream;
    loop {
        let request = match read_request(&mut input, shutdown) {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(()),
            Err(e) if would_block(&e) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(_) => return Ok(()),
        };
        let response = route(&request, state, reader);
        write_response(&mut output, &response)?;
        if request.close {
            return Ok(());
        }
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A parsed request line (the only parts this server needs).
struct Request {
    method: String,
    path: String,
    query: String,
    close: bool,
}

/// Reads one request head; `Ok(None)` on a cleanly closed connection.
fn read_request(
    input: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if would_block(&e) && !shutdown.load(Ordering::SeqCst) => continue,
            Err(e) => return Err(e),
        }
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    // Drain headers until the blank line; keep-alive is HTTP/1.1's default.
    let mut close = false;
    loop {
        let mut header = String::new();
        match input.read_line(&mut header) {
            Ok(0) => return Ok(None),
            Ok(_) => {
                let h = header.trim();
                if h.is_empty() {
                    break;
                }
                if let Some((name, value)) = h.split_once(':') {
                    if name.eq_ignore_ascii_case("connection")
                        && value.trim().eq_ignore_ascii_case("close")
                    {
                        close = true;
                    }
                }
            }
            Err(e) if would_block(&e) && !shutdown.load(Ordering::SeqCst) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(Request {
        method,
        path,
        query,
        close,
    }))
}

/// An HTTP response about to be written.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            JsonObject::new().field_str("error", message).finish(),
        )
    }
}

fn write_response(output: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let reason = match r.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        output,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
        r.status,
        reason,
        r.content_type,
        r.body.len(),
        r.body
    )?;
    output.flush()
}

/// The first `name=` parameter of a query string, percent-decoding not
/// included (ids and counts are plain integers).
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Dispatches one request. The snapshot-backed endpoints pin exactly once.
fn route(
    request: &Request,
    state: &ServeState,
    reader: &mut crate::epoch::Reader<ServeSnapshot>,
) -> Response {
    if request.method != "GET" {
        return Response::error(405, "only GET is supported");
    }
    match request.path.as_str() {
        "/candidates" | "/topk" => {
            let t0 = Instant::now();
            let Some(id) = query_param(&request.query, "id").and_then(|v| v.parse::<u32>().ok())
            else {
                return Response::error(400, "missing or invalid id parameter");
            };
            let top_k = (request.path == "/topk").then(|| {
                query_param(&request.query, "k")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(10)
            });
            let guard = reader.pin();
            let response = match guard.candidates(id) {
                None => Response::error(404, "unknown profile id"),
                Some(row) => {
                    let listed: Vec<crate::snapshot::Candidate> = match top_k {
                        Some(k) => guard.top_k(id, k),
                        None => row.to_vec(),
                    };
                    let mut items = String::from("[");
                    for (i, c) in listed.iter().enumerate() {
                        if i > 0 {
                            items.push_str(", ");
                        }
                        items.push_str(
                            &JsonObject::new()
                                .field_u64("id", u64::from(c.id))
                                .field_f64("weight", c.weight)
                                .finish(),
                        );
                    }
                    items.push(']');
                    let mut obj = JsonObject::new()
                        .field_u64("seq", guard.seq())
                        .field_u64("id", u64::from(id))
                        .field_bool("live", guard.is_live(id));
                    if let Some(ext) = guard.external_id(id) {
                        obj = obj.field_str("external_id", ext);
                    }
                    let body = obj
                        .field_u64("count", listed.len() as u64)
                        .field_raw("candidates", &items)
                        .finish();
                    Response::json(200, body)
                }
            };
            drop(guard);
            state.metrics.record_query(t0.elapsed().as_secs_f64());
            response
        }
        "/stats" => {
            let guard = reader.pin();
            let (seq, nodes, live, pairs, blocks) = (
                guard.seq(),
                guard.nodes(),
                guard.live(),
                guard.pairs(),
                guard.blocks(),
            );
            drop(guard);
            let totals = ServeTotals::from_snapshot(&state.metrics.snapshot());
            let body = JsonObject::new()
                .field_u64("seq", seq)
                .field_u64("nodes", u64::from(nodes))
                .field_u64("live", u64::from(live))
                .field_u64("pairs", pairs)
                .field_u64("blocks", blocks)
                .field_u64("queries", totals.queries)
                .field_u64("snapshot_swaps", totals.snapshot_swaps)
                .field_i64("stale_epochs", totals.stale_epochs)
                .field_f64("read_p50_secs", totals.read_p50_secs)
                .field_f64("read_p99_secs", totals.read_p99_secs)
                .field_bool("ingest_done", state.ingest_done.load(Ordering::SeqCst))
                .finish();
            Response::json(200, body)
        }
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: state.metrics.snapshot().encode_text(),
        },
        _ => Response::error(404, "unknown path"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CommitUpdate, SnapshotBuilder};

    fn test_state() -> ServeState {
        let mut builder = SnapshotBuilder::new();
        let (snap, _) = builder.apply(&CommitUpdate {
            seq: 1,
            upserts: vec![
                (0, Arc::from("a")),
                (1, Arc::from("b")),
                (2, Arc::from("c")),
            ],
            added: vec![(0, 1, 2.0), (0, 2, 5.0)],
            blocks: 3,
            ..CommitUpdate::default()
        });
        ServeState {
            epoch: Arc::new(Epoch::new(snap)),
            metrics: ServeMetrics::new(),
            ingest_done: Arc::new(AtomicBool::new(true)),
        }
    }

    /// One blocking HTTP exchange against a running server.
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .expect("request");
        let mut raw = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut raw).expect("response");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn endpoints_roundtrip() {
        let state = test_state();
        let server = Server::start(state, "127.0.0.1:0", 2).expect("bind");
        let addr = server.addr();

        let (status, body) = get(addr, "/candidates?id=0");
        assert_eq!(status, 200);
        assert!(blast_obs::trace::is_valid_json(&body), "{body}");
        assert!(body.contains("\"seq\": 1"), "{body}");
        assert!(body.contains("\"count\": 2"), "{body}");
        assert!(body.contains("\"external_id\": \"a\""), "{body}");

        let (status, body) = get(addr, "/topk?id=0&k=1");
        assert_eq!(status, 200);
        assert!(body.contains("\"count\": 1"), "{body}");
        assert!(body.contains("\"id\": 2"), "heaviest partner first: {body}");

        let (status, body) = get(addr, "/stats");
        assert_eq!(status, 200);
        assert!(blast_obs::trace::is_valid_json(&body), "{body}");
        assert!(body.contains("\"pairs\": 2"), "{body}");
        assert!(body.contains("\"ingest_done\": true"), "{body}");

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("blast_serve_queries"), "{body}");

        let (status, _) = get(addr, "/candidates?id=99");
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/candidates");
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let state = test_state();
        let server = Server::start(state, "127.0.0.1:0", 1).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut input = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..3 {
            write!(stream, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            // Read the head, then exactly Content-Length body bytes.
            let mut length = 0usize;
            loop {
                let mut line = String::new();
                input.read_line(&mut line).expect("header");
                let line = line.trim();
                if line.is_empty() {
                    break;
                }
                if let Some((k, v)) = line.split_once(':') {
                    if k.eq_ignore_ascii_case("content-length") {
                        length = v.trim().parse().unwrap();
                    }
                }
            }
            let mut body = vec![0u8; length];
            use std::io::Read as _;
            input.read_exact(&mut body).expect("body");
            assert!(blast_obs::trace::is_valid_json(
                std::str::from_utf8(&body).unwrap()
            ));
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_the_pool() {
        let server = Server::start(test_state(), "127.0.0.1:0", 4).expect("bind");
        let addr = server.addr();
        server.shutdown();
        // The listener is gone: a fresh connection must fail (or be
        // refused once the socket drains).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect(addr).is_err(), "listener closed");
    }
}
