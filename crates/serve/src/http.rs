//! A zero-dependency HTTP/1.1 front end over the published snapshot.
//!
//! `std` only: one shared [`TcpListener`] and a small fixed pool of worker
//! threads that each block in `accept` concurrently — the kernel
//! load-balances incoming connections across the pool, so there is no
//! user-space dispatch queue in front of the workers. Answering a query
//! is one [`Epoch::load`] — a shared lock held for one `Arc` clone — and
//! then plain reads of the immutable [`ServeSnapshot`] the `Arc` keeps
//! alive.
//!
//! A request head is bounded: a request line over 8 KiB is answered
//! `414`, a head over 16 KiB or 64 header lines `431`, and the connection
//! is closed. It is also bounded in time: a connection that sends no byte
//! of a next request within 5 s (`IDLE_DEADLINE`) is closed quietly, and a head
//! begun but not finished by then is answered `408` and closed, so a silent
//! or trickling peer cannot hold a worker.
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
//! one load per request, so a response never mixes two versions.

use crate::epoch::Epoch;
use crate::metrics::{ServeMetrics, ServeTotals};
use crate::snapshot::ServeSnapshot;
use blast_obs::trace::JsonObject;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest request line answered, in bytes; a longer one gets `414`.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Largest request head (request line + headers), in bytes, and the most
/// header lines; past either the request gets `431`.
const MAX_HEAD_BYTES: usize = 16 * 1024;
const MAX_HEADERS: usize = 64;
/// How long a connection may take to deliver one whole request head,
/// measured from when the worker starts waiting for it.
const IDLE_DEADLINE: Duration = Duration::from_secs(5);

/// Everything a worker thread needs to answer queries.
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
    /// `readers` worker threads (at least one). Fails when the bind fails.
    pub fn start(state: ServeState, addr: &str, readers: usize) -> std::io::Result<Server> {
        Self::start_with(state, addr, readers, IDLE_DEADLINE)
    }

    /// [`Server::start`] with the idle deadline spelled out (tests shorten it).
    fn start_with(
        state: ServeState,
        addr: &str,
        readers: usize,
        idle: Duration,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let listener = Arc::new(listener);
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..readers.max(1))
            .map(|_| {
                let listener = Arc::clone(&listener);
                let shutdown = Arc::clone(&shutdown);
                let state = state.clone();
                std::thread::spawn(move || worker_loop(&listener, &shutdown, &state, idle))
            })
            .collect();
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
fn worker_loop(listener: &TcpListener, shutdown: &AtomicBool, state: &ServeState, idle: Duration) {
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
        let _ = serve_connection(stream, shutdown, state, idle);
    }
}

/// Serves one keep-alive connection until the peer closes, asks to close,
/// goes `idle` without a whole next head, or the server shuts down.
fn serve_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    state: &ServeState,
    idle: Duration,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut input = BufReader::new(stream.try_clone()?);
    let mut output = stream;
    loop {
        let request = match read_request(&mut input, shutdown, idle) {
            Ok(Head::Request(r)) => r,
            // Past a cap or the deadline nothing says where the next
            // request would start: answer and close.
            Ok(Head::Refused(status)) => {
                let why = match status {
                    408 => "request head not finished in time",
                    _ => "request head too large",
                };
                return write_response(&mut output, &Response::error(status, why), true);
            }
            Ok(Head::Closed) | Err(_) => return Ok(()),
        };
        let response = route(&request, state);
        write_response(&mut output, &response, request.close)?;
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

/// A parsed request head (the only parts this server needs).
struct Request {
    method: String,
    path: String,
    query: String,
    close: bool,
}

/// What reading one request head came to.
enum Head {
    Request(Request),
    /// The peer closed the connection before a whole head arrived.
    Closed,
    /// The head broke a cap or the idle deadline; the status that says which.
    Refused(u16),
}

/// Reads through the next `\n` into `line`. A read timeout retries with
/// what already arrived still in `line`, so a slow client loses nothing;
/// it becomes an error once the server shuts down. `Some` is why there is
/// no whole line: it would pass `cap` bytes (`over_cap` is the status for
/// that), `deadline` passed first (`408`; checked before every read, so a
/// peer trickling bytes is bounded like a silent one), or the peer closed.
fn read_line_capped(
    input: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
    deadline: Instant,
    line: &mut Vec<u8>,
    cap: usize,
    over_cap: u16,
) -> std::io::Result<Option<Head>> {
    loop {
        if Instant::now() >= deadline {
            return Ok(Some(Head::Refused(408)));
        }
        let buf = match input.fill_buf() {
            Err(e) if would_block(&e) && !shutdown.load(Ordering::SeqCst) => continue,
            Err(e) => return Err(e),
            Ok([]) => return Ok(Some(Head::Closed)),
            Ok(buf) => buf,
        };
        // One byte past the cap tells "too long" from "closed early".
        let room = (cap + 1 - line.len()).min(buf.len());
        let newline = buf[..room].iter().position(|&b| b == b'\n');
        let taken = newline.map_or(room, |i| i + 1);
        line.extend_from_slice(&buf[..taken]);
        input.consume(taken);
        if line.len() > cap {
            return Ok(Some(Head::Refused(over_cap)));
        }
        if newline.is_some() {
            return Ok(None);
        }
    }
}

/// Reads one request head within the module's caps, `idle` from now at most.
fn read_request(
    input: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
    idle: Duration,
) -> std::io::Result<Head> {
    let deadline = Instant::now() + idle;
    let mut line = Vec::new();
    if let Some(end) =
        read_line_capped(input, shutdown, deadline, &mut line, MAX_REQUEST_LINE, 414)?
    {
        // Not one byte of a next request: an idle keep-alive peer, owed no reply.
        return Ok(if line.is_empty() { Head::Closed } else { end });
    }
    let text = String::from_utf8_lossy(&line);
    let mut parts = text.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    // Keep-alive is HTTP/1.1's default.
    let mut request = Request {
        method,
        path: path.to_string(),
        query: query.to_string(),
        close: false,
    };
    // Drain headers until the blank line: `MAX_HEADERS` of them at most,
    // in what the request line left of the head's bytes.
    let mut room = MAX_HEAD_BYTES - line.len();
    for _ in 0..=MAX_HEADERS {
        line.clear();
        if let Some(end) = read_line_capped(input, shutdown, deadline, &mut line, room, 431)? {
            return Ok(end);
        }
        room -= line.len();
        let header = String::from_utf8_lossy(&line);
        let header = header.trim();
        if header.is_empty() {
            return Ok(Head::Request(request));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("connection") && value.trim().eq_ignore_ascii_case("close")
            {
                request.close = true;
            }
        }
    }
    Ok(Head::Refused(431))
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

fn write_response(output: &mut TcpStream, r: &Response, close: bool) -> std::io::Result<()> {
    let reason = match r.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        output,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        r.status,
        reason,
        r.content_type,
        r.body.len(),
        if close { "close" } else { "keep-alive" },
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

/// Dispatches one request. The snapshot-backed endpoints load exactly once.
fn route(request: &Request, state: &ServeState) -> Response {
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
            let snap = state.epoch.load();
            let response = match snap.candidates(id) {
                None => Response::error(404, "unknown profile id"),
                Some(row) => {
                    let listed: Vec<crate::snapshot::Candidate> = match top_k {
                        Some(k) => snap.top_k(id, k),
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
                        .field_u64("seq", snap.seq())
                        .field_u64("id", u64::from(id))
                        .field_bool("live", snap.is_live(id));
                    if let Some(ext) = snap.external_id(id) {
                        obj = obj.field_str("external_id", ext);
                    }
                    let body = obj
                        .field_u64("count", listed.len() as u64)
                        .field_raw("candidates", &items)
                        .finish();
                    Response::json(200, body)
                }
            };
            state.metrics.record_query(t0.elapsed().as_secs_f64());
            response
        }
        "/stats" => {
            let snap = state.epoch.load();
            let totals = ServeTotals::from_snapshot(&state.metrics.snapshot());
            let body = JsonObject::new()
                .field_u64("seq", snap.seq())
                .field_u64("nodes", u64::from(snap.nodes()))
                .field_u64("live", u64::from(snap.live()))
                .field_u64("pairs", snap.pairs())
                .field_u64("blocks", snap.blocks())
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
    use std::io::Read as _;

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
            epoch: Arc::new(Epoch::new(Arc::new(snap))),
            metrics: ServeMetrics::new(),
            ingest_done: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Sends `parts`, pausing past the server's read timeout between them,
    /// and reads the reply until the server closes the connection (a
    /// server that keeps it open fails the 5 s read). A part the server no
    /// longer accepts is not an error: it may refuse a head and close.
    fn send(addr: SocketAddr, parts: &[&[u8]]) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(500));
            }
            let _ = stream.write_all(part);
        }
        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                Err(e) if would_block(&e) => panic!("server kept the connection open"),
                // Closing on unread input resets the connection.
                Err(_) => break,
            }
        }
        let raw = String::from_utf8(raw).expect("utf-8 response");
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

    /// One blocking HTTP exchange against a running server.
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let request = format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
        send(addr, &[request.as_bytes()])
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
            input.read_exact(&mut body).expect("body");
            assert!(blast_obs::trace::is_valid_json(
                std::str::from_utf8(&body).unwrap()
            ));
        }
        server.shutdown();
    }

    #[test]
    fn slow_client_split_request_line_is_served() {
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        let (status, body) = send(
            server.addr(),
            &[
                b"GET /candi",
                b"dates?id=0 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            ],
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"count\": 2"), "{body}");
        server.shutdown();
    }

    #[test]
    fn slow_client_split_header_is_honoured() {
        // `send` returns only once the server has closed the connection,
        // which it does only if it saw `Connection: close` whole.
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        let (status, body) = send(
            server.addr(),
            &[
                b"GET /stats HTTP/1.1\r\nHost: t\r\nConnec",
                b"tion: close\r\n\r\n",
            ],
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"pairs\": 2"), "{body}");
        server.shutdown();
    }

    #[test]
    fn oversized_heads_are_refused_and_closed() {
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        let addr = server.addr();

        let long_line = format!("GET /stats?pad={} HTTP/1.1\r\n\r\n", "x".repeat(9 * 1024));
        assert_eq!(send(addr, &[long_line.as_bytes()]).0, 414);

        let mut many_headers = String::from("GET /stats HTTP/1.1\r\n");
        for i in 0..100 {
            many_headers.push_str(&format!("X-Pad-{i}: 1\r\n"));
        }
        many_headers.push_str("\r\n");
        assert_eq!(send(addr, &[many_headers.as_bytes()]).0, 431);

        let fat_headers = format!(
            "GET /stats HTTP/1.1\r\nA: {0}\r\nB: {0}\r\nC: {0}\r\n\r\n",
            "x".repeat(6 * 1024)
        );
        assert_eq!(send(addr, &[fat_headers.as_bytes()]).0, 431);

        // A head inside every cap is still served, by the same worker.
        let pad = "x".repeat(MAX_REQUEST_LINE - 64);
        assert_eq!(get(addr, &format!("/stats?pad={pad}")).0, 200);
        server.shutdown();
    }

    #[test]
    fn endless_request_line_is_cut_off_at_the_cap() {
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        let addr = server.addr();
        // 1 MiB without a newline: the one worker answers after the cap
        // instead of buffering it, closes, and takes the next connection.
        let flood = vec![b'a'; 1 << 20];
        assert_eq!(send(addr, &[&flood]).0, 414);
        assert_eq!(get(addr, "/stats").0, 200);
        server.shutdown();
    }

    #[test]
    fn silent_keep_alive_peer_frees_its_worker() {
        let idle = Duration::from_millis(300);
        let server = Server::start_with(test_state(), "127.0.0.1:0", 1, idle).expect("bind");
        // A sends one request, then holds its connection open and says nothing.
        let mut a = TcpStream::connect(server.addr()).expect("connect");
        a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(a, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        // The one worker answers A, gives it up at the deadline and answers B.
        assert_eq!(get(server.addr(), "/stats").0, 200);
        // A got its one reply and a quiet close: no `408` to a request never begun.
        let mut seen = String::new();
        a.read_to_string(&mut seen).expect("A's connection ends");
        assert!(seen.starts_with("HTTP/1.1 200"), "{seen}");
        assert_eq!(seen.matches("HTTP/1.1 ").count(), 1, "{seen}");
        server.shutdown();
    }

    #[test]
    fn stalled_head_is_answered_408_and_closed() {
        let idle = Duration::from_millis(300);
        let server = Server::start_with(test_state(), "127.0.0.1:0", 1, idle).expect("bind");
        let addr = server.addr();
        let (status, body) = send(addr, &[b"GET /stats HTTP/1.1\r\nHost: t\r\nX-Sl"]);
        assert_eq!(status, 408, "{body}");

        // A peer that keeps trickling bytes never times a read out; the
        // deadline bounds it all the same.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nX-Slow: ")
            .unwrap();
        let mut reply = Vec::new();
        let mut buf = [0u8; 4096];
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            let _ = stream.write_all(b"a");
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => reply.extend_from_slice(&buf[..n]),
                Err(e) if would_block(&e) => {}
                Err(_) => break,
            }
        }
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.starts_with("HTTP/1.1 408 Request Timeout"), "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");
        assert_eq!(get(addr, "/stats").0, 200, "the worker is free again");
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
