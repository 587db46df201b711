//! `serve_mixed`: reads beside writes.
//!
//! Each round publishes the seed rows once and starts the HTTP server with
//! one reader. Then the writer (this thread, closed loop, one client) runs
//! micro-batches of inserts + `commit_and_publish()` as fast as it can while
//! one client thread drives an **open loop** at a fixed rate over one
//! keep-alive connection — every request is timed from when it was due, so a
//! stall is charged to the requests that queued behind it. When the writer
//! is done the client runs a short closed loop on the now static snapshot
//! and scrapes `/metrics`. One operation, for the end-to-end metrics, is a
//! micro-batch's `insert` calls plus `commit_and_publish()`.

use crate::stream::{self, CommitSums, Population, Shape};
use crate::support::{cpu_seconds, median, mix_seed, pair_checksum, percentile, Rng};
use crate::trace::Tracer;
use crate::{InputSamples, Options, Report};
use blast_datamodel::entity::SourceId;
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_metrics::quality::evaluate_pairs;
use blast_obs::CommitTotals;
use blast_serve::{ServePipeline, ServeState, ServeTotals, Server};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `stream_insert`'s configuration at this workload's sizes: the same shape
/// without the server is the `serve.commit_slowdown` baseline.
const SHAPE: Shape = Shape {
    seed_rows: 5_000,
    batches: 200,
    batch_size: 16,
    mix: stream::Mix::Insert,
    scheme: WeightingScheme::Cbs,
    pruning: PruningAlgorithm::Wnp1,
    budget: false,
    input_label: 0x5E_01,
    vocab_scale: 100.0,
};

/// Open-loop arrival rate, requests per second.
const OPEN_LOOP_RATE: f64 = 1000.0;
/// Closed-loop phase on the static snapshot, seconds.
const CLOSED_LOOP_S: f64 = 0.5;
/// In-process lookups for `serve.snapshot_lookup_ns`.
const LOOKUPS: usize = 200_000;
/// The pacer sleeps until this long before a request is due, then spins.
const SPIN_MARGIN: Duration = Duration::from_micros(200);

/// One keep-alive connection to the server.
struct Client {
    out: TcpStream,
    input: BufReader<TcpStream>,
    last_seq: u64,
}

struct Reply {
    ok: bool,
    bytes: usize,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        out.set_read_timeout(Some(Duration::from_secs(10)))?;
        let input = BufReader::new(out.try_clone()?);
        Ok(Client {
            out,
            input,
            last_seq: 0,
        })
    }

    /// One round trip. A reply is a failure when it is not a 200 or, for
    /// the snapshot-backed routes, when its `seq` is older than one this
    /// connection has already seen.
    fn get(&mut self, target: &str, body: &mut Vec<u8>) -> std::io::Result<Reply> {
        write!(self.out, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        let mut line = String::new();
        self.input.read_line(&mut line)?;
        let status_ok = line.split_whitespace().nth(1) == Some("200");
        let mut length = 0usize;
        let mut head = line.len();
        loop {
            line.clear();
            head += self.input.read_line(&mut line)?;
            let header = line.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        body.resize(length, 0);
        self.input.read_exact(body)?;
        let mut ok = status_ok;
        if let Some(seq) = json_seq(body) {
            ok &= seq >= self.last_seq;
            self.last_seq = self.last_seq.max(seq);
        }
        Ok(Reply {
            ok,
            bytes: head + length,
        })
    }
}

/// The `"seq": N` field of a JSON reply, if it has one.
fn json_seq(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split_once("\"seq\": ")?.1;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// The traffic mix: 70 % `/candidates`, 25 % `/topk?k=10`, 5 % `/stats`,
/// ids uniform over the nodes the seed publish made visible.
fn next_target(rng: &mut Rng, published: usize, target: &mut String) {
    use std::fmt::Write as _;
    target.clear();
    let draw = rng.unit();
    let id = rng.below(published);
    let _ = if draw < 0.70 {
        write!(target, "/candidates?id={id}")
    } else if draw < 0.95 {
        write!(target, "/topk?id={id}&k=10")
    } else {
        write!(target, "/stats")
    };
}

/// Raises the flag when dropped, so the client's open loop ends even if the
/// writer panics — a scope waits for its threads before it unwinds.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// What the client thread measured.
#[derive(Default)]
struct ClientResult {
    /// Open-loop latencies from due time, µs.
    open_us: Vec<f64>,
    /// How late the generator itself sent, µs (0 when the connection was
    /// still busy with the previous request — that wait is the server's).
    late_us: Vec<f64>,
    requests: u64,
    failed: u64,
    bytes: u64,
    closed_requests: u64,
    closed_s: f64,
    scrape_us: f64,
    page_bytes: usize,
}

fn client_loop(
    addr: SocketAddr,
    seed: u64,
    published: usize,
    writer_done: &AtomicBool,
    tracer: &mut Tracer,
    round: u64,
) -> std::io::Result<ClientResult> {
    let mut client = Client::connect(addr)?;
    let mut rng = Rng::new(seed);
    let mut res = ClientResult::default();
    let (mut target, mut body) = (String::new(), Vec::new());
    let rid = |n: u64| round * 1_000_000 + n;

    // Open loop: request i is due at start + i / rate, whatever happened to
    // the ones before it.
    let start = Instant::now();
    let mut free_at = start;
    while !writer_done.load(Ordering::Acquire) {
        let due = start + Duration::from_secs_f64(res.requests as f64 / OPEN_LOOP_RATE);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let wait = due - now;
            if wait > SPIN_MARGIN {
                std::thread::sleep(wait - SPIN_MARGIN);
            } else {
                std::hint::spin_loop();
            }
        }
        next_target(&mut rng, published, &mut target);
        let sent = Instant::now();
        let reply = client.get(&target, &mut body)?;
        let done = Instant::now();
        tracer.record("http.request", rid(res.requests), sent, done);
        res.open_us.push((done - due).as_secs_f64() * 1e6);
        res.late_us.push(
            sent.saturating_duration_since(due.max(free_at))
                .as_secs_f64()
                * 1e6,
        );
        free_at = done;
        res.requests += 1;
        res.failed += u64::from(!reply.ok);
        res.bytes += reply.bytes as u64;
    }

    // Closed loop on the static snapshot: the next request leaves when the
    // previous reply has arrived.
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < CLOSED_LOOP_S {
        next_target(&mut rng, published, &mut target);
        let reply = client.get(&target, &mut body)?;
        res.closed_requests += 1;
        res.failed += u64::from(!reply.ok);
    }
    res.closed_s = t0.elapsed().as_secs_f64();
    res.requests += res.closed_requests;

    let t0 = Instant::now();
    let reply = client.get("/metrics", &mut body)?;
    res.scrape_us = t0.elapsed().as_secs_f64() * 1e6;
    res.page_bytes = body.len();
    res.requests += 1;
    res.failed += u64::from(!reply.ok);
    Ok(res)
}

struct Round {
    setup_s: f64,
    generate_s: f64,
    seed_publish_s: f64,
    op_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    sums: CommitSums,
    client: ClientResult,
    lookup_ns: f64,
    stale_epochs: i64,
    /// Mean time the server spent answering one query, by its own histogram.
    read_service_us: f64,
    registry_commits: u64,
    checksum: u64,
    pair_completeness: f64,
    pair_quality: f64,
    cpu_s: f64,
}

fn run_round(shape: &Shape, seed: u64, round: u64, tracer: &mut Tracer) -> Result<Round, String> {
    let rid = |seq: usize| round * 1_000_000 + seq as u64;
    let rows = shape.rows_needed();

    let setup = Instant::now();
    let ((d, gt), generate_s) =
        tracer.time("datagen.generate", rid(0), || stream::generate(shape, seed));
    let mut p = ServePipeline::new(stream::pipeline(shape));
    let mut population = Population::default();
    for row in 0..shape.seed_rows {
        let id = p.insert(
            SourceId(0),
            &d.profiles()[row].external_id,
            stream::row_pairs(&d, row),
        );
        population.inserted(id, row);
    }
    let (_, seed_publish_s) = tracer.time("serve.commit_and_publish", rid(0), || {
        p.commit_and_publish()
    });
    let state = ServeState {
        epoch: Arc::clone(p.epoch()),
        metrics: p.metrics().clone(),
        ingest_done: Arc::new(AtomicBool::new(false)),
    };
    let ingest_done = Arc::clone(&state.ingest_done);
    let server =
        Server::start(state, "127.0.0.1:0", 1).map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let setup_s = setup.elapsed().as_secs_f64();

    let writer_done = AtomicBool::new(false);
    let mut client_tracer = tracer.fork();
    let mut op_ms = Vec::with_capacity(shape.batches);
    let mut publish_ms = Vec::with_capacity(shape.batches);
    let mut sums = CommitSums::default();
    let cpu0 = cpu_seconds();
    let client = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            client_loop(
                addr,
                mix_seed(seed, 0x9E7),
                shape.seed_rows,
                &writer_done,
                &mut client_tracer,
                round,
            )
        });
        let writer_finished = RaiseOnDrop(&writer_done);
        let mut next_row = shape.seed_rows;
        for batch in 1..=shape.batches {
            let t0 = Instant::now();
            let op_span = tracer.begin("serve.micro_batch", rid(batch));
            for _ in 0..shape.batch_size {
                let row = next_row;
                next_row += 1;
                let (id, _) = tracer.time("serve.insert", rid(batch), || {
                    p.insert(
                        SourceId(0),
                        &d.profiles()[row].external_id,
                        stream::row_pairs(&d, row),
                    )
                });
                population.inserted(id, row);
            }
            let span = tracer.begin("serve.commit_and_publish", rid(batch));
            let c0 = Instant::now();
            let out = p.commit_and_publish();
            let wall_s = c0.elapsed().as_secs_f64();
            tracer.end(span);
            tracer.end(op_span);
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            // What the call spent outside the commit's own phases is the
            // publish (plus the index drain, which is small).
            publish_ms.push(sums.add(&out, wall_s) * 1e3);
            stream::synthesize_commit_phases(tracer, span, &out);
        }
        drop(writer_finished);
        ingest_done.store(true, Ordering::SeqCst);
        client.join().expect("client thread panicked")
    });
    let cpu_s = cpu_seconds() - cpu0;
    tracer.absorb(client_tracer);
    // The client's connection is closed by now, so the one reader is free
    // to see the shutdown wake-up.
    let client = client.map_err(|e| format!("http client: {e}"));
    let equivalent = p.verify_equivalence();
    server.shutdown();
    let client = client?;
    if !equivalent {
        return Err(
            "gate: the published snapshot differs from retained() or batch_retained()".to_string(),
        );
    }
    if client.failed > 0 {
        return Err(format!(
            "gate: {} of {} HTTP requests failed",
            client.failed, client.requests
        ));
    }

    let latest = p.latest();
    let mut rng = Rng::new(mix_seed(seed, 0x100C));
    let t0 = Instant::now();
    let mut found = 0usize;
    for _ in 0..LOOKUPS {
        let id = rng.below(shape.seed_rows) as u32;
        found += latest.candidates(id).map_or(0, <[_]>::len);
        found += latest.top_k(id, 10).len();
    }
    std::hint::black_box(found);
    let lookup_ns = t0.elapsed().as_secs_f64() * 1e9 / LOOKUPS as f64;

    let metrics = p.metrics().snapshot();
    let serve_totals = ServeTotals::from_snapshot(&metrics);
    let registry_commits = CommitTotals::from_snapshot(&metrics).commits;
    if registry_commits != shape.batches as u64 + 1 {
        return Err(format!(
            "gate: the metrics registry counts {registry_commits} commits, {} were issued",
            shape.batches + 1
        ));
    }
    let retained = p.inner().retained();
    let quality = evaluate_pairs(retained.pairs(), &population.ground_truth(rows, &gt));
    Ok(Round {
        setup_s,
        generate_s,
        seed_publish_s,
        op_ms,
        publish_ms,
        sums,
        client,
        lookup_ns,
        stale_epochs: serve_totals.stale_epochs,
        read_service_us: serve_totals.read_mean_secs * 1e6,
        registry_commits,
        checksum: pair_checksum(retained.pairs()),
        pair_completeness: quality.pc,
        pair_quality: quality.pq,
        cpu_s,
    })
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Result<Report, String> {
    let shape = if opts.smoke { SHAPE.smoke() } else { SHAPE };
    let mut report = Report::default();

    // The same micro-batches without the serving layer, once, for
    // `serve.commit_slowdown`.
    let mut plain_p50_ms = 0.0;
    if tracer.enabled() {
        let mut untraced = Tracer::new(false);
        let plain = stream::run_round(&shape, opts.input_seed(0), 0, &mut untraced)?;
        plain_p50_ms = percentile(&plain.op_ms, 0.5);
    }

    let mut rounds: Vec<Round> = Vec::new();
    while opts.more_rounds(rounds.len(), report.measured_s()) {
        let n = rounds.len();
        let mut round = run_round(&shape, opts.input_seed(n), n as u64, tracer)?;
        let op_ms = std::mem::take(&mut round.op_ms);
        report.inputs.push(InputSamples {
            setup_s: round.setup_s,
            window_s: op_ms.iter().sum::<f64>() / 1e3,
            op_ms,
            items: (shape.batches * shape.batch_size) as u64,
        });
        report.attempted += shape.batches as u64 + 1 + round.client.requests;
        rounds.push(round);
    }
    report.set_result(
        rounds
            .iter()
            .map(|r| (r.pair_completeness, r.pair_quality, r.checksum)),
    );
    // Counts below are round 0's (the reference input's), which every run
    // repeats exactly.
    let first = &rounds[0];

    let pooled = |f: &dyn Fn(&Round) -> &[f64]| {
        rounds
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let publish = pooled(&|r| &r.publish_ms);
    let reads = pooled(&|r| &r.client.open_us);
    let late = pooled(&|r| &r.client.late_us);
    let read_p50_us = percentile(&reads, 0.5);
    let lookup_ns = med(&|r| r.lookup_ns);
    report.layer("datagen.generate_s", med(&|r| r.generate_s));
    report.layer("serve.publish_ms_p50", percentile(&publish, 0.5));
    report.layer("serve.publish_ms_p95", percentile(&publish, 0.95));
    report.layer("serve.seed_publish_s", med(&|r| r.seed_publish_s));
    report.layer("serve.snapshot_lookup_ns", lookup_ns);
    report.layer("serve.open_loop_reads", reads.len() as f64);
    report.layer("serve.read_p50_us", read_p50_us);
    report.layer("serve.read_p90_us", percentile(&reads, 0.90));
    report.layer("serve.read_p99_us", percentile(&reads, 0.99));
    report.layer("serve.read_service_us", med(&|r| r.read_service_us));
    report.layer("serve.http_overhead_us", read_p50_us - lookup_ns / 1e3);
    report.layer(
        "serve.read_rps_max",
        med(&|r| r.client.closed_requests as f64 / r.client.closed_s),
    );
    report.layer("serve.generator_late_p50_us", percentile(&late, 0.5));
    report.layer("serve.generator_late_p99_us", percentile(&late, 0.99));
    report.layer(
        "serve.response_bytes_per_req",
        med(&|r| r.client.bytes as f64 / r.client.open_us.len().max(1) as f64),
    );
    report.layer("serve.stale_epochs", first.stale_epochs as f64);
    if plain_p50_ms > 0.0 {
        report.layer("serve.commit_slowdown", report.op_p50_ms() / plain_p50_ms);
    }
    stream::report_commit_layers(
        &mut report,
        &rounds.iter().map(|r| &r.sums).collect::<Vec<_>>(),
    );
    report.layer("obs.metrics_scrape_us", med(&|r| r.client.scrape_us));
    report.layer("obs.metrics_page_bytes", first.client.page_bytes as f64);
    report.layer("obs.registry_commits", first.registry_commits as f64);
    report.layer("host.cpu_s", rounds.iter().map(|r| r.cpu_s).sum());
    Ok(report)
}
