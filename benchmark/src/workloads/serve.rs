//! `serve_mixed` — reads beside writes on `dg-serve`, on the
//! `rounds_skewed` config.
//!
//! `Server::start`, then three things at once for the whole window, from
//! one process with one connection per generator thread (two threads —
//! the machine has two cores, and the engine wants them too):
//!
//! * the calling thread drives `run_round` on a **fixed 250 ms
//!   interval** (as `dg_serve --round-interval-ms` does), so snapshot
//!   publish, `RankIndex` rebuild and ingest folding happen under load;
//! * connection Q, **closed loop**: batches of 64 pipelined queries —
//!   14/16 `Reputation` on a uniform subject, 1/16 `TopK{16}`, 1/16
//!   `Percentile{0.9}` — each batch sent only after the previous one is
//!   answered. A traced run spends the second half of the window on
//!   unpipelined `call`s instead, for per-kind latency;
//! * connection I, **open loop**: 1,000 `Ingest`/s on a schedule,
//!   each timed from the instant it was *due*, so a stall is charged
//!   to every report queued behind it; generator lateness is reported.
//!
//! One operation is one pipelined batch round trip; one unit of work is
//! one answered query. The served round — the `rounds_skewed` round plus
//! publish, ingest fold and contention, so the difference between the
//! two workloads is the serving tax — is reported per layer: with four
//! busy threads on two shared vCPUs its time swung by a third between
//! runs of one commit, which no bound can gate.
//! Healthy shed is zero — 250 reports per round against a channel of
//! 1,024 — so any `Busy` is a failed operation. Latency percentiles are
//! per-layer, not end-to-end: on two shared vCPUs they measure the
//! hypervisor's scheduler at least as much as the server.

use super::{
    ns_per_call, set_round_times, set_work_counts, skewed_config, sleep_until, substrate_probes,
    trust_probes, Failure, Params, Report, SETUPS, WARMUP_ROUNDS,
};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use dg_serve::proto::{read_request, read_response, write_request, write_response};
use dg_serve::{Client, Request, Response, ServeOptions, Server};
use dg_trust::prelude::TransactionOutcome;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Queries in flight per batch on connection Q.
const PIPELINE: usize = 64;
/// `k` of the `TopK` queries in the mix.
const TOP_K: u32 = 16;
/// `p` of the `Percentile` queries in the mix.
const PERCENTILE: f64 = 0.9;
/// Open-loop ingest rate.
const INGESTS_PER_S: u32 = 1_000;
/// Rounds timed with no client connected, before the loaded window
/// (traced runs): the base the serving tax is measured against.
const UNLOADED_ROUNDS: usize = 8;
/// Subjects read back over the wire after the last round.
const WIRE_SAMPLE: usize = 1_000;

fn round_interval(p: &Params) -> Duration {
    Duration::from_millis(if p.tiny { 20 } else { 250 })
}

/// The three query kinds, as indices into per-kind tallies.
const KINDS: [&str; 3] = ["reputation", "topk", "percentile"];

fn kind_of(request: &Request) -> usize {
    match request {
        Request::Reputation { .. } => 0,
        Request::TopK { .. } => 1,
        _ => 2,
    }
}

/// The seeded query stream of connection Q.
struct QueryMix {
    rng: ChaCha8Rng,
    nodes: u32,
    issued: u64,
}

impl QueryMix {
    fn next(&mut self) -> Request {
        let slot = self.issued % 16;
        self.issued += 1;
        match slot {
            14 => Request::TopK { k: TOP_K },
            15 => Request::Percentile { p: PERCENTILE },
            _ => Request::Reputation {
                subject: self.rng.random_range(0..self.nodes),
            },
        }
    }
}

/// What one connection saw.
#[derive(Default)]
struct Tally {
    sent: u64,
    answered: u64,
    /// First few validation failures, verbatim.
    invalid: Vec<String>,
    invalid_count: u64,
    /// Latest snapshot round seen: rounds only move forward per
    /// connection.
    last_round: u64,
    pipelined_answered: u64,
    pipelined_s: f64,
    batch_s: Vec<f64>,
    call_us: [Vec<f64>; 3],
    accepted: u64,
    shed: u64,
    ack_us: Vec<f64>,
    late_max_s: f64,
}

impl Tally {
    fn reject(&mut self, why: String) {
        self.invalid_count += 1;
        if self.invalid.len() < 5 {
            self.invalid.push(why);
        }
    }

    fn see_round(&mut self, round: u64) {
        if round < self.last_round {
            self.reject(format!(
                "round went back from {} to {round}",
                self.last_round
            ));
        }
        self.last_round = round;
    }

    /// Validate one query response against its request.
    fn validate(&mut self, request: &Request, response: &Response, nodes: u32) {
        let unit = |v: f64| (0.0..=1.0).contains(&v);
        match (request, response) {
            (Request::Reputation { .. }, Response::Reputation { round, reputation }) => {
                self.see_round(*round);
                if !reputation.map_or(true, unit) {
                    self.reject(format!("reputation {reputation:?} outside [0, 1]"));
                }
            }
            (Request::TopK { k }, Response::TopK { round, entries }) => {
                self.see_round(*round);
                let ordered = entries.windows(2).all(|w| w[0].1 >= w[1].1);
                let in_range = entries.iter().all(|&(id, rep)| id < nodes && unit(rep));
                if entries.len() > *k as usize || !ordered || !in_range {
                    self.reject(format!("top-{k} answer malformed: {entries:?}"));
                }
            }
            (Request::Percentile { .. }, Response::Percentile { round, value }) => {
                self.see_round(*round);
                if !value.map_or(true, unit) {
                    self.reject(format!("percentile {value:?} outside [0, 1]"));
                }
            }
            (request, response) => self.reject(format!("{request:?} answered {response:?}")),
        }
        self.answered += 1;
    }

    /// Fold this connection's counts into the report.
    fn settle(&self, who: &str, rep: &mut Report) {
        rep.attempted += self.sent;
        rep.failed += self.invalid_count + self.shed;
        for why in &self.invalid {
            rep.violations.push(format!("{who}: {why}"));
        }
        if self.shed > 0 {
            rep.violations
                .push(format!("{who}: {} ingests shed with Busy", self.shed));
        }
    }
}

/// Connection Q, pipelined: closed loop of `PIPELINE`-deep batches
/// until `until`.
fn query_pipelined(
    client: &mut Client,
    mix: &mut QueryMix,
    until: Instant,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), Failure> {
    let started = Instant::now();
    let answered_before = tally.answered;
    let mut batch = Vec::with_capacity(PIPELINE);
    while Instant::now() < until {
        batch.clear();
        batch.extend((0..PIPELINE).map(|_| mix.next()));
        let open = tr.enter("serve.batch");
        for request in &batch {
            client.send(request)?;
        }
        client.flush()?;
        tally.sent += PIPELINE as u64;
        for request in &batch {
            let response = client.recv()?;
            tally.validate(request, &response, mix.nodes);
        }
        tally.batch_s.push(tr.exit(open));
    }
    tally.pipelined_answered += tally.answered - answered_before;
    tally.pipelined_s += started.elapsed().as_secs_f64();
    Ok(())
}

/// Connection Q, unpipelined: one `call` at a time until `until`,
/// latency kept per query kind. Half a million calls in a few seconds:
/// their latencies are kept as plain samples, not as spans.
fn query_calls(
    client: &mut Client,
    mix: &mut QueryMix,
    until: Instant,
    tally: &mut Tally,
) -> Result<(), Failure> {
    loop {
        let sent = Instant::now();
        if sent >= until {
            return Ok(());
        }
        let request = mix.next();
        tally.sent += 1;
        let response = client.call(&request)?;
        tally.call_us[kind_of(&request)].push(sent.elapsed().as_secs_f64() * 1e6);
        tally.validate(&request, &response, mix.nodes);
    }
}

/// Connection I: `INGESTS_PER_S` reports per second on a schedule from
/// `start` until `until`, each acknowledged before the next is sent and
/// timed from its due time.
fn ingest_open_loop(
    client: &mut Client,
    mut rng: ChaCha8Rng,
    nodes: u32,
    (start, until): (Instant, Instant),
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), Failure> {
    let gap = Duration::from_secs(1) / INGESTS_PER_S;
    for k in 0u32.. {
        let due = start + gap * k;
        if due >= until {
            break;
        }
        sleep_until(due);
        let requester = rng.random_range(0..nodes);
        // Any other node: shift by 1..nodes so it never reports itself.
        let provider = (requester + rng.random_range(1..nodes)) % nodes;
        let outcome = if rng.random_bool(0.9) {
            TransactionOutcome::Served {
                quality: rng.random::<f64>(),
            }
        } else {
            TransactionOutcome::Refused
        };
        tally.late_max_s = tally.late_max_s.max((Instant::now() - due).as_secs_f64());
        let open = tr.enter("serve.ingest");
        tally.sent += 1;
        let response = client.ingest(requester, provider, outcome)?;
        tr.exit(open);
        tally
            .ack_us
            .push((Instant::now() - due).as_secs_f64() * 1e6);
        match response {
            Response::IngestAccepted { round } => {
                tally.see_round(round);
                tally.accepted += 1;
            }
            Response::Busy => tally.shed += 1,
            other => tally.reject(format!("ingest answered {other:?}")),
        }
    }
    Ok(())
}

/// A started, warmed server with both generator connections open.
/// Field order is drop order: the clients hang up before the server
/// stops accepting, so its handler threads see EOF and end.
struct Live {
    query: Client,
    ingest: Client,
    server: Server,
}

struct LiveTimes {
    total_s: f64,
    start_s: f64,
    first_round_s: f64,
}

fn start_live(p: &Params, tr: &mut Tracer) -> Result<(Live, LiveTimes), Failure> {
    let setup = tr.enter("setup");
    let (server, start_s) = tr.time("serve.server_start", || {
        Server::start(skewed_config(p), ServeOptions::default())
    });
    let mut server = server?;
    let (first, first_round_s) = tr.time("sim.warmup_round", || server.run_round().map(|_| ()));
    first?;
    server.run_to(WARMUP_ROUNDS)?;
    let query = Client::connect(server.local_addr(), 1)?;
    let ingest = Client::connect(server.local_addr(), 2)?;
    let total_s = tr.exit(setup);
    Ok((
        Live {
            query,
            ingest,
            server,
        },
        LiveTimes {
            total_s,
            start_s,
            first_round_s,
        },
    ))
}

/// Run the workload.
pub fn run(p: &Params, tr: &mut Tracer, rep: &mut Report) -> Result<(), Failure> {
    let config = skewed_config(p);
    let nodes = config.nodes as u32;

    let mut times = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let (started, t) = start_live(p, tr)?;
        live = Some(started);
        times.push(t);
    }
    let Live {
        mut query,
        mut ingest,
        mut server,
    } = live.expect("SETUPS > 0");

    let mut unloaded_s = Vec::new();
    if p.trace {
        for _ in 0..UNLOADED_ROUNDS {
            let (ran, s) = tr.time("serve.run_round_unloaded", || {
                server.run_round().map(|_| ())
            });
            ran?;
            unloaded_s.push(s);
        }
    }

    // The loaded window.
    let mut mix = QueryMix {
        rng: p.rng(0x51),
        nodes,
        issued: 0,
    };
    let ingest_rng = p.rng(0x1E);
    let interval = round_interval(p);
    let origin = tr.origin();
    let traced = tr.traced();
    let mut round_s = Vec::new();
    let mut round_late_max_s = 0.0f64;
    let start = Instant::now();
    let until = start + p.window();
    // A traced run trades the second half of the window for per-kind
    // call latency; an untraced run keeps every second for throughput.
    let pipelined_until = if traced {
        start + p.window() / 2
    } else {
        until
    };
    let (q_tally, i_tally) = std::thread::scope(|scope| -> Result<_, Failure> {
        let q = scope.spawn(|| -> Result<_, Failure> {
            let mut tr = Tracer::new(origin, traced, 1 << 18);
            let mut tally = Tally::default();
            query_pipelined(&mut query, &mut mix, pipelined_until, &mut tr, &mut tally)?;
            query_calls(&mut query, &mut mix, until, &mut tally)?;
            Ok((tally, tr))
        });
        let i = scope.spawn(|| -> Result<_, Failure> {
            let mut tr = Tracer::new(origin, traced, 1 << 16);
            let mut tally = Tally::default();
            ingest_open_loop(
                &mut ingest,
                ingest_rng,
                nodes,
                (start, until),
                &mut tr,
                &mut tally,
            )?;
            Ok((tally, tr))
        });
        for k in 0u32.. {
            let due = start + interval * k;
            if due >= until {
                break;
            }
            sleep_until(due);
            round_late_max_s = round_late_max_s.max((Instant::now() - due).as_secs_f64());
            let (ran, s) = tr.time("serve.run_round", || server.run_round().map(|_| ()));
            rep.attempted += 1;
            ran?;
            round_s.push(s);
        }
        let (q_tally, q_tr) = q.join().expect("query thread panicked")?;
        let (i_tally, i_tr) = i.join().expect("ingest thread panicked")?;
        tr.absorb(q_tr);
        tr.absorb(i_tr);
        Ok((q_tally, i_tally))
    })?;
    rep.measured_s = start.elapsed().as_secs_f64();
    q_tally.settle("connection Q", rep);
    i_tally.settle("connection I", rep);

    // Every report accepted before the last round started was folded:
    // the stats' ingest counters account for them.
    let stats = server.session().session().stats();
    let folded: u64 = stats.iter().map(|s| s.ingested_reports).sum();
    rep.check(
        || {
            format!(
                "{} ingests accepted, rounds folded {folded}",
                i_tally.accepted
            )
        },
        folded <= i_tally.accepted && i_tally.accepted - folded <= u64::from(INGESTS_PER_S),
    );

    // What readers get over the wire is what the engine computed.
    let expected = server.session().session().subject_mean_reputations();
    let round = server.session().round() as u64;
    let mut pick = p.rng(0x3A);
    for _ in 0..WIRE_SAMPLE {
        let subject = pick.random_range(0..nodes);
        let response = query.reputation(subject)?;
        let want = expected[subject as usize].map(f64::to_bits);
        rep.check(
            || format!("subject {subject} over the wire: {response:?}; engine: round {round}, bits {want:?}"),
            matches!(
                &response,
                Response::Reputation { round: r, reputation }
                    if *r == round && reputation.map(f64::to_bits) == want
            ),
        );
    }

    let setup_s: Vec<f64> = times.iter().map(|t| t.total_s).collect();
    rep.set_p50("setup_s", &setup_s);
    rep.set_p50("op_s_p50", &q_tally.batch_s);
    let queries_per_s = q_tally.pipelined_answered as f64 / q_tally.pipelined_s;
    rep.set("work_per_s", queries_per_s);
    if !p.trace {
        return Ok(());
    }

    let rounds = set_round_times(rep, &round_s);
    set_work_counts(rep, server.session().session().stats());
    let start_s: Vec<f64> = times.iter().map(|t| t.start_s).collect();
    let first_s: Vec<f64> = times.iter().map(|t| t.first_round_s).collect();
    rep.set("sim.session_new_s", median(&start_s));
    rep.set("sim.warmup_round_s", median(&first_s));
    rep.set("serve.queries_per_s_loaded", queries_per_s);
    rep.set("serve.round_overhead_s", rounds.p50() - median(&unloaded_s));
    rep.set("serve.rounds_completed", round_s.len() as f64);
    rep.set("serve.round_late_max_s", round_late_max_s);
    rep.set("serve.ingest_accepted", i_tally.accepted as f64);
    rep.set("serve.ingest_shed", i_tally.shed as f64);
    rep.set("serve.ingest_late_max_s", i_tally.late_max_s);
    let batch = Summary::of(&q_tally.batch_s);
    rep.set("serve.batch_rtt_p50_us", batch.p50() * 1e6);
    rep.set("serve.batch_rtt_p99_us", batch.at_most(0.99) * 1e6);
    let acks = rep.set_p50("serve.ingest_ack_p50_us", &i_tally.ack_us);
    rep.set("serve.ingest_ack_p99_us", acks.at_most(0.99));
    // `Report::set` takes static names; the nine call metrics are
    // spelled out so a typo fails against the metric table.
    let call_metrics: [[&'static str; 3]; 3] = [
        [
            "serve.call_reputation_p50_us",
            "serve.call_reputation_p99_us",
            "serve.call_reputation_p999_us",
        ],
        [
            "serve.call_topk_p50_us",
            "serve.call_topk_p99_us",
            "serve.call_topk_p999_us",
        ],
        [
            "serve.call_percentile_p50_us",
            "serve.call_percentile_p99_us",
            "serve.call_percentile_p999_us",
        ],
    ];
    for ((names, samples), kind) in call_metrics.iter().zip(&q_tally.call_us).zip(KINDS) {
        if samples.is_empty() {
            return Err(format!("no {kind} call completed in the call phase").into());
        }
        let calls = Summary::of(samples);
        eprintln!("    serve.call {kind}: {}", calls.render("us"));
        rep.set(names[0], calls.p50());
        rep.set(names[1], calls.at_most(0.99));
        rep.set(names[2], calls.at_most(0.999));
    }

    // The same pipelined loop with no round running and no ingest: what
    // the engine's share of the two cores costs readers.
    let mut idle = Tally::default();
    let idle_until = Instant::now() + p.window() / 5;
    query_pipelined(&mut query, &mut mix, idle_until, tr, &mut idle)?;
    idle.settle("connection Q (idle)", rep);
    rep.set(
        "serve.queries_per_s_idle",
        idle.pipelined_answered as f64 / idle.pipelined_s,
    );

    let (previous, publish_s) = tr.time("sim.publish_input", || {
        server.session().session().subject_mean_reputations()
    });
    rep.set("sim.publish_input_s", publish_s);
    server.run_round()?;
    let current = server.session().session().subject_mean_reputations();
    drop((query, ingest, server));
    trust_probes(p, previous, current, tr, rep);
    codec_probes(p, tr, rep)?;
    substrate_probes(&config, tr, rep)
}

/// `proto::{write, read}_{request, response}` on in-memory buffers: the
/// wire codec's share of a batch round trip.
fn codec_probes(p: &Params, tr: &mut Tracer, rep: &mut Report) -> Result<(), Failure> {
    let calls = p.probe_calls();
    let probes = tr.enter("serve.codec_probes");
    let request = Request::Reputation { subject: 123_456 };
    let reputation = Response::Reputation {
        round: 7,
        reputation: Some(0.75),
    };
    let top_k = Response::TopK {
        round: 7,
        entries: (0..TOP_K).map(|i| (i, 1.0 - f64::from(i) / 64.0)).collect(),
    };

    let mut buffer = Vec::with_capacity(1024);
    rep.set(
        "serve.encode_request_ns",
        ns_per_call(calls, |_| {
            buffer.clear();
            write_request(&mut buffer, &request)
        }),
    );
    read_request(&mut buffer.as_slice())?;
    rep.set(
        "serve.decode_request_ns",
        ns_per_call(calls, |_| read_request(&mut buffer.as_slice())),
    );
    for (response, encode, decode) in [
        (
            &reputation,
            "serve.encode_response_ns",
            "serve.decode_response_ns",
        ),
        (
            &top_k,
            "serve.encode_topk16_response_ns",
            "serve.decode_topk16_response_ns",
        ),
    ] {
        rep.set(
            encode,
            ns_per_call(calls, |_| {
                buffer.clear();
                write_response(&mut buffer, response)
            }),
        );
        let back = read_response(&mut buffer.as_slice())?;
        rep.check(
            || format!("codec round trip changed {response:?} into {back:?}"),
            &back == response,
        );
        rep.set(
            decode,
            ns_per_call(calls, |_| read_response(&mut buffer.as_slice())),
        );
    }
    tr.exit(probes);
    Ok(())
}
