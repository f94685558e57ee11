//! The serving layer's torn-read-proof keystone suite.
//!
//! `dg-serve` promises two things (`docs/SERVING.md`):
//!
//! * **Round-atomic reads.** Every query response is answered from one
//!   completed round's coherent snapshot and carries that round's
//!   number; concurrent readers may be up to one round stale but can
//!   never observe a torn mix of two rounds. Proven here by hammering
//!   a live server from concurrent clients while the engine advances,
//!   then bit-matching every single response against a reference
//!   [`RunSession`] replay of the same config at the response's round.
//! * **Ingest-replay determinism.** The run is a pure function of the
//!   accepted-report set: arrival order, engine choice and the wire
//!   path itself change nothing. Proven by folding one ingest log
//!   through both engines (and once through a real TCP server) and
//!   comparing stats and reputations bit for bit.
//!
//! Plus the backpressure contract (a full ingest channel answers
//! `Busy`, every shed is counted, nothing blocks or disappears
//! silently) and the `RoundStats` wire-compat guarantee (reports
//! written before the ingest counters existed still deserialize).

use differential_gossip::gossip::EngineKind;
use differential_gossip::graph::NodeId;
use differential_gossip::serve::{Client, Request, Response, ServeOptions, Server};
use differential_gossip::sim::{IngestReport, RunConfig, RunSession, ServeSession};
use differential_gossip::trust::prelude::TransactionOutcome;
use differential_gossip::trust::ReputationSnapshot;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

fn config(nodes: usize, rounds: usize, seed: u64) -> RunConfig {
    RunConfig {
        nodes,
        rounds,
        seed,
        ..RunConfig::default()
    }
}

/// The per-round reference views of a config: `reference[r]` is the
/// snapshot a correct server must answer round-`r` queries from,
/// computed from scratch by an independent [`RunSession`] replay on the
/// sequential oracle (the server runs the default, production engine).
fn reference_snapshots(config: RunConfig, rounds: usize) -> Vec<ReputationSnapshot> {
    let oracle = config.with_engine(EngineKind::Sequential);
    let mut session = RunSession::new(oracle).expect("reference session builds");
    let mut reference = vec![ReputationSnapshot::empty(config.nodes)];
    for r in 1..=rounds {
        session.run_to(r).expect("reference rounds run");
        reference.push(ReputationSnapshot::build(
            r as u64,
            session.subject_mean_reputations(),
        ));
    }
    reference
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// What one reader observed in one response, kept for post-hoc
/// validation against the reference replay.
enum Observation {
    Reputation(u64, u32, Option<f64>),
    TopK(u64, Vec<(u32, f64)>),
    Percentile(u64, Option<f64>),
}

/// Tentpole proof: concurrent readers over a live server never observe
/// a torn round. Every response carries a round number and must
/// bit-match the reference replay **at that round**; per connection the
/// observed rounds never move backwards.
#[test]
fn concurrent_readers_never_observe_torn_rounds() {
    const NODES: usize = 48;
    const ROUNDS: usize = 5;
    const READERS: usize = 4;
    let cfg = config(NODES, ROUNDS, 7);
    let reference = reference_snapshots(cfg, ROUNDS);

    let mut server = Server::start(cfg, ServeOptions::default()).expect("server starts");
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);

    let observations: Vec<Vec<Observation>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|reader| {
                let stop = &stop;
                s.spawn(move || {
                    let mut client = Client::connect(addr, reader as u64).expect("client connects");
                    let mut seen = Vec::new();
                    let mut last_round = 0u64;
                    let mut subject = reader as u32;
                    while !stop.load(Ordering::Acquire) {
                        let round = match client.reputation(subject).expect("query answers") {
                            Response::Reputation { round, reputation } => {
                                seen.push(Observation::Reputation(round, subject, reputation));
                                round
                            }
                            other => panic!("unexpected response {other:?}"),
                        };
                        // Rounds move forward only, per connection.
                        assert!(round >= last_round, "round went backwards");
                        last_round = round;
                        subject = (subject + READERS as u32 + 1) % NODES as u32;
                        match client.top_k(8).expect("query answers") {
                            Response::TopK { round, entries } => {
                                seen.push(Observation::TopK(round, entries));
                            }
                            other => panic!("unexpected response {other:?}"),
                        }
                        match client.percentile(0.5).expect("query answers") {
                            Response::Percentile { round, value } => {
                                seen.push(Observation::Percentile(round, value));
                            }
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                    seen
                })
            })
            .collect();

        for _ in 0..ROUNDS {
            // Let the readers interleave with the publish.
            std::thread::sleep(Duration::from_millis(5));
            server.run_round().expect("round runs");
        }
        std::thread::sleep(Duration::from_millis(5));
        stop.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect()
    });

    let mut checked = 0usize;
    for seen in &observations {
        assert!(!seen.is_empty(), "a reader observed nothing");
        for obs in seen {
            checked += 1;
            match obs {
                Observation::Reputation(round, subject, rep) => {
                    let want = &reference[*round as usize];
                    assert_eq!(
                        bits(*rep),
                        bits(want.reputation(NodeId(*subject))),
                        "reputation({subject}) torn at round {round}"
                    );
                }
                Observation::TopK(round, entries) => {
                    let want: Vec<(u32, u64)> = reference[*round as usize]
                        .top_k(8)
                        .into_iter()
                        .map(|(id, rep)| (id.0, rep.to_bits()))
                        .collect();
                    let got: Vec<(u32, u64)> = entries
                        .iter()
                        .map(|&(id, rep)| (id, rep.to_bits()))
                        .collect();
                    assert_eq!(got, want, "top_k torn at round {round}");
                }
                Observation::Percentile(round, value) => {
                    assert_eq!(
                        bits(*value),
                        bits(reference[*round as usize].percentile(0.5)),
                        "percentile torn at round {round}"
                    );
                }
            }
        }
    }
    // The loop above must have validated real concurrent traffic.
    assert!(checked > READERS * 3, "too few observations: {checked}");
}

/// A small deterministic ingest log: the reports accepted into round
/// `round + 1`'s buffer (requesters/providers inside `nodes`).
fn ingest_log(round: usize, nodes: usize) -> Vec<IngestReport> {
    let n = nodes as u32;
    let r = round as u64;
    let mk = |from: u64, seq: u64, req: u32, prov: u32, outcome| IngestReport {
        from,
        seq,
        requester: NodeId(req % n),
        provider: NodeId(prov % n),
        outcome,
    };
    vec![
        mk(
            1,
            2 * r,
            3 + round as u32,
            7,
            TransactionOutcome::Served { quality: 0.9 },
        ),
        mk(
            1,
            2 * r + 1,
            11,
            3 + round as u32,
            TransactionOutcome::Refused,
        ),
        mk(
            2,
            r,
            5,
            2 + round as u32,
            TransactionOutcome::Served { quality: 0.25 },
        ),
        mk(
            9,
            r,
            3 + round as u32,
            9,
            TransactionOutcome::Served { quality: 0.5 },
        ),
    ]
    .into_iter()
    .filter(|rep| rep.requester != rep.provider)
    .collect()
}

/// Fold the log through a [`ServeSession`] on `engine`; return the
/// stats JSON and the final snapshot's reputation bits.
fn replay_on(engine: EngineKind, nodes: usize, rounds: usize) -> (String, Vec<Option<u64>>) {
    let cfg = RunConfig {
        engine,
        ..config(nodes, rounds, 23)
    };
    let mut serve = ServeSession::new(cfg).expect("session builds");
    for round in 0..rounds {
        for report in ingest_log(round, nodes) {
            serve.ingest(report).expect("valid report");
        }
        serve.run_round().expect("round runs");
    }
    let stats = serde_json::to_string(serve.session().stats()).expect("stats serialize");
    let snap = serve.snapshots().load();
    let reps = (0..nodes as u32)
        .map(|i| snap.reputation(NodeId(i)).map(f64::to_bits))
        .collect();
    (stats, reps)
}

/// Satellite: replaying one ingest log is bit-identical across both
/// engines — the interleaving contract (`queue_reports` appends each
/// requester's ingested records after its generated ones) holds
/// everywhere, stats included.
#[test]
fn ingest_replay_is_bit_identical_across_engines() {
    const NODES: usize = 64;
    const ROUNDS: usize = 3;
    let reference = replay_on(EngineKind::Sequential, NODES, ROUNDS);
    let candidate = replay_on(EngineKind::Incremental, NODES, ROUNDS);
    assert_eq!(reference.0, candidate.0, "stats diverged");
    assert_eq!(reference.1, candidate.1, "reputations diverged");
}

/// Satellite: the wire path is the same function — submitting the same
/// log through a real TCP server (and querying the results back over
/// the wire) matches the in-process replay bit for bit.
#[test]
fn wire_ingest_matches_in_process_replay() {
    const NODES: usize = 64;
    const ROUNDS: usize = 3;
    let (_, reference) = replay_on(EngineKind::Sequential, NODES, ROUNDS);

    let mut server =
        Server::start(config(NODES, ROUNDS, 23), ServeOptions::default()).expect("server starts");
    let mut client = Client::connect(server.local_addr(), 99).expect("client connects");
    for round in 0..ROUNDS {
        for rep in ingest_log(round, NODES) {
            // Submit with the log's own replay tag, not the client's.
            let response = client
                .call(&Request::Ingest {
                    source: rep.from,
                    seq: rep.seq,
                    requester: rep.requester.0,
                    provider: rep.provider.0,
                    outcome: rep.outcome,
                })
                .expect("ingest answers");
            assert!(
                matches!(response, Response::IngestAccepted { .. }),
                "unexpected response {response:?}"
            );
        }
        // `call` is synchronous, so every accepted report is already in
        // the channel when the round is driven.
        server.run_round().expect("round runs");
    }
    for subject in 0..NODES as u32 {
        match client.reputation(subject).expect("query answers") {
            Response::Reputation { round, reputation } => {
                assert_eq!(round, ROUNDS as u64);
                assert_eq!(
                    bits(reputation),
                    reference[subject as usize],
                    "subject {subject} diverged over the wire"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}

/// Satellite: backpressure is typed and accounted. A full ingest
/// channel answers `Busy` for exactly the overflow, queries stay
/// answerable throughout, and the next round's stats carry both the
/// accepted and the shed counts.
#[test]
fn full_ingest_channel_sheds_with_busy_and_counts() {
    const CAPACITY: usize = 4;
    const SUBMITTED: u32 = 10;
    let mut server = Server::start(
        config(16, 4, 5),
        ServeOptions {
            ingest_capacity: CAPACITY,
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr(), 0).expect("client connects");

    let mut accepted = 0u64;
    let mut busy = 0u64;
    for i in 0..SUBMITTED {
        let provider = 1 + (i + 1) % 15;
        match client
            .ingest(0, provider, TransactionOutcome::Served { quality: 0.5 })
            .expect("ingest answers")
        {
            Response::IngestAccepted { .. } => accepted += 1,
            Response::Busy => busy += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    // The client is synchronous and nothing drains between submissions:
    // exactly the channel capacity is accepted, the rest shed.
    assert_eq!(accepted, CAPACITY as u64);
    assert_eq!(busy, (SUBMITTED as usize - CAPACITY) as u64);

    // Queries are never busy, even with the ingest channel full.
    assert!(matches!(
        client.reputation(3).expect("query answers"),
        Response::Reputation { .. }
    ));

    let stats = server.run_round().expect("round runs");
    assert_eq!(stats.ingested_reports, accepted);
    assert_eq!(stats.ingest_shed, busy);

    // The channel drained: the next submission is accepted again, and
    // a round with no ingest reports zero on both counters.
    assert!(matches!(
        client
            .ingest(0, 3, TransactionOutcome::Refused)
            .expect("ingest answers"),
        Response::IngestAccepted { .. }
    ));
    let stats = server.run_round().expect("round runs");
    assert_eq!(stats.ingested_reports, 1);
    assert_eq!(stats.ingest_shed, 0);
}

/// Satellite: invalid ingest is rejected at the wire with a typed
/// error, not accepted and not shed.
#[test]
fn wire_rejects_invalid_ingest() {
    let mut server =
        Server::start(config(16, 2, 5), ServeOptions::default()).expect("server starts");
    let mut client = Client::connect(server.local_addr(), 0).expect("client connects");
    for (requester, provider) in [(16, 2), (3, 16), (3, 3)] {
        assert!(matches!(
            client
                .ingest(requester, provider, TransactionOutcome::Refused)
                .expect("ingest answers"),
            Response::Error { .. }
        ));
    }
    let stats = server.run_round().expect("round runs");
    assert_eq!(stats.ingested_reports, 0);
    assert_eq!(stats.ingest_shed, 0);
}

/// Satellite: `RoundStats` written before the ingest counters existed
/// (no `ingested_reports` / `ingest_shed` members) still deserialize,
/// with both counters defaulting to zero and every other field intact.
#[test]
fn legacy_round_stats_json_deserializes_with_zero_ingest_counters() {
    use differential_gossip::sim::rounds::RoundStats;
    use serde_json::Value;

    let mut serve = ServeSession::new(config(16, 1, 3)).expect("session builds");
    serve
        .ingest(IngestReport {
            from: 0,
            seq: 0,
            requester: NodeId(1),
            provider: NodeId(2),
            outcome: TransactionOutcome::Served { quality: 0.5 },
        })
        .expect("valid report");
    serve.note_shed(3);
    serve.run_round().expect("round runs");
    let modern = serve.session().stats()[0].clone();
    assert_eq!(modern.ingested_reports, 1);
    assert_eq!(modern.ingest_shed, 3);

    // Strip the two new members, as a pre-serve writer would have.
    let mut value = serde_json::to_value(&modern);
    match &mut value {
        Value::Object(members) => {
            let before = members.len();
            members.retain(|(k, _)| k != "ingested_reports" && k != "ingest_shed");
            assert_eq!(members.len(), before - 2, "fields were not present");
        }
        other => panic!("stats serialized as {other:?}"),
    }
    let legacy_json = serde_json::to_string(&value).expect("legacy JSON builds");
    let parsed: RoundStats = serde_json::from_str(&legacy_json).expect("legacy JSON parses");
    assert_eq!(parsed.ingested_reports, 0);
    assert_eq!(parsed.ingest_shed, 0);
    let mut zeroed = modern;
    zeroed.ingested_reports = 0;
    zeroed.ingest_shed = 0;
    assert_eq!(parsed, zeroed, "other fields must survive unchanged");
}

/// One reader's record of a loaded snapshot: round plus the answers a
/// client could derive from it.
type SnapshotProbe = (u64, Option<u64>, Vec<(u32, u64)>, Option<u64>);

fn probe(snap: &ReputationSnapshot, subject: u32) -> SnapshotProbe {
    (
        snap.round(),
        bits(snap.reputation(NodeId(subject))),
        snap.top_k(5)
            .into_iter()
            .map(|(id, rep)| (id.0, rep.to_bits()))
            .collect(),
        bits(snap.percentile(0.5)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: the double-buffer swap, pinned under random
    /// interleavings. Reader threads (2 or 8) spin `load()`ing the
    /// cell while the session publishes rounds; every loaded snapshot's
    /// answers must agree with a from-scratch computation of that round
    /// — the incremental rank index included, checked whole at the end.
    #[test]
    fn double_buffered_snapshots_agree_with_from_scratch(
        nodes in 12usize..40,
        seed in 0u64..500,
        rounds in 1usize..4,
        wide_pool in 0usize..2,
    ) {
        // The vendored proptest has no value-set strategy: derive the
        // reader count {2, 8} from a flag instead.
        let readers = if wide_pool == 1 { 8usize } else { 2 };
        let cfg = config(nodes, rounds, seed);
        let reference = reference_snapshots(cfg, rounds);

        let mut serve = ServeSession::new(cfg).expect("session builds");
        let cell = serve.snapshots();
        let stop = AtomicBool::new(false);
        // Rendezvous: every reader has taken its first load before the
        // driver's first round, so no schedule leaves a reader empty.
        let start = Barrier::new(readers + 1);
        let probes: Vec<Vec<SnapshotProbe>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..readers)
                .map(|reader| {
                    let (cell, stop, start) = (&cell, &stop, &start);
                    let subject = (reader % nodes) as u32;
                    s.spawn(move || {
                        let mut seen: Vec<SnapshotProbe> = Vec::new();
                        // Record each published round once per reader:
                        // a snapshot is an immutable Arc, so re-probing
                        // the same one adds nothing.
                        let mut observe = || {
                            let snap = cell.load();
                            let last_round = seen.last().map(|p| p.0);
                            if last_round != Some(snap.round()) {
                                assert!(Some(snap.round()) > last_round);
                                seen.push(probe(&snap, subject));
                            }
                        };
                        observe();
                        start.wait();
                        while !stop.load(Ordering::Acquire) {
                            observe();
                        }
                        // One load after `stop`: the final round is seen
                        // even by a reader that was never scheduled
                        // while the driver ran.
                        observe();
                        seen
                    })
                })
                .collect();
            start.wait();
            for _ in 0..rounds {
                serve.run_round().expect("round runs");
            }
            stop.store(true, Ordering::Release);
            handles.into_iter().map(|h| h.join().expect("reader")).collect()
        });

        for (reader, seen) in probes.iter().enumerate() {
            prop_assert!(!seen.is_empty(), "reader {reader} observed nothing");
            let subject = (reader % nodes) as u32;
            for (round, rep, topk, pct) in seen {
                let want = &reference[*round as usize];
                prop_assert_eq!(*rep, bits(want.reputation(NodeId(subject))));
                let want_topk: Vec<(u32, u64)> = want
                    .top_k(5)
                    .into_iter()
                    .map(|(id, r)| (id.0, r.to_bits()))
                    .collect();
                prop_assert_eq!(topk.clone(), want_topk);
                prop_assert_eq!(*pct, bits(want.percentile(0.5)));
            }
        }

        // The final published snapshot's whole rank index (built
        // incrementally, round over round) matches the from-scratch
        // build: full ordering, not just the probed prefix.
        let final_snap = cell.load();
        prop_assert_eq!(final_snap.round(), rounds as u64);
        let got: Vec<(u32, u64)> = final_snap
            .top_k(nodes)
            .into_iter()
            .map(|(id, rep)| (id.0, rep.to_bits()))
            .collect();
        let want: Vec<(u32, u64)> = reference[rounds]
            .top_k(nodes)
            .into_iter()
            .map(|(id, rep)| (id.0, rep.to_bits()))
            .collect();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bytes never panic a wire decoder: an
    /// arbitrary stream, an arbitrary payload sealed in a well-formed
    /// frame (a checksum is no defence against a client that computes
    /// it), and every single-byte mutation or truncation of a valid
    /// frame come back as a typed error or as a value that re-encodes to
    /// itself.
    #[test]
    fn hostile_bytes_reach_the_wire_decoders_as_typed_errors(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
        sample in 0usize..6,
        at in 0usize..4096,
        flip in 1u8..=255,
    ) {
        use differential_gossip::serve::proto::{
            read_request, read_response, write_request, write_response, KIND_REQUEST,
            KIND_RESPONSE,
        };
        use differential_gossip::store::wire::{read_wire_frame, write_wire_frame, WireError};

        let _ = read_wire_frame(&mut &bytes[..], 1 << 16);
        let _ = read_request(&mut &bytes[..]);
        let _ = read_response(&mut &bytes[..]);

        // Half the payloads open with a tag the decoders know, so their
        // field readers see the garbage, not just the tag check.
        let mut payload = bytes.clone();
        if let Some(tag) = payload.first_mut().filter(|_| at % 2 == 0) {
            *tag %= 8;
        }
        for kind in [KIND_REQUEST, KIND_RESPONSE] {
            let mut sealed = Vec::new();
            write_wire_frame(&mut sealed, kind, &payload).expect("writes");
            if let Ok(request) = read_request(&mut &sealed[..]) {
                let mut again = Vec::new();
                write_request(&mut again, &request).expect("writes");
                let back = read_request(&mut &again[..]).expect("a decoded request re-encodes");
                prop_assert_eq!(format!("{back:?}"), format!("{request:?}"));
            }
            if let Ok(response) = read_response(&mut &sealed[..]) {
                let mut again = Vec::new();
                write_response(&mut again, &response).expect("writes");
                let back = read_response(&mut &again[..]).expect("a decoded response re-encodes");
                prop_assert_eq!(format!("{back:?}"), format!("{response:?}"));
            }
        }

        let mut valid = Vec::new();
        match sample {
            0 => write_request(&mut valid, &Request::TopK { k: 10 }),
            1 => write_request(&mut valid, &Request::Percentile { p: 0.5 }),
            2 => write_request(&mut valid, &Request::Ingest {
                source: 3,
                seq: 41,
                requester: 1,
                provider: 2,
                outcome: TransactionOutcome::Served { quality: 0.75 },
            }),
            3 => write_response(&mut valid, &Response::TopK {
                round: 9,
                entries: vec![(4, 0.9), (1, 0.5)],
            }),
            4 => write_response(&mut valid, &Response::Error { message: "unknown node 99".into() }),
            _ => write_response(&mut valid, &Response::Reputation { round: 3, reputation: None }),
        }
        .expect("writes");
        let is_request = sample < 3;
        let decodes = |stream: &[u8]| -> Result<(), WireError> {
            let mut stream = stream;
            if is_request {
                read_request(&mut stream).map(drop)
            } else {
                read_response(&mut stream).map(drop)
            }
        };
        decodes(&valid).expect("the unmutated frame decodes");

        // The digest covers every byte before it, so no single-byte
        // change survives.
        let mut mutated = valid.clone();
        mutated[at % valid.len()] ^= flip;
        prop_assert!(decodes(&mutated).is_err(), "byte {} ^ {flip:#04x}", at % valid.len());
        prop_assert!(read_wire_frame(&mut &mutated[..], 1 << 16).is_err());

        let cut = &valid[..at % valid.len()];
        prop_assert!(matches!(decodes(cut), Err(WireError::Io(_))), "cut at {}", cut.len());
    }
}
