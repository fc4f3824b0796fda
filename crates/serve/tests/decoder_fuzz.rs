//! Fuzzing for the two decoders that read network bytes: request frames
//! (`protocol::recv_message::<Request>` over the workspace JSON shim) and
//! UPDATE event batches (`LiveUpdater::apply_batch`). Every input must
//! come back as a value or a typed error — never a panic — and a rejected
//! batch must leave the live state exactly as it was.

use mc2ls_core::algorithms::{influence_sets_threaded, solve_threaded, Selector};
use mc2ls_core::{IqtConfig, Method, Problem};
use mc2ls_geo::Point;
use mc2ls_influence::{Model, MovingUser, Sigmoid};
use mc2ls_serve::protocol::{recv_message, send_message};
use mc2ls_serve::{
    LiveUpdater, ProposeRequest, QueryEngine, QueryRequest, Request, ServeError, WireEvent,
};
use proptest::prelude::*;
use rand::prelude::*;

/// Decodes `bytes` as one request frame. A panic fails the test; any
/// error must be one of the framing or protocol variants.
fn decode(bytes: &[u8]) -> Result<Option<Request>, ServeError> {
    let got = recv_message::<Request>(&mut &bytes[..]);
    if let Err(e) = &got {
        assert!(
            matches!(
                e,
                ServeError::Protocol(_)
                    | ServeError::FrameTooLarge(_)
                    | ServeError::ConnectionClosed
            ),
            "untyped decode error {e:?} for {bytes:?}"
        );
    }
    got
}

/// One frame per `Request` variant, with every optional field set.
fn frames() -> Vec<Vec<u8>> {
    let requests = [
        Request::Ping,
        Request::Query(QueryRequest {
            candidates: Some(vec![0, 3, 7]),
            k: 2,
            tau: 0.7,
            block_size: 16,
            selector: Selector::Auto,
            pf_exact: false,
            model: Model::Logit,
        }),
        Request::Stats,
        Request::Reload {
            path: "snapshots/ny-é.mc2s".into(),
        },
        Request::Update {
            events: vec![
                WireEvent {
                    op: "insert".into(),
                    user: 0,
                    xs: vec![1.5, -2.25],
                    ys: vec![0.0, 3.0e-7],
                },
                WireEvent {
                    op: "delete".into(),
                    user: 4,
                    xs: vec![],
                    ys: vec![],
                },
            ],
        },
        Request::Propose(ProposeRequest {
            window: 2.0,
            m: 5,
            min_separation: Some(0.5),
        }),
        Request::Shutdown,
    ];
    requests
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            send_message(&mut buf, r).expect("encode");
            buf
        })
        .collect()
}

/// `payload` behind a correct length prefix.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
    buf.extend_from_slice(payload);
    buf
}

#[test]
fn every_truncation_and_byte_flip_of_a_frame_decodes_to_ok_or_a_typed_error() {
    for frame in frames() {
        assert!(
            matches!(decode(&frame), Ok(Some(_))),
            "the intact frame decodes"
        );
        assert!(matches!(decode(&[]), Ok(None)), "no bytes is a clean close");
        for cut in 1..frame.len() {
            assert!(
                decode(&frame[..cut]).is_err(),
                "a frame cut at {cut} is an error"
            );
        }
        for at in 0..frame.len() {
            for flip in [0x01u8, 0x20, 0x80, 0xFF] {
                let mut bad = frame.clone();
                bad[at] ^= flip;
                let _ = decode(&bad);
            }
        }
    }
}

#[test]
fn well_shaped_json_with_bad_values_decodes_to_ok_or_a_typed_error() {
    let query = |k: &str, tau: &str, candidates: &str| {
        format!(
            r#"{{"Query":{{"candidates":{candidates},"k":{k},"tau":{tau},"block_size":16,"selector":"Auto","pf_exact":false}}}}"#
        )
    };
    let event = |user: &str, xs: &str| {
        format!(r#"{{"Update":{{"events":[{{"op":"move","user":{user},"xs":{xs},"ys":[0.0]}}]}}}}"#)
    };
    let mut payloads = vec![
        // Wrong types.
        query("\"two\"", "0.7", "null"),
        query("2", "\"0.7\"", "null"),
        query("2", "0.7", "[\"a\"]"),
        query("2", "0.7", "{}"),
        query("-2", "0.7", "null"),
        query("2.5", "0.7", "null"),
        event("\"u\"", "[0.0]"),
        event("0", "[\"x\"]"),
        event("-1", "[0.0]"),
        r#"{"Reload":{"path":5}}"#.to_string(),
        r#"{"Reload":null}"#.to_string(),
        r#"{"Propose":{"window":[],"m":1,"min_separation":null}}"#.to_string(),
        r#"{"Ping":{}}"#.to_string(),
        r#"{"Teleport":{}}"#.to_string(),
        r#""Pong""#.to_string(),
        "[]".to_string(),
        String::new(),
        // Overflowing numbers: past f64, past u64, past usize and u32.
        query("1e400", "1e400", "[1e400]"),
        query("18446744073709551616", "0.7", "[4294967296]"),
        query("2", "-1e400", "[18446744073709551615]"),
        event("4294967296", "[1e400]"),
        event("18446744073709551616", "[-1e999]"),
        r#"{"Propose":{"window":1e400,"m":18446744073709551616,"min_separation":-1e400}}"#
            .to_string(),
        // Lone and broken surrogates.
        r#"{"Reload":{"path":"\ud800"}}"#.to_string(),
        r#"{"Reload":{"path":"\udc00x"}}"#.to_string(),
        r#"{"Reload":{"path":"\ud800A"}}"#.to_string(),
        r#"{"Reload":{"path":"\u12"}}"#.to_string(),
        r#"{"Reload":{"path":"\uZZZZ"}}"#.to_string(),
    ];
    // Nesting past the JSON shim's depth limit, bare and inside a field.
    for depth in [127usize, 128, 129, 200, 5000] {
        payloads.push(format!("{}{}", "[".repeat(depth), "]".repeat(depth)));
        payloads.push("{\"a\":".repeat(depth) + "1" + &"}".repeat(depth));
        payloads.push(event(
            "0",
            &format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
        ));
    }
    payloads.push("[".repeat(100_000));
    for p in &payloads {
        let _ = decode(&framed(p.as_bytes()));
    }
    // Bytes that are not UTF-8 behind a valid prefix.
    assert!(matches!(
        decode(&framed(&[0xFF, 0xFE, b'{'])),
        Err(ServeError::Protocol(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Raw random bytes: any length prefix, any payload.
    #[test]
    fn random_bytes_decode_to_ok_or_a_typed_error(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = decode(&bytes);
    }

    /// Random payloads behind a correct prefix, drawn from JSON's own
    /// alphabet so the parser gets past its first byte.
    #[test]
    fn random_json_alphabet_payloads_decode_to_ok_or_a_typed_error(
        picks in prop::collection::vec(0usize..24, 0..64),
    ) {
        const ALPHABET: [&str; 24] = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d800", "null", "true",
            "-", "1e400", "0", "7.5", "\"Query\"", "\"Update\"", "\"events\"", "\"k\"",
            "\"op\"", "\"Ping\"", " ", "\"Propose\"",
        ];
        let payload: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = decode(&framed(payload.as_bytes()));
    }
}

/// A small dense instance whose mobility events flip memberships.
fn small_problem(seed: u64) -> Problem<Sigmoid> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pt = |r: &mut StdRng| Point::new(r.gen_range(-4.0..4.0), r.gen_range(-4.0..4.0));
    let users = (0..24)
        .map(|_| {
            let n = rng.gen_range(1..4);
            MovingUser::new((0..n).map(|_| pt(&mut rng)).collect())
        })
        .collect();
    let facilities = (0..5).map(|_| pt(&mut rng)).collect();
    let candidates = (0..8).map(|_| pt(&mut rng)).collect();
    Problem::new(
        users,
        facilities,
        candidates,
        3,
        0.25,
        Sigmoid::paper_default(),
    )
}

fn event(op: &str, user: u32, xs: Vec<f64>, ys: Vec<f64>) -> WireEvent {
    WireEvent {
        op: op.into(),
        user,
        xs,
        ys,
    }
}

/// A random batch against `n_slots` dense ids, all live. Valid events
/// track the batch's own inserts and deletes; with `poison`, one event is
/// replaced by an invalid one of a random kind.
fn random_batch(rng: &mut StdRng, n_slots: u32, poison: bool) -> Vec<WireEvent> {
    let coord = |r: &mut StdRng| r.gen_range(-4.0..4.0);
    let mut alive: Vec<u32> = (0..n_slots).collect();
    let mut dead: Vec<u32> = Vec::new();
    let mut next = n_slots;
    let len = rng.gen_range(1..8);
    let bad_at = poison.then(|| rng.gen_range(0..len));
    let mut batch = Vec::with_capacity(len);
    for i in 0..len {
        let n = rng.gen_range(1..4);
        let xs: Vec<f64> = (0..n).map(|_| coord(rng)).collect();
        let ys: Vec<f64> = (0..n).map(|_| coord(rng)).collect();
        let live = alive[rng.gen_range(0..alive.len())];
        if bad_at == Some(i) {
            batch.push(match rng.gen_range(0..8) {
                0 => event("teleport", live, xs, ys),
                1 => event("move", live, xs, vec![0.0; n + 1]),
                2 => event("insert", 0, vec![], vec![]),
                3 => event("checkin", live, vec![0.5, 1.5], vec![0.5, 1.5]),
                4 => event("move", live, vec![f64::NAN; n], ys),
                5 => event("insert", 0, xs, vec![f64::INFINITY; n]),
                6 => event("delete", next + rng.gen_range(0..1000u32), vec![], vec![]),
                _ => match dead.first() {
                    Some(&d) => event("checkin", d, vec![xs[0]], vec![ys[0]]),
                    None => event("move", u32::MAX, xs, ys),
                },
            });
            continue;
        }
        batch.push(match rng.gen_range(0..6) {
            0 => {
                alive.push(next);
                next += 1;
                event("insert", 0, xs, ys)
            }
            1 if alive.len() > 2 => {
                let user = alive.swap_remove(rng.gen_range(0..alive.len()));
                dead.push(user);
                event("delete", user, vec![], vec![])
            }
            2 | 3 => event("move", live, xs, ys),
            _ => event("checkin", live, vec![xs[0]], vec![ys[0]]),
        });
    }
    batch
}

/// Random mixes of valid and invalid events: a rejected batch changes
/// nothing the engine reports; an accepted one leaves exactly the state a
/// from-scratch build of the mutated instance computes.
#[test]
fn update_batches_are_all_or_nothing_and_match_a_rebuild() {
    let mut rejected = 0usize;
    let mut accepted = 0usize;
    for seed in 0..6u64 {
        let problem = small_problem(seed);
        let (mut live, _, _) = LiveUpdater::new("fuzz", &problem, 2.0, 1, 1 + seed as usize % 2);
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        for _ in 0..8 {
            let engine = live.engine();
            let n_slots = engine.n_slots();
            let stats = engine.stats().clone();
            let sets = engine.sets().clone();
            let alive: Vec<bool> = (0..n_slots as u32).map(|o| engine.is_alive(o)).collect();
            let poison = rng.gen_bool(0.5);
            let batch = random_batch(&mut rng, n_slots as u32, poison);
            match live.apply_batch(&batch, &[]) {
                Err(_) => {
                    rejected += 1;
                    let engine = live.engine();
                    assert_eq!(engine.stats(), &stats, "{batch:?}");
                    assert_eq!(engine.n_slots(), n_slots, "{batch:?}");
                    let now: Vec<bool> = (0..n_slots as u32).map(|o| engine.is_alive(o)).collect();
                    assert_eq!(now, alive, "{batch:?}");
                    assert_eq!(engine.sets(), &sets, "{batch:?}");
                }
                Ok((report, snapshot)) => {
                    accepted += 1;
                    assert_eq!(report.applied, batch.len() as u64);
                    let engine = live.engine();
                    let mutated = Problem::new(
                        engine.users().to_vec(),
                        problem.facilities.clone(),
                        problem.candidates.clone(),
                        problem.k,
                        problem.tau,
                        problem.pf,
                    );
                    let method = Method::Iqt(IqtConfig::iqt(2.0));
                    let (rebuilt, _, _) = influence_sets_threaded(&mutated, method, 1);
                    assert_eq!(engine.sets(), &rebuilt, "{batch:?}");
                    let direct = solve_threaded(&mutated, method, Selector::Auto, 1);
                    let served = QueryEngine::new(snapshot, 1)
                        .answer(&QueryRequest {
                            candidates: None,
                            k: problem.k,
                            tau: problem.tau,
                            block_size: problem.block_size,
                            selector: Selector::Auto,
                            pf_exact: false,
                            model: Model::Cumulative,
                        })
                        .expect("answer");
                    assert_eq!(served.solution.selected, direct.solution.selected);
                    assert_eq!(
                        served.solution.cinf.to_bits(),
                        direct.solution.cinf.to_bits()
                    );
                }
            }
        }
    }
    assert!(
        rejected >= 8 && accepted >= 8,
        "{rejected} rejected, {accepted} accepted"
    );
}
