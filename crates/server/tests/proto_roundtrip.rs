//! Protocol robustness: property-based round-trips of the wire frames.
//!
//! Every request the client encoder can produce must parse back to the
//! same frame — across arbitrary object names (including quotes,
//! backslashes, controls and non-ASCII, exercising the workspace's
//! single JSON escaper end to end) — and error responses must preserve
//! their machine-readable kind.

use proptest::prelude::*;
use sd_server::proto::{
    self, encode_error, encode_frame, encode_query_ok, parse_frame, parse_response, ErrorKind,
    Frame, QueryKind, QueryReq, Request, SystemDesc, WireError,
};

fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x2000, 0..10).prop_map(|cps| {
        cps.into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
            .collect()
    })
}

fn arb_names() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_name(), 0..4)
}

fn arb_desc() -> impl Strategy<Value = SystemDesc> {
    prop_oneof![
        (arb_name(), prop::collection::vec(-8i64..8, 0..3))
            .prop_map(|(name, params)| SystemDesc::Example { name, params }),
        arb_name().prop_map(|source| SystemDesc::Program { source }),
    ]
}

fn arb_query() -> impl Strategy<Value = QueryReq> {
    (
        0u64..u64::MAX,
        0u32..3,
        arb_names(),
        arb_name(),
        (0u32..2, arb_name()),
        (0u32..2, 0u64..1000),
        (0u32..2, 0u64..100_000),
    )
        .prop_map(
            |(system, kind, a, phi, (has_beta, beta), (has_bound, bound), (has_mp, mp))| {
                let kind = match kind {
                    0 => QueryKind::Depends,
                    1 => QueryKind::Sinks,
                    _ => QueryKind::SinksMatrix,
                };
                let mut q = QueryReq::sinks(system, a);
                q.kind = kind;
                if !phi.is_empty() {
                    q.phi = Some(phi);
                }
                match kind {
                    QueryKind::Depends => {
                        if has_beta == 1 {
                            q.beta = Some(beta);
                        } else {
                            q.set = vec![beta];
                        }
                        if has_bound == 1 {
                            q.bound = Some(bound as usize);
                        }
                    }
                    QueryKind::SinksMatrix => {
                        q.a = Vec::new();
                        q.sources = vec![vec![beta], Vec::new()];
                    }
                    QueryKind::Sinks => {}
                }
                if has_mp == 1 {
                    q.max_pairs = Some(mp);
                    q.timeout_ms = Some(mp / 7 + 1);
                }
                q
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Shutdown),
        (0u32..2).prop_map(|prom| Request::Metrics { prom: prom == 1 }),
        (0u32..2, 0u64..100_000).prop_map(|(has, n)| Request::SlowLog {
            limit: (has == 1).then_some(n)
        }),
        arb_desc().prop_map(Request::Register),
        arb_query().prop_map(Request::Query),
    ]
}

proptest! {
    #[test]
    fn request_frames_round_trip(req in arb_request(), id in 0u64..1_000_000, has_id in 0u32..2) {
        let frame = Frame { id: (has_id == 1).then_some(id), req };
        let line = encode_frame(&frame);
        let back = parse_frame(&line);
        prop_assert_eq!(back.as_ref().ok(), Some(&frame), "line: {}", line);
    }

    #[test]
    fn error_responses_round_trip(kind in 0u32..11, msg in arb_name(), id in 0u64..1000) {
        let kinds = [
            ErrorKind::Parse, ErrorKind::Protocol, ErrorKind::TooLarge,
            ErrorKind::UnknownMethod, ErrorKind::UnknownSystem, ErrorKind::Invalid,
            ErrorKind::Timeout, ErrorKind::Budget, ErrorKind::Overloaded,
            ErrorKind::ShuttingDown, ErrorKind::Internal,
        ];
        let err = WireError::new(kinds[kind as usize], msg.clone());
        let line = encode_error(Some(id), &err);
        let resp = parse_response(&line).unwrap();
        prop_assert!(!resp.ok);
        let got = resp.error.unwrap();
        prop_assert_eq!(got.kind, kinds[kind as usize]);
        prop_assert_eq!(got.message, msg);
    }

    #[test]
    fn answer_bytes_survive_the_envelope(names in arb_names(), id in 0u64..1000, cached in 0u32..2) {
        // A synthetic sinks answer with hostile object names: the raw
        // answer value spliced into the envelope must come back out
        // byte-for-byte.
        let mut j = sd_core::JsonBuf::new();
        j.begin_obj().str_field("type", "sinks");
        j.begin_arr_field("objects");
        for n in &names {
            j.str_elem(n);
        }
        j.end_arr().end_obj();
        let answer = j.finish();
        let line = encode_query_ok(Some(id), &answer, cached == 1, None);
        let resp = parse_response(&line).unwrap();
        prop_assert_eq!(resp.answer_raw.as_deref(), Some(answer.as_str()));
        prop_assert_eq!(resp.cached, cached == 1);
    }

    #[test]
    fn parser_never_panics_on_mutations(req in arb_request(), cut in 0usize..200, flip in 0usize..200) {
        // Truncations and byte flips of valid frames must fail (or
        // succeed) gracefully — never panic.
        let frame = Frame { id: Some(1), req };
        let line = encode_frame(&frame);
        let cut = cut.min(line.len());
        let mut truncated = line.clone();
        while !truncated.is_char_boundary(cut) && !truncated.is_empty() {
            truncated.pop();
        }
        if truncated.is_char_boundary(cut) {
            truncated.truncate(cut);
        }
        let _ = parse_frame(&truncated);
        let mut bytes = line.into_bytes();
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] = bytes[i].wrapping_add(1);
        }
        if let Ok(s) = String::from_utf8(bytes) {
            let _ = parse_frame(&s);
        }
    }
}

#[test]
fn malformed_frame_catalogue() {
    let cases: &[(&str, ErrorKind)] = &[
        ("{", ErrorKind::Parse),
        ("nonsense", ErrorKind::Parse),
        ("[]", ErrorKind::Protocol),
        ("123", ErrorKind::Protocol),
        (r#"{"id":"x","method":"ping"}"#, ErrorKind::Protocol),
        (r#"{"method":"warp"}"#, ErrorKind::UnknownMethod),
        (r#"{"method":"register"}"#, ErrorKind::Protocol),
        (
            r#"{"method":"register","example":"a","program":"b"}"#,
            ErrorKind::Protocol,
        ),
        (r#"{"method":"depends","system":"x"}"#, ErrorKind::Protocol),
        (
            r#"{"method":"sinks","system":1,"a":"alpha"}"#,
            ErrorKind::Protocol,
        ),
        (
            r#"{"method":"sinks","system":1,"a":[1]}"#,
            ErrorKind::Protocol,
        ),
        (
            r#"{"method":"sinks","system":1,"timeout_ms":-5}"#,
            ErrorKind::Protocol,
        ),
        (
            r#"{"method":"metrics","format":"xml"}"#,
            ErrorKind::Protocol,
        ),
        (r#"{"method":"slowlog","limit":-3}"#, ErrorKind::Protocol),
        (r#"{"method":"slowlog","limit":"all"}"#, ErrorKind::Protocol),
    ];
    for (line, want) in cases {
        let got = parse_frame(line).expect_err(line).kind;
        assert_eq!(got, *want, "frame {line:?}");
    }
}

#[test]
fn oversized_frame_is_rejected_without_parsing() {
    let line = format!(
        r#"{{"method":"ping","pad":"{}"}}"#,
        "y".repeat(proto::MAX_FRAME)
    );
    assert_eq!(parse_frame(&line).unwrap_err().kind, ErrorKind::TooLarge);
}
