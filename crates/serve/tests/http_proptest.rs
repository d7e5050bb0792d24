//! Property tests for the daemon's request reader, `http::read_request`,
//! driven through a dribbling reader so lines and bodies land split across
//! reads at seed-chosen points.  Covered: arbitrary bytes end in `Ok` or a
//! typed `HttpError`; well-formed requests round-trip their method, target,
//! headers and body; and a line longer than `MAX_LINE` is malformed after
//! reading at most one byte past the cap, whether or not it ever ends.

mod common;

use common::{read_splits, Dribble, Mix};
use ld_serve::http::{read_request, HttpError, MAX_LINE};
use proptest::prelude::*;

/// Bytes that reach the reader's deeper states more often than uniform
/// noise would: line breaks, separators and request-line tokens.
const ALPHABET: &[u8] = b"\r\n\r\n: :/GET POST HTTP/1.1 content-length0123456789abc";

fn pick(mix: &mut Mix, from: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| char::from(from[mix.below(from.len() as u64) as usize]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn arbitrary_bytes_end_in_a_request_or_a_typed_error(
        seed in any::<u64>(),
        len in 0usize..400,
        noisy in any::<bool>(),
    ) {
        let mut mix = Mix(seed);
        let wire: Vec<u8> = if noisy {
            (0..len).map(|_| (mix.next() & 0xff) as u8).collect()
        } else {
            pick(&mut mix, ALPHABET, len).into_bytes()
        };
        let splits = read_splits(&mut mix);
        match read_request(&mut Dribble::new(wire, splits)) {
            Ok(Some(request)) => prop_assert!(request.body.len() <= len),
            Ok(None) => prop_assert_eq!(len, 0),
            Err(HttpError::Malformed(_) | HttpError::TooLarge(_) | HttpError::Io(_)) => {}
        }
    }

    #[test]
    fn well_formed_requests_round_trip_under_dribbled_reads(
        seed in any::<u64>(),
        header_count in 0usize..12,
        body_len in 0usize..300,
    ) {
        let mut mix = Mix(seed);
        let method = ["GET", "POST", "DELETE", "PUT"][mix.below(4) as usize];
        let len = 1 + mix.below(30) as usize;
        let target = format!("/{}", pick(&mut mix, b"abc019/?=&", len));
        // Names never collide with Content-Length; values carry colons but
        // no edge whitespace, which the reader trims.
        let headers: Vec<(String, String)> = (0..header_count)
            .map(|_| {
                let (n, v) = (1 + mix.below(12) as usize, mix.below(40) as usize);
                let name = format!("x-{}", pick(&mut mix, b"abcxyz-", n));
                (name, format!("v{}v", pick(&mut mix, b"az09:;=/., -", v)))
            })
            .collect();
        let body: Vec<u8> = (0..body_len).map(|_| (mix.next() & 0xff) as u8).collect();

        let mut wire = format!("{method} {target} HTTP/1.1\r\n");
        for (name, value) in &headers {
            wire.push_str(&format!("{name}: {value}\r\n"));
        }
        wire.push_str(&format!("Content-Length: {body_len}\r\n\r\n"));
        let mut wire = wire.into_bytes();
        wire.extend_from_slice(&body);

        let splits = read_splits(&mut mix);
        let request = match read_request(&mut Dribble::new(wire, splits)) {
            Ok(Some(request)) => request,
            other => return Err(TestCaseError::fail(format!("parse failed: {other:?}"))),
        };
        prop_assert_eq!(request.method.as_str(), method);
        prop_assert_eq!(request.target.as_str(), target.as_str());
        prop_assert_eq!(&request.headers[..header_count], &headers[..]);
        prop_assert_eq!(request.body, body);
    }

    #[test]
    fn lines_past_the_cap_are_rejected_after_bounded_reads(
        seed in any::<u64>(),
        excess in 1usize..2_000,
        in_header in any::<bool>(),
        terminated in any::<bool>(),
    ) {
        let mut mix = Mix(seed);
        let (prefix, at_cap) = capped_request(in_header, MAX_LINE, true);
        let at_cap = read_request(&mut Dribble::new(at_cap, read_splits(&mut mix)));
        prop_assert!(matches!(at_cap, Ok(Some(_))), "a line at the cap must parse");
        // An unterminated line runs on well past the cap.
        let len = if terminated { MAX_LINE + excess } else { 2 * MAX_LINE + excess };
        let (_, wire) = capped_request(in_header, len, terminated);
        let mut reader = Dribble::new(wire, read_splits(&mut mix));
        let outcome = read_request(&mut reader).map(|_| "a request");
        prop_assert!(matches!(outcome, Err(HttpError::Malformed(_))), "{:?}", outcome);
        prop_assert!(reader.pos <= prefix + MAX_LINE + 1, "read {} bytes", reader.pos);
    }
}

/// A request whose request line (or, `in_header`, first header line) is
/// `len` bytes long counting its CRLF, which is left off unless
/// `terminated`; also returns the length of the well-formed prefix.
fn capped_request(in_header: bool, len: usize, terminated: bool) -> (usize, Vec<u8>) {
    let prefix = if in_header {
        "GET /jobs HTTP/1.1\r\n"
    } else {
        ""
    };
    let line = if in_header {
        format!("x-long: {}", "a".repeat(len - 10))
    } else {
        format!("GET /{} HTTP/1.1", "a".repeat(len - 16))
    };
    let end = if terminated { "\r\n\r\n" } else { "" };
    (prefix.len(), format!("{prefix}{line}{end}").into_bytes())
}
