//! Property tests for the incremental chunked-transfer decoder.
//!
//! The decoder feeds the coordinator's long-lived `POST /shards` result
//! streams, where a chunk-size line routinely arrives split across TCP
//! reads — so every property here drives [`ChunkedReader`] through a
//! dribbling reader that returns at most a few bytes per call, with the
//! split points varied by the per-case seed.  Covered: arbitrary bodies
//! round-trip bytewise under arbitrary chunking and read splits, chunk
//! extensions are stripped, a `0`-sized chunk terminates the body
//! mid-stream, a missing trailing CRLF after the terminal chunk is
//! tolerated, and a truncated chunk payload is a hard `UnexpectedEof`.

mod common;

use common::{read_splits, Dribble, Mix};
use ld_serve::client::ChunkedReader;
use proptest::prelude::*;
use std::io::{ErrorKind, Read};

/// Splits `body` into chunks with seed-chosen sizes and renders the wire
/// encoding; every third chunk carries an extension to be stripped.
fn encode(body: &[u8], mix: &mut Mix, final_crlf: bool) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut rest = body;
    let mut index = 0usize;
    while !rest.is_empty() {
        let take = (1 + mix.below(rest.len() as u64)) as usize;
        if index % 3 == 2 {
            wire.extend_from_slice(format!("{take:x};seq={index}\r\n").as_bytes());
        } else {
            wire.extend_from_slice(format!("{take:x}\r\n").as_bytes());
        }
        wire.extend_from_slice(&rest[..take]);
        wire.extend_from_slice(b"\r\n");
        rest = &rest[take..];
        index += 1;
    }
    wire.extend_from_slice(if final_crlf { b"0\r\n\r\n" } else { b"0\r\n" });
    wire
}

fn seeded_body(mix: &mut Mix, len: usize) -> Vec<u8> {
    (0..len).map(|_| (mix.next() & 0xff) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn arbitrary_bodies_round_trip_under_arbitrary_splits(
        seed in any::<u64>(),
        len in 1usize..120,
        final_crlf in any::<bool>(),
    ) {
        let mut mix = Mix(seed);
        let body = seeded_body(&mut mix, len);
        let wire = encode(&body, &mut mix, final_crlf);
        let splits = read_splits(&mut mix);
        let mut reader = ChunkedReader::new(Dribble::new(wire, splits));
        let mut decoded = Vec::new();
        let outcome = reader.read_to_end(&mut decoded);
        prop_assert!(outcome.is_ok(), "decode failed: {:?}", outcome);
        prop_assert_eq!(decoded, body);
    }

    #[test]
    fn zero_chunk_terminates_mid_stream_before_later_chunks(
        seed in any::<u64>(),
        len in 1usize..60,
    ) {
        let mut mix = Mix(seed);
        let body = seeded_body(&mut mix, len);
        let mut wire = encode(&body, &mut mix, true);
        // More framed data after the terminal chunk: a decoder that keeps
        // going would happily absorb it.
        wire.extend_from_slice(b"a\r\nEXTRA-DATA\r\n0\r\n\r\n");
        let splits = read_splits(&mut mix);
        let mut reader = ChunkedReader::new(Dribble::new(wire, splits));
        let mut decoded = Vec::new();
        let outcome = reader.read_to_end(&mut decoded);
        prop_assert!(outcome.is_ok(), "decode failed: {:?}", outcome);
        prop_assert_eq!(decoded, body);
    }

    #[test]
    fn truncated_payloads_are_a_hard_unexpected_eof(
        seed in any::<u64>(),
        len in 2usize..60,
    ) {
        let mut mix = Mix(seed);
        let body = seeded_body(&mut mix, len);
        let wire = encode(&body, &mut mix, true);
        // Cut inside the first chunk's payload: after its size line and
        // CRLF but before its declared byte count is satisfied.
        let header_end = wire
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("size line terminator")
            + 2;
        let cut = header_end + mix.below((wire.len() - header_end).min(len) as u64) as usize;
        let splits = read_splits(&mut mix);
        let mut reader = ChunkedReader::new(Dribble::new(wire[..cut].to_vec(), splits));
        let mut decoded = Vec::new();
        let err = reader
            .read_to_end(&mut decoded)
            .expect_err("truncated payload must fail");
        prop_assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_size_lines_are_invalid_data(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let wire = b"not-hex\r\nwhatever\r\n0\r\n\r\n".to_vec();
        let splits = read_splits(&mut mix);
        let mut reader = ChunkedReader::new(Dribble::new(wire, splits));
        let mut decoded = Vec::new();
        let err = reader
            .read_to_end(&mut decoded)
            .expect_err("garbage size must fail");
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
}
