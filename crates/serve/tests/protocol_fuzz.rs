//! Property suite for the wire-protocol parser.
//!
//! The contract: [`parse_request`] is **total**. Arbitrary lossy bytes —
//! raw garbage, bit-flipped frames, truncated frames — always map to
//! either a parsed request or a typed [`ProtocolError`] whose rendered
//! `"error"` frame is itself valid JSON that round-trips back through
//! [`ProtocolError::parse_frame`]. No input panics the parser, and no
//! malformed request escapes without a structured error frame.

use als_serve::{parse_request, ErrorCode, ProtocolError};
use als_telemetry::Json;
use proptest::collection;
use proptest::prelude::*;

/// A well-formed synthesize line the mutation properties start from.
const VALID_FRAME: &str = r#"{"v":2,"type":"synthesize","id":"j1","circuit":{"bench":"RCA32"},"threshold":0.05,"algorithm":"single","seed":9,"patterns":256,"max_iterations":12,"progress":true}"#;

/// Exercises the parser on one line and, on failure, checks the error
/// frame round-trips to the same typed error.
fn check_total(line: &str) {
    if let Err(err) = parse_request(line) {
        let rendered = err.frame().render();
        let parsed = Json::parse(&rendered).expect("error frame renders as valid JSON");
        let round = ProtocolError::parse_frame(&parsed).expect("error frame round-trips");
        assert_eq!(round.code, err.code);
        assert_eq!(round.message, err.message);
        assert_eq!(round.id, err.id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Raw arbitrary bytes (lossily decoded, as the daemon's reader does)
    /// never panic the parser.
    #[test]
    fn parser_is_total_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        check_total(&line);
    }

    /// Bit-flipped valid frames — the classic lossy-transport corruption —
    /// never panic and always round-trip their error frames.
    #[test]
    fn parser_survives_bit_flips_of_a_valid_frame(spec in (0usize..VALID_FRAME.len(), 0u8..8)) {
        let (pos, bit) = spec;
        let mut bytes = VALID_FRAME.as_bytes().to_vec();
        bytes[pos] ^= 1 << bit;
        let line = String::from_utf8_lossy(&bytes).into_owned();
        check_total(&line);
    }

    /// Truncated valid frames (a client dying mid-write) never panic and
    /// always produce a typed error.
    #[test]
    fn parser_rejects_truncations_with_typed_errors(cut in 0usize..VALID_FRAME.len()) {
        let line = &VALID_FRAME[..cut];
        check_total(line);
        // A strict prefix of the frame is never a complete JSON object, so
        // truncation must surface as a typed error, not a parsed request.
        let err = parse_request(line).expect_err("truncated frame parsed");
        assert!(
            matches!(err.code, ErrorCode::BadJson | ErrorCode::BadRequest | ErrorCode::UnsupportedVersion),
            "unexpected code {:?} for cut {cut}",
            err.code
        );
    }

    /// Structured-but-wrong frames: arbitrary type strings and version
    /// numbers still land in the typed-error space.
    #[test]
    fn arbitrary_types_and_versions_are_typed_errors(spec in (any::<u64>(), collection::vec(any::<u8>(), 0..24))) {
        let (version, type_bytes) = spec;
        let ty = String::from_utf8_lossy(&type_bytes).into_owned();
        let mut obj = Json::object();
        obj.set("v", version).set("type", ty.as_str()).set("id", "fuzz");
        let line = obj.render();
        check_total(&line);
    }
}
