//! Property tests for the sweep cell codec, which reads untrusted text twice:
//! cell specs and result payloads arrive over fleet TCP, and payloads come back
//! off disk as digest-cache entries.
//!
//! * `decode_cell_spec` and `decode_cell_outcomes` never panic on arbitrary
//!   text, nor on a valid payload with a span replaced by arbitrary text.
//! * Generated specs and outcome sets, with text that needs escaping and
//!   floats drawn from every non-NaN bit pattern, round-trip bit-exactly and
//!   re-encode to the same bytes.
//!
//! `PROPTEST_CASES` sets the case count (CI runs 500 in release).

use std::path::Path;

use grass_core::{Bound, JobId, JobOutcome};
use grass_experiments::fleet::{
    decode_cell_outcomes, decode_cell_spec, encode_cell_outcomes, encode_cell_spec,
};
use grass_experiments::{FleetCellSpec, PolicyKind};
use grass_metrics::OutcomeSet;
use proptest::prelude::*;

/// Text fragments hostile input is drawn from: every tag and key of both
/// encodings, policy names, bound forms, numbers at and past the integer
/// limits, escapes (well-formed, truncated and non-hex), spaces, line breaks
/// and non-ASCII text.
const TOKENS: &[&str] = &[
    "cellresult v1 outcomes=",
    "cellresult",
    "v1",
    "outcomes=",
    "outcome ",
    "job=",
    "policy=",
    "bound=",
    "input_tasks=",
    "finish=",
    "avg_estimation_accuracy=",
    "machines=",
    "seed=",
    "slots=",
    "trace=",
    "grass",
    "grass-sketch",
    "deadline:",
    "error:",
    "=",
    " ",
    "  ",
    "\n",
    "\r\n",
    "\t",
    ":",
    "0",
    "1",
    "-1",
    "0.5",
    "-0",
    "1e308",
    "1e309",
    "inf",
    "NaN",
    "18446744073709551615",
    "18446744073709551616",
    "%20",
    "%",
    "%4",
    "%zz",
    "%c3%a9",
    "%ff",
    "é",
    "\u{a0}",
    "\0",
];

/// Characters a policy label or trace path is drawn from: everything `escape`
/// must protect, plus plain letters and multi-byte text.
const VALUE_CHARS: &str = "wZ0 =%:|,/.\n\r\t\x0b\x0c\x1f\x7f\0é\u{a0}\u{2028}日";

/// Every policy a cell spec can name.
fn named_policies() -> [PolicyKind; 7] {
    [
        PolicyKind::Late,
        PolicyKind::Mantri,
        PolicyKind::NoSpec,
        PolicyKind::GsOnly,
        PolicyKind::RasOnly,
        PolicyKind::Oracle,
        PolicyKind::grass(),
    ]
}

fn text_of(picks: &[usize], alphabet: &[&str]) -> String {
    picks
        .iter()
        .map(|&i| alphabet[i % alphabet.len()])
        .collect()
}

fn value_of(picks: &[usize]) -> String {
    let chars: Vec<char> = VALUE_CHARS.chars().collect();
    picks.iter().map(|&i| chars[i % chars.len()]).collect()
}

/// A float from `bits`: one in eight is an edge value, the rest the bit
/// pattern itself, with NaNs (which do not keep their bits through `Display`)
/// folded onto finite values.
fn float(bits: u64) -> f64 {
    const EDGES: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        0.30000000000000004,
    ];
    let value = f64::from_bits(bits);
    if bits.is_multiple_of(8) {
        EDGES[(bits >> 3) as usize % EDGES.len()]
    } else if value.is_nan() {
        f64::from_bits(bits & !(0x7ff << 52))
    } else {
        value
    }
}

/// An outcome whose every field comes from `w` (16 words) and `policy`.
fn outcome(w: &[u64], policy: String) -> JobOutcome {
    JobOutcome {
        job: JobId(w[0]),
        policy,
        bound: match w[1] % 2 {
            0 => Bound::Deadline(float(w[2])),
            _ => Bound::Error(float(w[2])),
        },
        input_tasks: w[3] as usize,
        total_tasks: w[4] as usize,
        dag_length: w[5] as usize,
        arrival: float(w[6]),
        finish: float(w[7]),
        completed_input_tasks: w[8] as usize,
        completed_tasks: w[9] as usize,
        speculative_copies: w[10] as usize,
        killed_copies: w[11] as usize,
        slot_seconds: float(w[12]),
        avg_wave_width: float(w[13]),
        avg_cluster_utilization: float(w[14]),
        avg_estimation_accuracy: float(w[15]),
    }
}

proptest! {
    #[test]
    fn decoders_never_panic_on_arbitrary_text(
        picks in prop::collection::vec(0usize..256, 0..48),
    ) {
        let text = text_of(&picks, TOKENS);
        // Results are not checked: any `Ok` or `Err` is fine, a panic is not.
        let _ = decode_cell_spec(&text);
        let _ = decode_cell_outcomes(&text);
        let _ = decode_cell_outcomes(&format!("cellresult v1 outcomes=1\noutcome {text}"));
    }

    #[test]
    fn corrupted_payloads_fail_cleanly(
        words in prop::collection::vec(any::<u64>(), 16..48),
        (start, len) in (0usize..4096, 0usize..64),
        picks in prop::collection::vec(0usize..256, 0..8),
    ) {
        let set = OutcomeSet::new(
            words.chunks_exact(16).map(|w| outcome(w, "GS".into())).collect(),
        );
        let payload = encode_cell_outcomes(&set);
        // Replace a span of the valid payload (it is ASCII, so any byte
        // offset is a char boundary) with arbitrary text.
        let start = start % payload.len();
        let end = (start + len).min(payload.len());
        let corrupted = format!(
            "{}{}{}",
            &payload[..start],
            text_of(&picks, TOKENS),
            &payload[end..]
        );
        if let Ok(decoded) = decode_cell_outcomes(&corrupted) {
            // Whatever still decodes is a well-formed set: it re-encodes and
            // decodes back to itself.
            let again = decode_cell_outcomes(&encode_cell_outcomes(&decoded)).unwrap();
            prop_assert_eq!(format!("{:?}", again.all()), format!("{:?}", decoded.all()));
        }
    }

    #[test]
    fn generated_outcome_sets_round_trip_bit_exactly(
        words in prop::collection::vec(any::<u64>(), 0..96),
        names in prop::collection::vec(prop::collection::vec(0usize..64, 0..12), 6..7),
    ) {
        let outcomes: Vec<JobOutcome> = words
            .chunks_exact(16)
            .zip(&names)
            .map(|(w, name)| outcome(w, value_of(name)))
            .collect();
        let set = OutcomeSet::new(outcomes);
        let payload = encode_cell_outcomes(&set);
        let decoded = decode_cell_outcomes(&payload).unwrap();
        // `Debug` prints each float's shortest round-trip form, signed zeros
        // included, so equal renderings mean equal bits.
        prop_assert_eq!(format!("{:?}", decoded.all()), format!("{:?}", set.all()));
        prop_assert_eq!(encode_cell_outcomes(&decoded), payload);
    }

    #[test]
    fn generated_specs_round_trip(
        trace in prop::collection::vec(0usize..64, 0..24),
        (machines, seed, slots) in (any::<usize>(), any::<u64>(), any::<usize>()),
        policy in 0usize..7,
    ) {
        let trace = value_of(&trace);
        let cell = FleetCellSpec {
            machines,
            policy: named_policies()[policy].clone(),
            seed,
        };
        let spec = encode_cell_spec(Path::new(&trace), &cell, slots).unwrap();
        prop_assert!(!spec.contains('\n'), "{spec:?}");
        let (decoded_trace, decoded, decoded_slots) = decode_cell_spec(&spec).unwrap();
        prop_assert_eq!(decoded_trace.to_str(), Some(trace.as_str()));
        prop_assert_eq!(&decoded, &cell);
        prop_assert_eq!(decoded_slots, slots);
        prop_assert_eq!(encode_cell_spec(&decoded_trace, &decoded, decoded_slots).unwrap(), spec);
    }
}
