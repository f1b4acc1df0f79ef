//! Property tests on `json::parse`: it is total over any input, it reads
//! back every document the exporter writes, and it refuses every
//! truncation of one.

use compresso_telemetry::json::{parse, JsonValue};
use compresso_telemetry::{
    render_doc, validate_metrics_doc, CellMetrics, Epoch, LatencyHistogram, MetricValue,
    MetricsDoc, MetricsReport, Snapshot, METRICS_SCHEMA,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A character from one of six pools: printable ASCII, JSON's own
/// punctuation, control characters, and 2-, 3- and 4-byte UTF-8.
fn pick_char(pool: u8, r: u32) -> char {
    let code = match pool {
        0 => 0x20 + r % 0x5f,
        1 => b"\"\\/{}[]:,"[r as usize % 9] as u32,
        2 => r % 0x20,
        3 => 0x80 + r % 0x780,
        4 => 0x800 + r % 0xf800,
        _ => 0x10000 + r % 0x100000,
    };
    char::from_u32(code).unwrap_or('\u{fffd}')
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..6, any::<u32>()), 0..8).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(pool, r)| pick_char(pool, r))
            .collect()
    })
}

/// A metric: any counter or gauge value, or a histogram over up to four
/// bounds with samples on both sides of them.
fn arb_metric() -> impl Strategy<Value = (String, MetricValue)> {
    (
        arb_text(),
        0u8..3,
        any::<u64>(),
        prop::collection::vec(0u64..10_000, 1..5),
        prop::collection::vec(0u64..12_000, 0..6),
    )
        .prop_map(|(name, kind, raw, mut bounds, samples)| {
            let value = match kind {
                0 => MetricValue::Counter(raw),
                1 => MetricValue::Gauge(raw as i64),
                _ => {
                    bounds.sort_unstable();
                    bounds.dedup();
                    let hist = LatencyHistogram::with_bounds(&bounds);
                    for sample in samples {
                        hist.record(sample);
                    }
                    MetricValue::Histogram(Box::new(hist.snapshot()))
                }
            };
            (name, value)
        })
}

/// A registry snapshot: sorted by name, each name once.
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    prop::collection::vec(arb_metric(), 0..4).prop_map(|metrics| Snapshot {
        metrics: metrics
            .into_iter()
            .collect::<BTreeMap<_, _>>()
            .into_iter()
            .map(|(name, value)| (Arc::from(name), value))
            .collect(),
    })
}

fn arb_cell() -> impl Strategy<Value = CellMetrics> {
    (
        arb_text(),
        any::<u64>(),
        arb_snapshot(),
        prop::collection::vec((1u64..1_000, arb_snapshot()), 0..3),
    )
        .prop_map(|(label, wall_millis, last, epochs)| {
            let mut tick = 0;
            let epochs = epochs
                .into_iter()
                .map(|(step, snapshot)| {
                    tick += step;
                    Epoch { tick, snapshot }
                })
                .collect();
            CellMetrics {
                label,
                wall_millis,
                report: MetricsReport {
                    last,
                    epochs,
                    epoch_len: 0,
                },
            }
        })
}

fn arb_doc() -> impl Strategy<Value = MetricsDoc> {
    (
        arb_text(),
        arb_text(),
        any::<u64>(),
        prop::collection::vec(arb_cell(), 1..3),
    )
        .prop_map(|(source, unit, epoch_len, cells)| {
            MetricsDoc::new(&source, &unit, epoch_len, cells)
        })
}

fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: u64) -> JsonValue {
    JsonValue::Int(n.into())
}

fn nums(values: &[u64]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&n| num(n)).collect())
}

/// What parsing the exported `snapshot` must give: every integer
/// exactly, the histogram mean as the `f64` it is, every string as
/// written.
fn expected_metrics(snapshot: &Snapshot) -> JsonValue {
    let text = |s: &str| JsonValue::Str(s.to_string());
    JsonValue::Obj(
        snapshot
            .metrics
            .iter()
            .map(|(name, value)| {
                let metric = match value {
                    MetricValue::Counter(c) => obj([("type", text("counter")), ("value", num(*c))]),
                    MetricValue::Gauge(g) => obj([
                        ("type", text("gauge")),
                        ("value", JsonValue::Int((*g).into())),
                    ]),
                    MetricValue::Histogram(h) => obj([
                        ("type", text("histogram")),
                        ("count", num(h.count)),
                        ("sum", num(h.sum)),
                        ("max", num(h.max)),
                        ("mean", JsonValue::Num(h.mean())),
                        ("p50", num(h.p50())),
                        ("p95", num(h.p95())),
                        ("p99", num(h.p99())),
                        ("bounds", nums(&h.bounds)),
                        ("counts", nums(&h.counts)),
                    ]),
                };
                (name.to_string(), metric)
            })
            .collect(),
    )
}

fn expected_doc(doc: &MetricsDoc) -> JsonValue {
    let text = |s: &str| JsonValue::Str(s.to_string());
    let cells = doc.cells.iter().map(|cell| {
        let epochs = cell.report.epochs.iter().map(|epoch| {
            obj([
                ("tick", num(epoch.tick)),
                ("metrics", expected_metrics(&epoch.snapshot)),
            ])
        });
        obj([
            ("label", text(&cell.label)),
            ("wall_millis", num(cell.wall_millis)),
            ("metrics", expected_metrics(&cell.report.last)),
            ("epochs", JsonValue::Arr(epochs.collect())),
        ])
    });
    obj([
        ("schema", text(METRICS_SCHEMA)),
        ("source", text(&doc.source)),
        ("epoch_unit", text(&doc.epoch_unit)),
        ("epoch_len", num(doc.epoch_len)),
        ("cells", JsonValue::Arr(cells.collect())),
    ])
}

/// JSON's tokens and near-tokens, for inputs the grammar gets far into.
const TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    ":",
    ",",
    " ",
    "\n",
    "\\u",
    "\\u12",
    "0",
    "7",
    "-",
    "+",
    ".",
    "e",
    "E",
    "true",
    "fals",
    "null",
    "é",
    "\u{1f600}",
];

fn arb_token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..TOKENS.len(), 0..64)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// Edits of an exported document, each at a position: delete a
/// character, insert a token, or insert a token repeated up to 192 times
/// (past the nesting bound).
fn mutate(text: &str, edits: &[(u32, u8, u8)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(at, token, kind) in edits {
        let at = at as usize % (chars.len() + 1);
        let copies = match kind {
            0..=63 if at < chars.len() => {
                chars.remove(at);
                continue;
            }
            0..=191 => 1,
            _ => 3 * (kind as usize - 191),
        };
        let insert = TOKENS[token as usize % TOKENS.len()].repeat(copies);
        chars.splice(at..at, insert.chars());
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_input_panics_the_parser(
        soup in arb_token_soup(),
        text in arb_text(),
        doc in arb_doc(),
        edits in prop::collection::vec((any::<u32>(), any::<u8>(), any::<u8>()), 1..5),
    ) {
        // Every prefix of the short inputs: a token cut anywhere.
        for input in [soup, text] {
            for cut in (0..=input.len()).filter(|&cut| input.is_char_boundary(cut)) {
                let _ = parse(&input[..cut]);
            }
        }
        let _ = parse(&mutate(&render_doc(&doc), &edits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exported_documents_round_trip(doc in arb_doc()) {
        let text = render_doc(&doc);
        let parsed = parse(&text).expect("an exported document parses");
        prop_assert_eq!(&parsed, &expected_doc(&doc), "{}", text);
        prop_assert_eq!(validate_metrics_doc(&parsed), Vec::<String>::new());
    }

    #[test]
    fn every_truncation_of_an_exported_document_is_an_error(doc in arb_doc()) {
        let text = render_doc(&doc);
        let close = text.rfind('}').expect("a document is an object");
        for cut in (0..=close).filter(|&cut| text.is_char_boundary(cut)) {
            prop_assert!(parse(&text[..cut]).is_err(), "accepted {:?}", &text[..cut]);
        }
    }
}
