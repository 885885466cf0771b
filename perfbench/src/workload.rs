//! The three workloads: catalog, standing views, `dbtoasterd` flags and
//! the generated event streams, all derived from `--seed`.

use dbtoaster_common::{Catalog, ColumnType, Event, EventKind, UpdateStream};
use dbtoaster_workloads::orderbook::{
    orderbook_catalog, OrderBookConfig, OrderBookGenerator, MARKET_MAKER, SOBI, VWAP_COMPONENTS,
    VWAP_NESTED,
};
use dbtoaster_workloads::tpch::{
    ssb_catalog, transform_to_ssb, TpchConfig, TpchData, SSB_Q41, SSB_REVENUE_BY_YEAR,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["orderbook", "ssb_q41", "nested_observed"];

/// Events per feed-plane batch in phase 3 (and per in-process batch in
/// the traced run).
pub const FEED_BATCH: usize = 1024;

/// Observability flags of the production configuration, and the
/// matching in-process sampling rates.
pub const OBSERVED_FLAGS: [&str; 6] = [
    "--metrics-listen",
    "127.0.0.1:0",
    "--trace-sample",
    "1024",
    "--audit-sample",
    "1024",
];
pub const OBSERVED_SAMPLE_ONE_IN: u64 = 1024;

/// One workload, fully generated.
pub struct Workload {
    pub name: &'static str,
    pub catalog: Catalog,
    pub views: Vec<(&'static str, &'static str)>,
    /// Runs the server with [`OBSERVED_FLAGS`]; otherwise the server
    /// runs its default configuration.
    pub observed: bool,
    /// What the stream feeds, pass by pass.
    pub feed: Feed,
    /// Events of the first pass sent one `apply_batch` each in phase 2.
    pub rtt_events: usize,
    /// Feed batches per timed phase-3 segment: about 0.1 s of feed.
    pub segment_batches: usize,
    /// A small stream of the same generator and seed, checked against
    /// the `exec` interpreter (which re-evaluates views by nested loops
    /// and cannot re-evaluate the full-size state within a run).
    pub oracle: UpdateStream,
    /// Human-readable traffic description for the run report.
    pub traffic: String,
}

/// The fed sequence: `passes` alternating passes over `forward` and its
/// inverse (`forward` reversed with inserts and deletes swapped), so a
/// long feed keeps a bounded, realistic state: the book builds up, runs
/// at depth and winds down again, pass after pass.
pub struct Feed {
    pub forward: Vec<Event>,
    pub backward: Vec<Event>,
    pub passes: usize,
}

impl Feed {
    fn new(forward: Vec<Event>, passes: usize) -> Feed {
        let backward = if passes > 1 {
            forward
                .iter()
                .rev()
                .map(|e| Event {
                    kind: match e.kind {
                        EventKind::Insert => EventKind::Delete,
                        EventKind::Delete => EventKind::Insert,
                    },
                    ..e.clone()
                })
                .collect()
        } else {
            Vec::new()
        };
        Feed {
            forward,
            backward,
            passes,
        }
    }

    fn pass(&self, i: usize) -> &[Event] {
        if i.is_multiple_of(2) {
            &self.forward
        } else {
            &self.backward
        }
    }

    /// Events of the whole feed.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.forward.len() * self.passes
    }

    /// The first `n` events, sent one by one in phase 2.
    pub fn singles(&self, n: usize) -> &[Event] {
        &self.forward[..n.min(self.forward.len())]
    }

    /// The phase-3 batches after `skip` single events: the rest of the
    /// first pass, then every further pass, in chunks of
    /// [`FEED_BATCH`] that never span two passes. The feeder and the
    /// in-process reference replay exactly this sequence.
    pub fn batches(&self, skip: usize) -> impl Iterator<Item = &[Event]> + '_ {
        self.batches_in(skip, self.passes)
    }

    /// [`Feed::batches`] of the first `passes` passes only.
    pub fn batches_in(&self, skip: usize, passes: usize) -> impl Iterator<Item = &[Event]> + '_ {
        (0..passes.min(self.passes)).flat_map(move |i| {
            let pass = self.pass(i);
            let from = if i == 0 { skip.min(pass.len()) } else { 0 };
            pass[from..].chunks(FEED_BATCH)
        })
    }
}

/// Feed volume per second of `--seconds`: more than phase 3 can feed in
/// its share of the run on a 2-core host, so the phase is time-boxed.
/// Passes are slices of one generated pass, so volume costs no memory.
const ORDERBOOK_EVENTS_PER_SECOND: usize = 400_000;
const NESTED_EVENTS_PER_SECOND: usize = 200_000;

fn orderbook_stream(messages: usize, book_depth: usize, seed: u64) -> UpdateStream {
    OrderBookGenerator::new(OrderBookConfig {
        messages,
        book_depth,
        seed,
        ..Default::default()
    })
    .generate()
}

/// The order-book traffic in words, with the forward pass's measured
/// insert share.
fn book_traffic(depth: usize, forward: &UpdateStream, passes: usize) -> String {
    let inserts = forward
        .iter()
        .filter(|e| e.kind == EventKind::Insert)
        .count();
    let pct = 100.0 * inserts as f64 / forward.len() as f64;
    format!(
        "order book of depth {depth} per side; {passes} passes of {} events, \
         alternately forward and inverted (reversed, inserts and deletes \
         swapped); forward pass {pct:.1}% inserts, {:.1}% deletes; messages \
         60% new order (retiring a random one at depth), 20% modify (delete \
         + insert), 20% withdraw",
        forward.len(),
        100.0 - pct
    )
}

fn passes_for(events: usize, pass_len: usize) -> usize {
    events.div_ceil(pass_len).max(1)
}

/// Build a workload by name.
pub fn build(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    let seconds = seconds.max(1) as usize;
    Some(match name {
        "orderbook" => {
            let depth = 2_000;
            let forward = orderbook_stream(100_000, depth, seed);
            let passes = passes_for(seconds * ORDERBOOK_EVENTS_PER_SECOND, forward.len());
            Workload {
                name: NAMES[0],
                catalog: orderbook_catalog(),
                views: vec![
                    ("vwap_components", VWAP_COMPONENTS),
                    ("sobi", SOBI),
                    ("market_maker", MARKET_MAKER),
                ],
                observed: false,
                traffic: book_traffic(depth, &forward, passes),
                feed: Feed::new(forward.events, passes),
                rtt_events: 10_000,
                segment_batches: 48,
                oracle: orderbook_stream(3_000, depth, seed),
            }
        }
        "nested_observed" => {
            let depth = 10_000;
            let forward = orderbook_stream(150_000, depth, seed ^ 0x6e65_7374);
            let passes = passes_for(seconds * NESTED_EVENTS_PER_SECOND, forward.len());
            Workload {
                name: NAMES[2],
                catalog: orderbook_catalog(),
                views: vec![
                    ("vwap_nested", VWAP_NESTED),
                    ("vwap_components", VWAP_COMPONENTS),
                ],
                observed: true,
                traffic: book_traffic(depth, &forward, passes),
                feed: Feed::new(forward.events, passes),
                rtt_events: 10_000,
                segment_batches: 24,
                oracle: orderbook_stream(2_000, depth, seed ^ 0x6e65_7374),
            }
        }
        "ssb_q41" => {
            let scale = (seconds as f64 * 0.05).min(0.5);
            let forward = transform_to_ssb(&TpchData::generate(&TpchConfig {
                seed,
                ..TpchConfig::at_scale(scale)
            }));
            let dims = forward
                .iter()
                .position(|e| e.relation == "LINEORDER")
                .unwrap_or(forward.len());
            Workload {
                name: NAMES[1],
                catalog: ssb_catalog(),
                views: vec![
                    ("ssb_q41", SSB_Q41),
                    ("ssb_revenue_by_year", SSB_REVENUE_BY_YEAR),
                ],
                observed: false,
                traffic: format!(
                    "warehouse load at TPC-H scale {scale}: {dims} dimension \
                     rows, then {} LINEORDER facts; insert only; one pass",
                    forward.len() - dims
                ),
                feed: Feed::new(forward.events, 1),
                // Each fact costs ~150 µs of server CPU: a batch is a
                // segment, and phase 2 takes only the dimension rows
                // and the first facts, leaving the load to phase 3.
                rtt_events: 2_000,
                segment_batches: 1,
                // Q4.1's interpreter plan is the cross product of the four
                // dimension tables, so the checked instance stays tiny.
                oracle: transform_to_ssb(&TpchData::generate(&TpchConfig {
                    customers: 10,
                    suppliers: 10,
                    parts: 5,
                    orders: 40,
                    lines_per_order: 4,
                    years: 1,
                    seed,
                })),
            }
        }
        _ => return None,
    })
}

impl Workload {
    /// `dbtoasterd` arguments: listen address, one `--schema` per
    /// relation, and the observability flags when observed.
    pub fn server_args(&self) -> Vec<String> {
        let mut args = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
        for schema in self.catalog.relations() {
            let columns: Vec<String> = schema
                .columns
                .iter()
                .map(|c| format!("{} {}", c.name, type_name(c.ty)))
                .collect();
            args.push("--schema".to_string());
            args.push(format!("{}({})", schema.name, columns.join(", ")));
        }
        if self.observed {
            args.extend(OBSERVED_FLAGS.iter().map(|s| s.to_string()));
        }
        args
    }
}

fn type_name(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "INT",
        ColumnType::Float => "FLOAT",
        ColumnType::Str => "VARCHAR",
        ColumnType::Bool => "BOOLEAN",
        ColumnType::Date => "DATE",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_passes_return_the_book_to_empty() {
        let stream = orderbook_stream(500, 50, 3);
        let feed = Feed::new(stream.events, 2);
        let mut db = dbtoaster_exec::Database::new();
        for batch in feed.batches(7) {
            for e in batch {
                db.apply(e);
            }
        }
        for e in feed.singles(7) {
            db.apply(e);
        }
        assert_eq!(db.cardinality("BIDS") + db.cardinality("ASKS"), 0);
        assert_eq!(
            feed.batches(7).map(|b| b.len()).sum::<usize>() + 7,
            feed.len()
        );
    }

    #[test]
    fn schema_flags_parse_back_to_the_catalog() {
        let w = build("ssb_q41", 1, 1).unwrap();
        let args = w.server_args();
        let specs = args.iter().skip(1).zip(args.iter().skip(2));
        let parsed: Vec<_> = specs
            .filter(|(flag, _)| *flag == "--schema")
            .map(|(_, spec)| dbtoaster_net::parse_schema_spec(spec).unwrap())
            .collect();
        assert_eq!(parsed.len(), w.catalog.relations().len());
        for schema in parsed {
            assert_eq!(w.catalog.get(&schema.name).unwrap().arity(), schema.arity());
        }
    }
}
