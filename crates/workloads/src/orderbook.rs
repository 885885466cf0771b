//! Synthetic limit-order-book message stream (financial application).
//!
//! Models a TotalView-like feed: investors continually add limit orders,
//! modify them (a delete + insert pair, per the paper's update model) and
//! withdraw them, on both the bid and the ask book. Order books do not
//! grow unboundedly — the generator keeps a bounded number of resident
//! orders per book by retiring old orders — but the deltas are arbitrary
//! inserts and deletes, not window expirations, which is exactly the
//! data-model point of the paper's Section 2.

use dbtoaster_common::{Catalog, ColumnType, Event, Schema, Tuple, UpdateStream, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bid/ask book schema: `(T, ID, BROKER_ID, VOLUME, PRICE)` as in the
/// DBToaster finance benchmarks.
pub fn orderbook_catalog() -> Catalog {
    let columns = vec![
        ("T", ColumnType::Float),
        ("ID", ColumnType::Int),
        ("BROKER_ID", ColumnType::Int),
        ("VOLUME", ColumnType::Float),
        ("PRICE", ColumnType::Float),
    ];
    Catalog::new()
        .with(Schema::new("BIDS", columns.clone()))
        .with(Schema::new("ASKS", columns))
}

/// VWAP numerator and denominator over the bid book; the client divides
/// the two sums (volume-weighted average price).
pub const VWAP_COMPONENTS: &str = "select sum(PRICE * VOLUME), sum(VOLUME) from BIDS";

/// The full nested-aggregate VWAP of the DBToaster finance suite: the
/// price-volume mass of the bids that sit above the 25%-volume quantile
/// of the book.
pub const VWAP_NESTED: &str = "select sum(b1.PRICE * b1.VOLUME) from BIDS b1 \
     where 0.25 * (select sum(b3.VOLUME) from BIDS b3) > \
           (select sum(b2.VOLUME) from BIDS b2 where b2.PRICE > b1.PRICE)";

/// Static order-book imbalance (SOBI)-style signal: volume-weighted price
/// spread between crossing bid/ask pairs of the same broker.
pub const SOBI: &str = "select sum(b.VOLUME * a.VOLUME * (b.PRICE - a.PRICE)) \
     from BIDS b, ASKS a where b.BROKER_ID = a.BROKER_ID";

/// Market-maker position imbalance per broker (detects brokers quoting
/// both sides of the book).
pub const MARKET_MAKER: &str = "select b.BROKER_ID, sum(b.VOLUME - a.VOLUME) \
     from BIDS b, ASKS a where b.BROKER_ID = a.BROKER_ID group by b.BROKER_ID";

/// The financial standing queries used by the bakeoff (name, SQL).
pub fn finance_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("vwap_components", VWAP_COMPONENTS),
        ("sobi", SOBI),
        ("market_maker", MARKET_MAKER),
    ]
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct OrderBookConfig {
    /// Total number of messages (events) to generate.
    pub messages: usize,
    /// Resident orders per book before old orders start being retired.
    pub book_depth: usize,
    /// Number of distinct brokers.
    pub brokers: i64,
    /// Mid price around which limit prices are drawn.
    pub mid_price: f64,
    /// Price band half-width.
    pub band: f64,
    /// Fraction of messages that modify an existing order (emitted as a
    /// delete + insert pair).
    pub modify_ratio: f64,
    /// Fraction of messages that withdraw an existing order.
    pub delete_ratio: f64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl Default for OrderBookConfig {
    fn default() -> Self {
        OrderBookConfig {
            messages: 10_000,
            book_depth: 2_000,
            brokers: 10,
            mid_price: 100.0,
            band: 5.0,
            modify_ratio: 0.2,
            delete_ratio: 0.2,
            seed: 42,
        }
    }
}

/// Deterministic order-book message generator.
pub struct OrderBookGenerator {
    config: OrderBookConfig,
    rng: SmallRng,
    next_id: i64,
    time: f64,
    bids: Vec<Tuple>,
    asks: Vec<Tuple>,
}

impl OrderBookGenerator {
    pub fn new(config: OrderBookConfig) -> OrderBookGenerator {
        let rng = SmallRng::seed_from_u64(config.seed);
        OrderBookGenerator {
            config,
            rng,
            next_id: 1,
            time: 0.0,
            bids: Vec::new(),
            asks: Vec::new(),
        }
    }

    fn new_order(&mut self, is_bid: bool) -> Tuple {
        self.time += 1.0;
        let id = self.next_id;
        self.next_id += 1;
        let broker = self.rng.gen_range(0..self.config.brokers);
        let volume = self.rng.gen_range(1.0..100.0_f64).round();
        let offset = self.rng.gen_range(0.0..self.config.band);
        let price = if is_bid {
            self.config.mid_price - offset
        } else {
            self.config.mid_price + offset
        };
        Tuple::new(vec![
            Value::Float(self.time),
            Value::Int(id),
            Value::Int(broker),
            Value::Float(volume),
            Value::Float((price * 100.0).round() / 100.0),
        ])
    }

    /// Generate the full message stream.
    pub fn generate(mut self) -> UpdateStream {
        let mut stream = UpdateStream::new();
        let mut produced = 0usize;
        while produced < self.config.messages {
            let is_bid = self.rng.gen_bool(0.5);
            let relation = if is_bid { "BIDS" } else { "ASKS" };
            let book_len = if is_bid {
                self.bids.len()
            } else {
                self.asks.len()
            };
            let action: f64 = self.rng.gen();

            if book_len > 0 && action < self.config.delete_ratio {
                // Withdraw a random resident order.
                let idx = self.rng.gen_range(0..book_len);
                let order = if is_bid {
                    self.bids.swap_remove(idx)
                } else {
                    self.asks.swap_remove(idx)
                };
                stream.push(Event::delete(relation, order));
                produced += 1;
            } else if book_len > 0 && action < self.config.delete_ratio + self.config.modify_ratio {
                // Modify: delete + insert with a new volume (partial fill).
                let idx = self.rng.gen_range(0..book_len);
                let old = if is_bid {
                    self.bids[idx].clone()
                } else {
                    self.asks[idx].clone()
                };
                let mut new = old.clone();
                let new_volume = (old[3].as_f64() * self.rng.gen_range(0.1..0.9))
                    .max(1.0)
                    .round();
                new.0[3] = Value::Float(new_volume);
                if is_bid {
                    self.bids[idx] = new.clone();
                } else {
                    self.asks[idx] = new.clone();
                }
                stream.push_update(relation, old, new);
                produced += 2;
            } else {
                // Add a fresh limit order, retiring an old one if the book
                // is at capacity (keeps state bounded, as real books are).
                if book_len >= self.config.book_depth {
                    let idx = self.rng.gen_range(0..book_len);
                    let retired = if is_bid {
                        self.bids.swap_remove(idx)
                    } else {
                        self.asks.swap_remove(idx)
                    };
                    stream.push(Event::delete(relation, retired));
                    produced += 1;
                }
                let order = self.new_order(is_bid);
                if is_bid {
                    self.bids.push(order.clone());
                } else {
                    self.asks.push(order.clone());
                }
                stream.push(Event::insert(relation, order));
                produced += 1;
            }
        }
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_balanced() {
        let a = OrderBookGenerator::new(OrderBookConfig {
            messages: 500,
            ..Default::default()
        })
        .generate();
        let b = OrderBookGenerator::new(OrderBookConfig {
            messages: 500,
            ..Default::default()
        })
        .generate();
        assert_eq!(a, b);
        assert!(a.len() >= 500);
        let counts = a.counts_by_relation();
        assert!(counts.iter().any(|(r, _)| r == "BIDS"));
        assert!(counts.iter().any(|(r, _)| r == "ASKS"));
    }

    #[test]
    fn deletes_always_refer_to_live_orders() {
        use std::collections::HashSet;
        let stream = OrderBookGenerator::new(OrderBookConfig {
            messages: 2_000,
            book_depth: 100,
            ..Default::default()
        })
        .generate();
        let mut live: HashSet<(String, Tuple)> = HashSet::new();
        for e in &stream {
            match e.kind {
                dbtoaster_common::EventKind::Insert => {
                    assert!(live.insert((e.relation.clone(), e.tuple.clone())));
                }
                dbtoaster_common::EventKind::Delete => {
                    assert!(
                        live.remove(&(e.relation.clone(), e.tuple.clone())),
                        "delete of a non-resident order"
                    );
                }
            }
        }
    }

    #[test]
    fn book_depth_bounds_resident_state() {
        let depth = 50;
        let stream = OrderBookGenerator::new(OrderBookConfig {
            messages: 3_000,
            book_depth: depth,
            ..Default::default()
        })
        .generate();
        let mut bids = 0i64;
        let mut max_bids = 0i64;
        for e in &stream {
            if e.relation == "BIDS" {
                bids += e.kind.sign();
                max_bids = max_bids.max(bids);
            }
        }
        assert!(max_bids as usize <= depth + 1);
    }

    #[test]
    fn finance_queries_compile_against_the_catalog() {
        let cat = orderbook_catalog();
        for (name, sql) in finance_queries() {
            let p = dbtoaster_compiler::compile_sql(
                sql,
                &cat,
                &dbtoaster_compiler::CompileOptions::full(),
            );
            assert!(p.is_ok(), "{name} failed to compile: {:?}", p.err());
        }
        // The nested VWAP compiles through the materialization
        // hierarchy: incremental child maps and no relation scan or
        // base-relation map; the result map is kept by one post-event
        // `:=` per trigger.
        let nested = dbtoaster_compiler::compile_sql(
            VWAP_NESTED,
            &cat,
            &dbtoaster_compiler::CompileOptions::full(),
        )
        .unwrap();
        assert!(nested.maps.iter().all(|m| !m.is_base_relation));
        for t in &nested.triggers {
            assert!(t.statements.iter().all(|s| !s.update.has_relations()));
            let on_q: Vec<_> = t.statements.iter().filter(|s| s.target == "Q").collect();
            assert_eq!(on_q.len(), 1, "{t}");
            assert_eq!(on_q[0].kind, dbtoaster_compiler::StatementKind::Replace);
            assert_eq!(on_q[0].stage, dbtoaster_compiler::STAGE_REBUILD);
        }
    }
}
