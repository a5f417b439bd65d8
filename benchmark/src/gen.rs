//! Workload generators: the seed drives only these; the program under
//! test sees nothing but the generated SQL.

use mb2_common::Prng;
use mb2_workloads::smallbank::SmallBank;
use mb2_workloads::tatp::Tatp;
use mb2_workloads::tpch::Tpch;
use mb2_workloads::Workload;

/// One operation: a single autocommit statement, or several statements
/// the client wraps in `BEGIN` / `COMMIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Index into the workload's template list.
    pub template: usize,
    pub statements: Vec<String>,
}

pub const TATP_SUBSCRIBERS: usize = 50_000;
pub const TPCH_SCALE: f64 = 0.5;
pub const SMALLBANK_ACCOUNTS: usize = 20_000;
pub const HTAP_ACCOUNTS: usize = 50_000;
/// Write transactions per `htap_mix` cycle, ahead of its three scans.
/// Fixed here (not tuned per host) so writes take roughly half of a cycle.
pub const HTAP_WRITES_PER_CYCLE: usize = 100;
/// Transactions appended to set-up on the SmallBank workloads so the WAL
/// snapshot that recovery replays holds small commits, not only bulk loads.
pub const SEASONING_TXNS: usize = 4_000;
const SEASONING_SEED: u64 = 0x5EA5_0000_0000_0001;

/// The standard TATP mix, in `Tatp::template_names` order.
pub const TATP_WEIGHTS: [usize; 7] = [35, 10, 35, 2, 14, 2, 2];

pub const HTAP_SCANS: [(&str, &str); 3] = [
    (
        "htap_filtered_agg",
        "SELECT COUNT(*), SUM(bal) FROM sb_checking WHERE custid >= 5000 AND custid < 30000",
    ),
    (
        "htap_full_agg",
        "SELECT COUNT(*), SUM(bal), MIN(bal), MAX(bal) FROM sb_savings",
    ),
    (
        "htap_join_agg",
        "SELECT COUNT(*), SUM(c.bal + s.bal) FROM sb_checking c, sb_savings s \
         WHERE c.custid = s.custid AND c.custid < 10000",
    ),
];

/// The four workloads. Names are the benchmark's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    TatpPoint,
    TpchScan,
    SmallbankSync,
    HtapMix,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::TatpPoint,
        WorkloadKind::TpchScan,
        WorkloadKind::SmallbankSync,
        WorkloadKind::HtapMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::TatpPoint => "tatp_point",
            WorkloadKind::TpchScan => "tpch_scan",
            WorkloadKind::SmallbankSync => "smallbank_sync",
            WorkloadKind::HtapMix => "htap_mix",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadKind::TatpPoint => {
                "TATP point lookups and single-row writes over 50k distinct texts: front-end bound \
                 (wire, parse, plan-cache misses, predict+admit, index, async commit); bypasses scans and fsync"
            }
            WorkloadKind::TpchScan => {
                "Nine fixed TPC-H queries over sealed blocks, read-only: execution bound (scans, joins, \
                 aggregates, sorts, exec pool) with a plan cache that always hits; bypasses commit and WAL"
            }
            WorkloadKind::SmallbankSync => {
                "SmallBank with a flush+fsync per commit: commit bound (begin/commit, foreground WAL, \
                 version churn, GC); the synchronous twin of tatp_point; bypasses scans"
            }
            WorkloadKind::HtapMix => {
                "SmallBank writes on the hot fifth interleaved with three analytic scans of the same tables: \
                 block path and row fallback while GC and the compactor chase; shows scan-vs-write trades"
            }
        }
    }

    pub fn templates(self) -> Vec<&'static str> {
        match self {
            WorkloadKind::TatpPoint => Tatp::default().template_names(),
            WorkloadKind::TpchScan => Tpch::default().template_names(),
            WorkloadKind::SmallbankSync => SmallBank::default().template_names(),
            WorkloadKind::HtapMix => {
                let mut names = SmallBank::default().template_names();
                names.extend(HTAP_SCANS.iter().map(|(name, _)| *name));
                names
            }
        }
    }
}

/// Every template of every workload, once (SmallBank's five are shared by
/// `smallbank_sync` and `htap_mix`).
pub fn all_templates() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for w in WorkloadKind::ALL {
        for t in w.templates() {
            if !names.contains(&t) {
                names.push(t);
            }
        }
    }
    names
}

pub fn tatp() -> Tatp {
    Tatp {
        subscribers: TATP_SUBSCRIBERS,
    }
}

pub fn tpch() -> Tpch {
    Tpch::with_scale(TPCH_SCALE)
}

pub fn smallbank(kind: WorkloadKind) -> SmallBank {
    SmallBank {
        accounts: if kind == WorkloadKind::HtapMix {
            HTAP_ACCOUNTS
        } else {
            SMALLBANK_ACCOUNTS
        },
        ..SmallBank::default()
    }
}

/// A deck of template indices dealt in shuffled order and reshuffled when
/// exhausted: the mix holds exactly over every deck, so no run draws an
/// unlucky share of a rare, expensive template.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(weights: &[usize]) -> Deck {
        let cards: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(template, &w)| std::iter::repeat_n(template, w))
            .collect();
        Deck {
            next: cards.len(),
            cards,
        }
    }

    fn draw(&mut self, rng: &mut Prng) -> usize {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// An endless, seed-determined operation stream for one workload.
pub struct Generator {
    kind: WorkloadKind,
    rng: Prng,
    deck: Deck,
    templates: Vec<&'static str>,
    tatp: Tatp,
    smallbank: SmallBank,
    tpch_queries: Vec<String>,
    /// Position inside the current `htap_mix` cycle.
    cycle_pos: usize,
}

impl Generator {
    pub fn new(kind: WorkloadKind, seed: u64) -> Generator {
        let deck = match kind {
            WorkloadKind::TatpPoint => Deck::new(&TATP_WEIGHTS),
            WorkloadKind::TpchScan => Deck::new(&[1; 9]),
            // Twenty cards, four of each SmallBank template.
            WorkloadKind::SmallbankSync | WorkloadKind::HtapMix => Deck::new(&[4; 5]),
        };
        Generator {
            kind,
            rng: Prng::new(seed),
            deck,
            templates: kind.templates(),
            tatp: tatp(),
            smallbank: smallbank(kind),
            tpch_queries: tpch()
                .fixed_queries()
                .into_iter()
                .map(|(_, sql)| sql)
                .collect(),
            cycle_pos: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.kind {
            WorkloadKind::TatpPoint => {
                let template = self.deck.draw(&mut self.rng);
                Op {
                    template,
                    statements: self
                        .tatp
                        .sample_transaction(self.templates[template], &mut self.rng),
                }
            }
            WorkloadKind::TpchScan => {
                let template = self.deck.draw(&mut self.rng);
                Op {
                    template,
                    statements: vec![self.tpch_queries[template].clone()],
                }
            }
            WorkloadKind::SmallbankSync => {
                let template = self.deck.draw(&mut self.rng);
                Op {
                    template,
                    statements: self
                        .smallbank
                        .sample_transaction(self.templates[template], &mut self.rng),
                }
            }
            WorkloadKind::HtapMix => {
                let pos = self.cycle_pos;
                self.cycle_pos = (pos + 1) % (HTAP_WRITES_PER_CYCLE + HTAP_SCANS.len());
                if pos < HTAP_WRITES_PER_CYCLE {
                    let template = self.deck.draw(&mut self.rng);
                    Op {
                        template,
                        statements: self.smallbank.sample_transaction_in(
                            self.templates[template],
                            &mut self.rng,
                            0,
                            HTAP_ACCOUNTS / 5,
                        ),
                    }
                } else {
                    let scan = pos - HTAP_WRITES_PER_CYCLE;
                    Op {
                        template: 5 + scan,
                        statements: vec![HTAP_SCANS[scan].1.to_string()],
                    }
                }
            }
        }
    }
}

/// The fixed seasoning stream of the SmallBank workloads (same on every
/// run and seed, so the WAL snapshot is byte-deterministic).
pub fn seasoning(kind: WorkloadKind) -> Vec<Vec<String>> {
    let sb = smallbank(kind);
    let names = sb.template_names();
    let mut rng = Prng::new(SEASONING_SEED);
    (0..SEASONING_TXNS)
        .map(|i| sb.sample_transaction(names[i % names.len()], &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the statement stream: two generators agree iff their
    /// hashes over the same number of operations agree.
    fn stream_hash(kind: WorkloadKind, seed: u64, ops: usize) -> u64 {
        let mut gen = Generator::new(kind, seed);
        let mut h = crate::check::Fnv::new();
        for _ in 0..ops {
            let op = gen.next_op();
            h.write(&(op.template as u64).to_le_bytes());
            for sql in &op.statements {
                h.write(sql.as_bytes());
                h.write(&[0]);
            }
        }
        h.finish()
    }

    #[test]
    fn same_seed_gives_the_same_statement_stream() {
        for kind in WorkloadKind::ALL {
            assert_eq!(
                stream_hash(kind, 7, 3000),
                stream_hash(kind, 7, 3000),
                "{kind:?}"
            );
            assert_ne!(
                stream_hash(kind, 7, 3000),
                stream_hash(kind, 8, 3000),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn tatp_weights_hold_within_one_percent() {
        let mut gen = Generator::new(WorkloadKind::TatpPoint, 42);
        let mut counts = [0usize; 7];
        let draws = 100_000;
        for _ in 0..draws {
            counts[gen.next_op().template] += 1;
        }
        for (template, &weight) in TATP_WEIGHTS.iter().enumerate() {
            let share = counts[template] as f64 / draws as f64;
            let want = weight as f64 / 100.0;
            assert!(
                (share - want).abs() <= 0.01 * want,
                "template {template}: {share} vs {want}"
            );
        }
    }

    #[test]
    fn htap_cycle_is_writes_then_three_scans() {
        let mut gen = Generator::new(WorkloadKind::HtapMix, 1);
        let cycle = HTAP_WRITES_PER_CYCLE + 3;
        let ops: Vec<Op> = (0..2 * cycle).map(|_| gen.next_op()).collect();
        for (i, op) in ops.iter().enumerate() {
            let pos = i % cycle;
            if pos < HTAP_WRITES_PER_CYCLE {
                assert!(op.template < 5, "op {i} should be a SmallBank transaction");
            } else {
                assert_eq!(op.template, 5 + pos - HTAP_WRITES_PER_CYCLE);
                assert_eq!(
                    op.statements,
                    vec![HTAP_SCANS[pos - HTAP_WRITES_PER_CYCLE].1.to_string()]
                );
            }
        }
    }

    #[test]
    fn template_inventory_is_24_names() {
        assert_eq!(all_templates().len(), 24);
        assert_eq!(WorkloadKind::parse("htap_mix"), Some(WorkloadKind::HtapMix));
        assert_eq!(WorkloadKind::parse("nope"), None);
    }
}
