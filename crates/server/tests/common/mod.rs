//! Fixtures shared by the server test binaries: the canonical `big`
//! table, OU models trained for the plans the tests issue, and raw frame
//! reads.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;

use mb2_common::metrics::idx;
use mb2_common::Metrics;
use mb2_core::training::{train_all, TrainingConfig};
use mb2_core::{BehaviorModels, InterferenceModel, OuSample, OuTranslator, TrainingRepo};
use mb2_engine::Database;
use mb2_ml::Algorithm;
use mb2_server::Client;

/// Seed the canonical `big` table through the server (so the engine's own
/// collector sees the plans the tests predict against).
pub fn seed_big(addr: &str, rows: usize, payload: usize) {
    let mut c = Client::connect(addr).expect("seed connect");
    c.query("CREATE TABLE big (pk INT, grp INT, v VARCHAR)")
        .unwrap();
    let pad = "x".repeat(payload);
    for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(500) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, '{pad}')", i % 100))
            .collect();
        c.query(&format!("INSERT INTO big VALUES {}", vals.join(", ")))
            .unwrap();
    }
    c.query("ANALYZE big").unwrap();
}

/// Linear OU models trained on synthetic per-OU costs for the plans the
/// tests issue — the planner-test recipe, kept here so server tests do not
/// depend on the bench crate's pipeline.
pub fn trained_models(
    db: &Database,
    interference: Option<InterferenceModel>,
) -> Arc<BehaviorModels> {
    let mut repo = TrainingRepo::new();
    let translator = OuTranslator::default();
    let plans = [
        db.prepare("SELECT * FROM big WHERE grp = 1").unwrap(),
        db.prepare("SELECT COUNT(*) FROM big").unwrap(),
        db.prepare("SELECT * FROM big WHERE pk = 1").unwrap(),
    ];
    for plan in &plans {
        for inst in translator.translate_plan(plan, &db.knobs()) {
            for k in 1..=15 {
                let mut f = inst.features.clone();
                f[0] = (k * 50) as f64;
                let cost = 10.0 * f[0];
                let mut labels = Metrics::ZERO;
                labels[idx::ELAPSED_US] = cost;
                labels[idx::CPU_US] = cost;
                repo.add(OuSample {
                    ou: inst.ou,
                    features: f,
                    labels,
                });
            }
        }
    }
    let (set, _) = train_all(
        &repo,
        &TrainingConfig {
            candidates: vec![Algorithm::Linear],
            ..TrainingConfig::default()
        },
    )
    .unwrap();
    Arc::new(BehaviorModels::new(set, interference))
}

/// Read one length-prefixed frame and return its raw payload bytes.
pub fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    payload
}
