//! The served workloads, and the world, agent and durability directory
//! each one runs against.

use std::path::Path;

use obcs_agent::ConversationAgent;
use obcs_kb::{DurableKb, KnowledgeBase, Value};
use obcs_mdx::data::{build_mdx_kb, MdxDataConfig};
use obcs_mdx::ConversationalMdx;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::script::splitmix64;

/// One traffic shape the benchmark drives.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark: what it loads, and what it
    /// leaves alone so another workload can serve as the control.
    pub why: &'static str,
    /// Drugs in the synthetic MDX world (150 is the paper's scale).
    pub drugs: usize,
    /// Simulated clinicians sharing the one connection round-robin.
    pub users: usize,
    /// Mean requests per session (geometric), or `None` when every
    /// session lasts the whole run.
    pub mean_session: Option<f64>,
    /// Records in the WAL tail the server replays at start-up, or `None`
    /// for a server without a durability directory.
    pub wal_records: Option<usize>,
    /// Script requests per `--seconds`. The script has a fixed request
    /// count, so every run of a seed does identical work; this rate sizes
    /// it so the load phase lasts about `--seconds` on a 2-core x86-64
    /// host at the commit that introduced the benchmark.
    pub requests_per_second: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "clinic",
        why: "32 clinicians with sessions of 3 requests on average: session open (a deep fork per \
              session, cold caches) and close dominate",
        drugs: 150,
        users: 32,
        mean_session: Some(3.0),
        wal_records: None,
        requests_per_second: 340,
    },
    Workload {
        name: "deep_kb",
        why:
            "1500-drug world recovered from a snapshot plus 20k-record WAL, 4 whole-run sessions: \
              replay weighs on set-up, KB execution on turns; the control for session-lifecycle \
              changes",
        drugs: 1500,
        users: 4,
        mean_session: None,
        wal_records: Some(20_000),
        requests_per_second: 500,
    },
];

/// A second seed, never used while the benchmark was tuned, for
/// confirming a claimed gain on inputs the claim was not shaped on.
pub const HELD_OUT_SEED: u64 = 918_273_645;

/// Stream tag for the WAL tail's row values.
const WAL_STREAM: u64 = 0x3a1_7a11;

/// First `risk_id` of the logged tail, above every id the generator uses.
const WAL_RISK_BASE: i64 = 10_000_000;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The world's data configuration. The world is fixed per workload;
    /// only the traffic (and the WAL tail) follow `--seed`.
    pub fn data(&self) -> MdxDataConfig {
        MdxDataConfig { drugs: self.drugs, ..MdxDataConfig::default() }
    }

    /// The world's knowledge base alone, for value pools and the snapshot.
    pub fn kb(&self) -> KnowledgeBase {
        build_mdx_kb(self.data())
    }

    /// A fully assembled agent: world build, NLU training, dialogue tree.
    pub fn agent(&self) -> ConversationAgent {
        ConversationalMdx::with_config(self.data()).agent
    }
}

/// Seeds `dir` the way a server that ran before would have left it: a
/// snapshot of `kb`, then `records` logged `risk` inserts that were never
/// compacted, so start-up recovery replays every one of them.
pub fn write_durability_dir(dir: &Path, kb: KnowledgeBase, records: usize, seed: u64) {
    let drugs = kb.query("SELECT drug_id FROM drug").expect("drug table").rows.len();
    let mut durable = DurableKb::create(dir, kb).expect("create durability directory");
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ WAL_STREAM));
    for i in 0..records {
        let drug = rng.gen_range(0..drugs) as i64;
        let severity = ["low", "medium", "high"][rng.gen_range(0..3usize)];
        let risk_id = WAL_RISK_BASE + i as i64;
        durable
            .insert(
                "risk",
                vec![
                    Value::Int(risk_id),
                    Value::Int(drug),
                    Value::text(format!("reported risk {risk_id}")),
                    Value::text(format!("post-marketing report {risk_id}")),
                    Value::text(severity),
                    Value::text("see monograph"),
                ],
            )
            .expect("log a WAL-tail insert");
    }
    durable.sync().expect("fsync the WAL tail");
}

/// The recovered KB a durable server serves, read the way start-up reads
/// it.
pub fn recover(dir: &Path) -> (KnowledgeBase, usize) {
    let (durable, report) = DurableKb::open(dir).expect("recover the durability directory");
    (durable.into_kb(), report.wal_records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_workload_with_its_reason() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name)), "{}", w.name);
            assert!(json.contains(&format!("\"why\": \"{}\"", w.why)), "{}", w.name);
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
    }
}
