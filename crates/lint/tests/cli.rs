//! Binary-level regression tests: run the real `spacelint` executable
//! against the committed MDX artifacts and against mutated copies,
//! asserting the exact exit status, severity counts and diagnostic codes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use obcs_lint::JsonReport;

fn artifacts_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts")
}

/// A scratch directory unique to this test process, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spacelint-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies the committed MDX pair into the scratch dir, applying `mutate`
/// to the space JSON text.
fn staged_mdx(scratch: &Scratch, mutate: impl FnOnce(String) -> String) -> PathBuf {
    let space = std::fs::read_to_string(artifacts_dir().join("mdx_space.json"))
        .expect("committed mdx_space.json");
    let kb = std::fs::read_to_string(artifacts_dir().join("mdx_kb.json"))
        .expect("committed mdx_kb.json");
    let space_path = scratch.path("mdx_space.json");
    std::fs::write(&space_path, mutate(space)).expect("write mutated space");
    std::fs::write(scratch.path("mdx_kb.json"), kb).expect("write kb");
    space_path
}

fn run_spacelint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spacelint")).args(args).output().expect("spacelint runs")
}

/// The distinct codes of a report, in order.
fn codes_of(report: &JsonReport) -> Vec<&str> {
    let mut codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// Runs the gate over a mutated space with the quick state cap and
/// returns its exit code and report.
fn gate_mutated(space_path: &Path) -> (Option<i32>, JsonReport) {
    let out = run_spacelint(&[
        space_path.to_str().expect("utf8 path"),
        "--deny-warnings",
        "--json",
        "--max-states",
        "5000",
    ]);
    let report =
        JsonReport::from_json(&String::from_utf8_lossy(&out.stdout)).expect("parsable JSON report");
    (out.status.code(), report)
}

#[test]
fn committed_mdx_space_passes_and_json_round_trips() {
    let out = run_spacelint(&[
        artifacts_dir().join("mdx_space.json").to_str().expect("utf8 path"),
        "--deny-warnings",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "committed artifacts must pass the gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 report");
    let report = JsonReport::from_json(&stdout).expect("parsable JSON report");
    assert_eq!(report.tool, "spacelint");
    assert_eq!((report.errors, report.warnings, report.infos), (0, 0, 9));
    // The nine infos are the known entity-value collisions; the whole-space
    // checks explore the flow to closure and find nothing.
    assert_eq!(codes_of(&report), ["OBCS015"]);
    // Round trip: re-serialize and re-parse to the same envelope.
    let again = JsonReport::from_json(&report.to_json()).expect("round trip");
    assert_eq!(again, report);
}

#[test]
fn dropped_intent_fails_the_gate_with_obcs019_and_obcs120() {
    // "Drop a logic-table row": removing an intent from the space removes
    // its derived logic row while its training examples and its template
    // group remain.
    let scratch = Scratch::new("drop-row");
    let space_path = staged_mdx(&scratch, |text| {
        let mut space: obcs_core::ConversationSpace =
            serde_json::from_str(&text).expect("space parses");
        let before = space.intents.len();
        space.intents.retain(|i| i.name != "Precautions of Drug");
        assert_eq!(space.intents.len(), before - 1, "fixture intent not found");
        serde_json::to_string(&space).expect("re-serialize")
    });

    let (code, report) = gate_mutated(&space_path);
    assert_eq!(code, Some(1), "gate failure, not usage error");
    assert_eq!((report.errors, report.warnings, report.infos), (2, 1, 9));
    assert_eq!(codes_of(&report), ["OBCS015", "OBCS019", "OBCS105", "OBCS120"]);
}

#[test]
fn retyped_slot_fails_the_gate_with_obcs113() {
    // "Retype a slot": move a template's filter from the drug's text name
    // to its integer key; the slot's text instantiation can never match.
    let scratch = Scratch::new("retype-slot");
    let space_path = staged_mdx(&scratch, |text| {
        let needle = "oDrug.name = '<@Drug>'";
        assert!(text.contains(needle), "expected template filter in committed space");
        text.replacen(needle, "oDrug.drug_id = '<@Drug>'", 1)
    });

    let (code, report) = gate_mutated(&space_path);
    assert_eq!(code, Some(1), "gate failure, not usage error");
    assert_eq!((report.errors, report.warnings, report.infos), (1, 1, 9));
    assert_eq!(codes_of(&report), ["OBCS015", "OBCS105", "OBCS113"]);
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],
        &["--no-such-flag"],
        &["/nonexistent/space.json"],
        &["--max-states"],
        &["--floor", "many"],
    ] {
        let out = run_spacelint(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn rules_listing_names_both_code_families() {
    let out = run_spacelint(&["--rules"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(text.lines().count(), 29, "one line per rule:\n{text}");
    for code in [
        "OBCS001", "OBCS012", "OBCS031", "OBCS052", "OBCS100", "OBCS105", "OBCS110", "OBCS114",
        "OBCS120", "OBCS122",
    ] {
        assert!(text.contains(code), "rules listing missing {code}:\n{text}");
    }
}
