//! `spacelint` — statically check committed conversation-space
//! artifacts: the per-artifact lints (`OBCS0xx`) and the whole-space
//! checks (`OBCS1xx`: dialogue-flow model checking, query bind-checking,
//! cross-artifact consistency), in one pass.
//!
//! ```text
//! spacelint <space.json> [kb.json] [--json] [--deny-warnings] [--floor N] [--max-states N]
//! ```
//!
//! The KB defaults to a `*_kb.json` sibling of the space file (e.g.
//! `artifacts/mdx_space.json` → `artifacts/mdx_kb.json`). The ontology is
//! reconstructed from the space's `ontology_name`: the built-in `mdx`
//! ontology from code, any other domain from the KB via the data-driven
//! generator. The mapping is re-inferred from the ontology and KB,
//! exactly as the bootstrapper infers it.
//!
//! `--floor` sets the training-example floor (`OBCS012`) and
//! `--max-states` the dialogue-flow exploration cap (`OBCS105`).
//! `--json` emits the [`obcs_lint::JsonReport`] envelope.
//!
//! Exit status: 0 when the gate passes, 1 when it fails, 2 on usage or
//! I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use obcs_lint::{load_artifacts, run_all, JsonReport, LintConfig, LintContext};
use obcs_nlq::OntologyMapping;

struct Args {
    space_path: PathBuf,
    kb_path: Option<PathBuf>,
    json: bool,
    deny_warnings: bool,
    floor: Option<usize>,
    max_states: Option<usize>,
    list_rules: bool,
}

fn usage() -> &'static str {
    "usage: spacelint <space.json> [kb.json] [--json] [--deny-warnings] [--floor N] [--max-states N]\n       spacelint --rules"
}

/// The numeric value that follows `flag` on the command line.
fn number(value: Option<&String>, flag: &str) -> Result<usize, String> {
    let value = value.ok_or(format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag} needs a number"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional: Vec<&str> = Vec::new();
    let mut json = false;
    let mut deny_warnings = false;
    let mut floor = None;
    let mut max_states = None;
    let mut list_rules = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--rules" => list_rules = true,
            "--floor" => {
                i += 1;
                floor = Some(number(argv.get(i), "--floor")?);
            }
            "--max-states" => {
                i += 1;
                max_states = Some(number(argv.get(i), "--max-states")?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path => positional.push(path),
        }
        i += 1;
    }
    let space_path = match positional.first() {
        Some(path) => PathBuf::from(path),
        None if list_rules => PathBuf::new(),
        None => return Err(usage().to_string()),
    };
    Ok(Args {
        space_path,
        kb_path: positional.get(1).map(PathBuf::from),
        json,
        deny_warnings,
        floor,
        max_states,
        list_rules,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            if msg != usage() {
                eprintln!("{}", usage());
            }
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for lint in obcs_lint::all_lints() {
            println!("{:<28} {:<40} {}", lint.name(), lint.codes().join(","), lint.description());
        }
        return ExitCode::SUCCESS;
    }

    let (space, kb, onto) = match load_artifacts(&args.space_path, args.kb_path.as_deref()) {
        Ok(loaded) => loaded,
        Err(msg) => {
            eprintln!("spacelint: {msg}");
            return ExitCode::from(2);
        }
    };

    let mapping = OntologyMapping::infer(&onto, &kb);
    let ctx = LintContext::new(&onto, &kb, &mapping, &space);
    let mut cfg = LintConfig::default();
    if let Some(floor) = args.floor {
        cfg.example_floor = floor;
    }
    if let Some(max_states) = args.max_states {
        cfg.max_states = max_states;
    }
    let report = run_all(&ctx, &cfg);

    if args.json {
        let envelope =
            JsonReport::new("spacelint", &args.space_path.display().to_string(), &report);
        println!("{}", envelope.to_json());
    } else {
        print!("{}", report.render_text());
    }

    match report.gate(args.deny_warnings) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("spacelint: {msg}");
            ExitCode::FAILURE
        }
    }
}
