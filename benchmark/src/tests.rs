//! Self-tests that span modules: the declared names, the emitted report
//! and `BENCHMARK.json` must agree, and the stable-surface rule holds.

use crate::names::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::Report;
use std::path::Path;

#[derive(serde::Deserialize)]
struct Named {
    name: String,
    unit: Option<String>,
    better: Option<String>,
    why: Option<String>,
    bound: Option<f64>,
}

#[derive(serde::Deserialize)]
struct Manifest {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

fn manifest() -> Manifest {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_declared_name_is_well_formed_and_unique() {
    let mut seen = std::collections::HashSet::new();
    let metric_names = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name);
    for name in metric_names.chain(WORKLOADS.iter().map(|w| w.0)) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} declared twice");
    }
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.name);
        assert!(d
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
}

fn same(declared: &[MetricDef], listed: &[Named]) {
    let a: Vec<_> = declared
        .iter()
        .map(|d| (d.name, d.unit, d.better))
        .collect();
    let b: Vec<_> = listed
        .iter()
        .map(|n| {
            (
                n.name.as_str(),
                n.unit.as_deref().unwrap(),
                n.better.as_deref().unwrap(),
            )
        })
        .collect();
    assert_eq!(a, b);
}

#[test]
fn benchmark_json_lists_exactly_the_declared_names() {
    let m = manifest();
    same(END_TO_END, &m.end_to_end);
    same(PER_LAYER, &m.per_layer);
    let declared: Vec<_> = WORKLOADS.to_vec();
    let listed: Vec<_> = m
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w.why.as_deref().unwrap()))
        .collect();
    assert_eq!(declared, listed);
    for w in &m.workloads {
        let why = w.why.as_deref().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name);
    }
    for e in &m.end_to_end {
        let bound = e.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", e.name);
    }
    assert!(m.per_layer.iter().all(|p| p.bound.is_none()));
    assert_eq!(m.paths, ["benchmark"]);
    assert!((1..=60).contains(&m.run_seconds));
    assert!(m
        .command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
}

#[test]
fn the_emitted_report_lists_exactly_the_declared_names() {
    for defs in [END_TO_END, PER_LAYER] {
        let mut m = Metrics::default();
        for (i, d) in defs.iter().enumerate().rev() {
            m.set(d.name, i as f64 + 0.25);
        }
        let report = Report {
            workload: "sim-dense",
            attempted: 7,
            failed: 0,
            metrics: m.ordered(defs).unwrap(),
            as_clock: Vec::new(),
            notes: Vec::new(),
        };
        // Parse the result line back: the four contract keys, and under
        // `metrics` the declared names in declared order with their units.
        let json = report.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        let mut rest = json.as_str();
        for d in defs {
            let key = format!("\"{}\": {{\"value\": ", d.name);
            let at = rest
                .find(&key)
                .unwrap_or_else(|| panic!("{} missing or out of order", d.name));
            rest = &rest[at + key.len()..];
            assert!(rest.contains(&format!("\"unit\": \"{}\"}}", d.unit)));
        }
        assert_eq!(json.matches("\"value\"").count(), defs.len());
        // …and `--sets` reads the end-to-end numbers back out of it.
        if std::ptr::eq(defs, END_TO_END) {
            let line: crate::ResultLine = serde_json::from_str(&json).unwrap();
            assert!(line.correct);
            assert_eq!((line.attempted, line.failed), (7, 0));
            for (i, d) in defs.iter().enumerate() {
                let reading = line.metrics.get(d.name).unwrap();
                assert_eq!(reading.value, i as f64 + 0.25);
                assert_eq!(reading.unit, d.unit);
            }
        }

        // A missing, an undeclared and a non-finite value are all refused.
        let mut missing = Metrics::default();
        missing.set(defs[0].name, 1.0);
        assert!(defs.len() == 1 || missing.ordered(defs).is_err());
        m.set("not.declared", 1.0);
        assert!(m.ordered(defs).is_err());
        let mut nan = Metrics::default();
        defs.iter().for_each(|d| nan.set(d.name, f64::NAN));
        assert!(nan.ordered(defs).is_err());
    }
}

/// The stable-surface rule: nothing here may bind to a deletion
/// candidate, or a later "delete freely" PR could not delete it without
/// editing the benchmark. The names are assembled from pieces so that
/// this file passes its own check.
#[test]
fn no_deletion_candidate_is_bound() {
    let banned = [
        ["run_", "parallel"].concat(),
        ["_sc", "hed"].concat(),
        ["Schedule", "::"].concat(),
        ["los::", "reference"].concat(),
        ["terrain_masking_", "reference"].concat(),
        ["Window", "Driver"].concat(),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("run.sh"), root.join("Cargo.toml")];
    let mut dirs = vec![root.join("src")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    assert!(
        files.len() > 10,
        "expected the benchmark's sources, found {files:?}"
    );
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for symbol in &banned {
            assert!(
                !text.contains(symbol.as_str()),
                "{} binds {symbol}",
                file.display()
            );
        }
    }
}
