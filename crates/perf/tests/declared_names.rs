//! `BENCHMARK.json` and `spec.rs` declare the same benchmark: the same
//! workloads, the same end-to-end metrics with the same units,
//! directions and bounds, the same per-layer metrics. `bench` emits
//! exactly the declared names (it takes them from `spec` and fails if
//! one has no value), so agreement here is agreement between what the
//! driver expects and what it is given.

use std::collections::BTreeSet;
use std::path::PathBuf;

use flashflow_obs::Json;
use flashflow_perf::spec::{self, END_TO_END, WORKLOADS};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(text.trim()).expect("BENCHMARK.json parses")
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing {key} in {obj}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let Json::Obj(pairs) = benchmark_json() else { panic!("BENCHMARK.json is not an object") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let declared: Vec<(&str, &str)> =
        list(&doc, "workloads").iter().map(|w| (str_of(w, "name"), str_of(w, "why"))).collect();
    let coded: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, coded);
}

#[test]
fn end_to_end_metrics_match_name_unit_direction_and_bound() {
    let doc = benchmark_json();
    let declared: Vec<(String, String, String, f64)> = list(&doc, "end_to_end")
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_string(),
                str_of(m, "unit").to_string(),
                str_of(m, "better").to_string(),
                m.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect();
    let coded: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), m.bound))
        .collect();
    assert_eq!(declared, coded);
}

#[test]
fn per_layer_metrics_match_as_sets_with_units_and_directions() {
    let doc = benchmark_json();
    let declared: BTreeSet<(String, String, String)> = list(&doc, "per_layer")
        .iter()
        .map(|m| {
            assert!(m.get("bound").is_none(), "per-layer metrics carry no bound: {m}");
            (str_of(m, "name").into(), str_of(m, "unit").into(), str_of(m, "better").into())
        })
        .collect();
    let coded: BTreeSet<(String, String, String)> = spec::per_layer()
        .into_iter()
        .map(|(name, unit, better)| (name, unit.to_string(), better.as_str().to_string()))
        .collect();
    assert_eq!(declared, coded);
    assert_eq!(list(&doc, "per_layer").len(), coded.len(), "a name is declared twice");
}

#[test]
fn command_runs_this_package_and_paths_hold_it() {
    let doc = benchmark_json();
    let command: Vec<&str> = list(&doc, "command").iter().filter_map(Json::as_str).collect();
    assert_eq!(command.first(), Some(&"cargo"));
    assert!(command.windows(2).any(|w| w == ["-p", env!("CARGO_PKG_NAME")]));
    assert_eq!(command.last(), Some(&"bench"));
    let paths: Vec<&str> = list(&doc, "paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["crates/perf"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}
