//! Bench-regression gate: compare fresh `BENCH_*.json` output against the
//! baselines and fail CI on meaningful regressions.
//!
//! Usage:
//!   check_bench --all --fresh-dir DIR [--base-dir DIR] [--tolerance 0.2]
//!
//! Discovers every `BENCH_*.json` baseline in `--base-dir` (default: the
//! current directory, i.e. the committed set at the repo root) and
//! requires a same-named fresh run in `--fresh-dir`: a baseline with no
//! fresh run (a bench not wired into the quick gate) or a fresh file with
//! no baseline is exit 2, naming the file.
//!
//! Rules (per scenario, matched by `id` / `down_ms` / `channels` / `nodes`):
//!   * datapath: fresh `mb_per_sec` below `(1 - tolerance) x` baseline fails;
//!     fresh `allocs_per_block` above `(1 + tolerance) x baseline + 1` fails;
//!     on rows that carry them, fresh `segs_per_block` / `copied_per_block`
//!     above the baseline at all fails (simulation-determined counts).
//!   * faults: fresh `recovery_ms` above `2 x baseline + 50 ms` fails
//!     (baselines at or below zero are skipped — no recovery happened);
//!     fresh `total_ms` above `(1 + tolerance) x baseline + 50 ms` fails.
//!   * mux: `links` / `walks` other than exactly 1 fail unconditionally (N
//!     same-spec channels must share ONE link found by ONE walk — no
//!     baseline involved); fresh `setup_ms` or `recovery_ms` above
//!     `2 x baseline + 50 ms` fails.
//!   * storm: `walks` other than exactly `pairs` fails unconditionally (one
//!     Figure-4 walk per distinct sender→peer pair, no more — the
//!     single-flight dedupe — and no fewer); fresh aggregate `setup_ms`
//!     above `2 x baseline + 50 ms` fails.
//!   * relaymesh: structural gates on the fresh run — 4-relay spread
//!     aggregate below `2 x` the 1-relay aggregate fails (the mesh must
//!     scale), skew `busy_throttles` of zero fails (typed backpressure
//!     must engage under one-hot load), kill `fifo_ok != 1` fails
//!     (exactly-once FIFO across relay failover) — plus the usual
//!     tolerance floor on spread `mb_s` against the baseline.
//!   * adaptive: structural gates on the fresh run — the controller row's
//!     `mb_s` below `0.9 x` the best static row fails (the control loop
//!     stopped tracking the capacity ramp), below `1.5 x` the worst
//!     static row fails (adaptation buys nothing) — plus the tolerance
//!     floor on the controller row against the baseline.
//!
//! Baselines are host-speed sensitive, so the default tolerance is loose;
//! quick CI runs pass `--tolerance 0.3`. The JSON is the flat array of
//! flat objects our bench binaries emit — parsed by hand, no serde. A
//! truncated or malformed file (an interrupted `run_benches.sh`) is a
//! named-file diagnostic and a nonzero exit, never a panic.

use netgrid_bench::*;
use std::collections::HashMap;

type Obj = HashMap<String, String>;

/// Parse a `[ {..}, {..} ]` array of flat objects with string/number
/// values (no nesting, no commas inside values — the shape our benches
/// write). Malformed input names the offending file in the error.
fn parse_objects(src: &str, path: &str) -> Result<Vec<Obj>, String> {
    let mut out = Vec::new();
    let mut rest = src;
    while let Some(start) = rest.find('{') {
        let end = rest[start..]
            .find('}')
            .ok_or_else(|| format!("{path}: unterminated object (truncated bench file?)"))?
            + start;
        let mut map = Obj::new();
        for field in rest[start + 1..end].split(',') {
            let (k, v) = field
                .split_once(':')
                .ok_or_else(|| format!("{path}: malformed field {field:?}"))?;
            map.insert(
                k.trim().trim_matches('"').to_string(),
                v.trim().trim_matches('"').to_string(),
            );
        }
        out.push(map);
        rest = &rest[end + 1..];
    }
    if out.is_empty() {
        return Err(format!("{path}: no objects found (empty bench file?)"));
    }
    Ok(out)
}

/// Load a bench file or exit(2) with a diagnostic naming it. Distinct from
/// exit(1), which means "parsed fine, found regressions".
fn load(path: &str) -> Vec<Obj> {
    let fail = |msg: String| -> ! {
        eprintln!("check_bench: {msg}");
        std::process::exit(2);
    };
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("read {path}: {e}")));
    parse_objects(&src, path).unwrap_or_else(|e| fail(e))
}

fn num(o: &Obj, key: &str, path: &str) -> f64 {
    o.get(key)
        .unwrap_or_else(|| panic!("{path}: missing key {key:?} in {o:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("{path}: non-numeric {key:?}: {e}"))
}

/// Index rows by a key column, panicking on duplicates.
fn index<'a>(rows: &'a [Obj], key: &str, path: &str) -> HashMap<String, &'a Obj> {
    let mut m = HashMap::new();
    for r in rows {
        let k = r
            .get(key)
            .unwrap_or_else(|| panic!("{path}: row without {key:?}"))
            .clone();
        assert!(m.insert(k, r).is_none(), "{path}: duplicate {key:?}");
    }
    m
}

fn check_datapath(fresh_path: &str, base_path: &str, tolerance: f64, failures: &mut Vec<String>) {
    let fresh = load(fresh_path);
    let base = load(base_path);
    let fresh_by_id = index(&fresh, "id", fresh_path);
    for b in &base {
        let id = &b["id"];
        let Some(f) = fresh_by_id.get(id) else {
            failures.push(format!(
                "datapath: scenario {id:?} missing from {fresh_path}"
            ));
            continue;
        };
        let base_mb = num(b, "mb_per_sec", base_path);
        let fresh_mb = num(f, "mb_per_sec", fresh_path);
        let floor = base_mb * (1.0 - tolerance);
        let verdict = if fresh_mb < floor { "FAIL" } else { "ok" };
        println!(
            "datapath {id:>24}: {fresh_mb:>9.2} MB/s vs baseline {base_mb:>9.2} (floor {floor:>9.2})  {verdict}"
        );
        if fresh_mb < floor {
            failures.push(format!(
                "datapath {id:?}: {fresh_mb:.2} MB/s regressed more than {:.0}% below baseline {base_mb:.2}",
                tolerance * 100.0
            ));
        }
        // Allocation gate: allocs/block creeping past the blessed baseline
        // means a pool stopped recycling or a per-block Box came back.
        // One alloc of absolute slack keeps near-zero baselines (the stage
        // rows) from failing on counting jitter.
        let base_ab = num(b, "allocs_per_block", base_path);
        let fresh_ab = num(f, "allocs_per_block", fresh_path);
        let ceil = base_ab * (1.0 + tolerance) + 1.0;
        let verdict = if fresh_ab > ceil { "FAIL" } else { "ok" };
        println!(
            "datapath {id:>24}: {fresh_ab:>9.1} allocs/block vs baseline {base_ab:>9.1} (ceil {ceil:>9.1})  {verdict}"
        );
        if fresh_ab > ceil {
            failures.push(format!(
                "datapath {id:?}: {fresh_ab:.1} allocs/block grew more than {:.0}% over baseline {base_ab:.1}",
                tolerance * 100.0
            ));
        }
        // Segmentation gate (e2e rows): segments and copied bytes per block
        // are decided by the simulation, not the host, so there is no
        // tolerance — any rise is the sender fragmenting or copying again.
        for key in ["segs_per_block", "copied_per_block"] {
            if !b.contains_key(key) {
                continue;
            }
            let (base_v, fresh_v) = (num(b, key, base_path), num(f, key, fresh_path));
            let verdict = if fresh_v > base_v { "FAIL" } else { "ok" };
            println!(
                "datapath {id:>24}: {fresh_v:>9.2} {key} vs baseline {base_v:>9.2} (exact or lower)  {verdict}"
            );
            if fresh_v > base_v {
                failures.push(format!(
                    "datapath {id:?}: {key} rose from {base_v} to {fresh_v} (machine-independent count)"
                ));
            }
        }
    }
}

fn check_faults(fresh_path: &str, base_path: &str, tolerance: f64, failures: &mut Vec<String>) {
    let fresh = load(fresh_path);
    let base = load(base_path);
    let fresh_by_down = index(&fresh, "down_ms", fresh_path);
    for b in &base {
        let down = &b["down_ms"];
        let Some(f) = fresh_by_down.get(down) else {
            // Quick runs cover a subset of the outage matrix; only points
            // present in BOTH files are compared.
            continue;
        };
        let base_rec = num(b, "recovery_ms", base_path);
        let fresh_rec = num(f, "recovery_ms", fresh_path);
        if base_rec > 0.0 {
            let ceil = base_rec * 2.0 + 50.0;
            let verdict = if fresh_rec > ceil { "FAIL" } else { "ok" };
            println!(
                "faults down={down:>5} ms recovery: {fresh_rec:>8.1} ms vs baseline {base_rec:>8.1} (ceil {ceil:>8.1})  {verdict}"
            );
            if fresh_rec > ceil {
                failures.push(format!(
                    "faults down={down}: recovery {fresh_rec:.1} ms more than doubled baseline {base_rec:.1} ms"
                ));
            }
        }
        let base_total = num(b, "total_ms", base_path);
        let fresh_total = num(f, "total_ms", fresh_path);
        let ceil = base_total * (1.0 + tolerance) + 50.0;
        let verdict = if fresh_total > ceil { "FAIL" } else { "ok" };
        println!(
            "faults down={down:>5} ms total:    {fresh_total:>8.1} ms vs baseline {base_total:>8.1} (ceil {ceil:>8.1})  {verdict}"
        );
        if fresh_total > ceil {
            failures.push(format!(
                "faults down={down}: total {fresh_total:.1} ms regressed more than {:.0}% over baseline {base_total:.1} ms",
                tolerance * 100.0
            ));
        }
    }
}

fn check_mux(fresh_path: &str, base_path: &str, failures: &mut Vec<String>) {
    let fresh = load(fresh_path);
    let base = load(base_path);
    // Invariant gate first: every fresh row must show exactly one link and
    // one establishment walk, whatever the baseline says.
    for f in &fresh {
        let n = &f["channels"];
        for key in ["links", "walks"] {
            let v = num(f, key, fresh_path);
            if v != 1.0 {
                failures.push(format!(
                    "mux channels={n}: {key} = {v} (must be exactly 1 — channels stopped sharing a link)"
                ));
            }
        }
    }
    let fresh_by_n = index(&fresh, "channels", fresh_path);
    for b in &base {
        let n = &b["channels"];
        let Some(f) = fresh_by_n.get(n) else {
            // Quick runs cover a subset of the channel matrix.
            continue;
        };
        for key in ["setup_ms", "recovery_ms"] {
            let base_v = num(b, key, base_path);
            let fresh_v = num(f, key, fresh_path);
            let ceil = base_v * 2.0 + 50.0;
            let verdict = if fresh_v > ceil { "FAIL" } else { "ok" };
            println!(
                "mux channels={n:>3} {key:>11}: {fresh_v:>8.1} ms vs baseline {base_v:>8.1} (ceil {ceil:>8.1})  {verdict}"
            );
            if fresh_v > ceil {
                failures.push(format!(
                    "mux channels={n}: {key} {fresh_v:.1} ms more than doubled baseline {base_v:.1} ms"
                ));
            }
        }
    }
}

fn check_storm(fresh_path: &str, base_path: &str, failures: &mut Vec<String>) {
    let fresh = load(fresh_path);
    let base = load(base_path);
    // Invariant gate first: one establishment walk per distinct
    // sender→peer pair, exactly — more means single-flight dedupe broke
    // under the storm, fewer means connects silently failed.
    for f in &fresh {
        let n = &f["nodes"];
        let pairs = num(f, "pairs", fresh_path);
        let walks = num(f, "walks", fresh_path);
        if walks != pairs {
            failures.push(format!(
                "storm nodes={n}: walks = {walks} but distinct pairs = {pairs} (must match exactly)"
            ));
        }
    }
    let fresh_by_n = index(&fresh, "nodes", fresh_path);
    for b in &base {
        let n = &b["nodes"];
        let Some(f) = fresh_by_n.get(n) else {
            // Quick runs cover a subset of the storm matrix.
            continue;
        };
        let base_v = num(b, "setup_ms", base_path);
        let fresh_v = num(f, "setup_ms", fresh_path);
        let ceil = base_v * 2.0 + 50.0;
        let verdict = if fresh_v > ceil { "FAIL" } else { "ok" };
        println!(
            "storm nodes={n:>3} setup: {fresh_v:>8.1} ms vs baseline {base_v:>8.1} (ceil {ceil:>8.1})  {verdict}"
        );
        if fresh_v > ceil {
            failures.push(format!(
                "storm nodes={n}: aggregate setup {fresh_v:.1} ms more than doubled baseline {base_v:.1} ms"
            ));
        }
    }
}

fn check_adaptive(fresh_path: &str, base_path: &str, tolerance: f64, failures: &mut Vec<String>) {
    let fresh = load(fresh_path);
    let base = load(base_path);
    // Structural gate on the FRESH run alone: the controller must land
    // within 0.9x of the best static configuration (adaptation is nearly
    // free) and at least 1.5x above the worst (adaptation actually pays
    // on the ramp). Host-speed independent — the simulation clock is
    // deterministic.
    let ctl = fresh
        .iter()
        .find(|r| r.get("id").map(String::as_str) == Some("controller"));
    let statics: Vec<f64> = fresh
        .iter()
        .filter(|r| r.get("id").map(String::as_str) != Some("controller"))
        .map(|r| num(r, "mb_s", fresh_path))
        .collect();
    match (ctl, statics.is_empty()) {
        (Some(c), false) => {
            let ctl_mb = num(c, "mb_s", fresh_path);
            let best = statics.iter().cloned().fold(f64::MIN, f64::max);
            let worst = statics.iter().cloned().fold(f64::MAX, f64::min);
            let floor_best = best * 0.9;
            let floor_worst = worst * 1.5;
            let verdict = if ctl_mb >= floor_best { "ok" } else { "FAIL" };
            println!(
                "adaptive controller: {ctl_mb:>6.2} MB/s vs static best {best:>6.2} (floor {floor_best:>6.2})  {verdict}"
            );
            if ctl_mb < floor_best {
                failures.push(format!(
                    "adaptive: controller {ctl_mb:.2} MB/s below 0.9x static best {best:.2} \
                     (control loop not tracking the ramp)"
                ));
            }
            let verdict = if ctl_mb >= floor_worst { "ok" } else { "FAIL" };
            println!(
                "adaptive controller: {ctl_mb:>6.2} MB/s vs static worst {worst:>6.2} (need {floor_worst:>6.2})  {verdict}"
            );
            if ctl_mb < floor_worst {
                failures.push(format!(
                    "adaptive: controller {ctl_mb:.2} MB/s under 1.5x static worst {worst:.2} \
                     (adaptation buys nothing over a bad static pick)"
                ));
            }
        }
        _ => failures.push(format!(
            "adaptive: {fresh_path} lacks a controller row and/or static rows"
        )),
    }
    // Baseline drift, per configuration id. Quick runs use a shorter ramp
    // schedule than the committed full baseline, so absolute MB/s differ
    // by workload shape — only the controller row compares, and with the
    // loose stage tolerance.
    let fresh_by_id = index(&fresh, "id", fresh_path);
    for b in &base {
        let id = &b["id"];
        if id != "controller" {
            continue;
        }
        let Some(f) = fresh_by_id.get(id) else {
            continue;
        };
        let base_mb = num(b, "mb_s", base_path);
        let fresh_mb = num(f, "mb_s", fresh_path);
        let floor = base_mb * (1.0 - tolerance);
        let verdict = if fresh_mb < floor { "FAIL" } else { "ok" };
        println!(
            "adaptive {id:>16}: {fresh_mb:>6.2} MB/s vs baseline {base_mb:>6.2} (floor {floor:>6.2})  {verdict}"
        );
        if fresh_mb < floor {
            failures.push(format!(
                "adaptive {id:?}: {fresh_mb:.2} MB/s regressed more than {:.0}% below baseline {base_mb:.2}",
                tolerance * 100.0
            ));
        }
    }
}

fn check_relaymesh(fresh_path: &str, base_path: &str, tolerance: f64, failures: &mut Vec<String>) {
    let fresh = load(fresh_path);
    let base = load(base_path);
    // Structural gates first, on the FRESH run alone — these hold at any
    // host speed and any quick/full matrix size.
    let mut spread: HashMap<String, f64> = HashMap::new();
    for f in &fresh {
        let round = f.get("round").cloned().unwrap_or_default();
        match round.as_str() {
            "spread" => {
                spread.insert(f["relays"].clone(), num(f, "mb_s", fresh_path));
            }
            "skew" => {
                let busy = num(f, "busy_throttles", fresh_path);
                let verdict = if busy >= 1.0 { "ok" } else { "FAIL" };
                println!("relaymesh skew: busy_throttles = {busy}  {verdict}");
                if busy < 1.0 {
                    failures.push(
                        "relaymesh skew: busy_throttles = 0 (one-hot overload drew no typed \
                         backpressure — sharded plane not throttling)"
                            .into(),
                    );
                }
            }
            "kill" => {
                let ok = num(f, "fifo_ok", fresh_path);
                let verdict = if ok == 1.0 { "ok" } else { "FAIL" };
                println!("relaymesh kill: fifo_ok = {ok}  {verdict}");
                if ok != 1.0 {
                    failures.push(
                        "relaymesh kill: transfer across a mid-stream relay kill was not \
                         exactly-once FIFO"
                            .into(),
                    );
                }
            }
            _ => failures.push(format!(
                "relaymesh: unknown round {round:?} in {fresh_path}"
            )),
        }
    }
    match (spread.get("1"), spread.get("4")) {
        (Some(&one), Some(&four)) => {
            let ratio = four / one;
            let verdict = if ratio >= 2.0 { "ok" } else { "FAIL" };
            println!(
                "relaymesh spread: 4-relay {four:.2} MB/s / 1-relay {one:.2} MB/s = {ratio:.2}x (need >= 2.0x)  {verdict}"
            );
            if ratio < 2.0 {
                failures.push(format!(
                    "relaymesh spread: aggregate throughput scaled only {ratio:.2}x from 1 to 4 \
                     relays (mesh must buy at least 2x)"
                ));
            }
        }
        _ => failures.push(format!(
            "relaymesh: {fresh_path} lacks spread rows for relays=1 and relays=4"
        )),
    }
    // Baseline drift on the spread rows. Keyed by relays AND pairs: the
    // quick matrix runs fewer pairs than the committed full baseline, and
    // aggregate MB/s is workload-shaped, so only identical points compare
    // (rows in just one file are skipped, like the other suites).
    let keyed = |rows: &[Obj]| -> HashMap<String, Obj> {
        rows.iter()
            .filter(|r| r.get("round").map(String::as_str) == Some("spread"))
            .map(|r| (format!("{} pairs={}", r["relays"], r["pairs"]), r.clone()))
            .collect()
    };
    let fresh_by_k = keyed(&fresh);
    for (k, b) in keyed(&base) {
        let Some(f) = fresh_by_k.get(&k) else {
            continue;
        };
        let base_mb = num(&b, "mb_s", base_path);
        let fresh_mb = num(f, "mb_s", fresh_path);
        let floor = base_mb * (1.0 - tolerance);
        let verdict = if fresh_mb < floor { "FAIL" } else { "ok" };
        println!(
            "relaymesh spread relays={k}: {fresh_mb:>7.2} MB/s vs baseline {base_mb:>7.2} (floor {floor:>7.2})  {verdict}"
        );
        if fresh_mb < floor {
            failures.push(format!(
                "relaymesh spread relays={k}: {fresh_mb:.2} MB/s regressed more than {:.0}% below baseline {base_mb:.2}",
                tolerance * 100.0
            ));
        }
    }
}

/// `BENCH_*.json` filenames in `dir`, sorted.
fn discover(dir: &str) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("check_bench: read dir {dir}: {e}");
            std::process::exit(2);
        })
        .filter_map(|ent| {
            let name = ent.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    out.sort();
    out
}

/// Every baseline in `base_dir` must have a fresh counterpart in
/// `fresh_dir` (and nothing unaccounted-for the other way), each must
/// parse, and known suites get their typed gate. A missing or extra file
/// is a coverage hole in the bench harness itself — exit 2, naming it —
/// not a perf regression.
fn check_all(fresh_dir: &str, base_dir: &str, tolerance: f64, failures: &mut Vec<String>) {
    let base_files = discover(base_dir);
    let fresh_files = discover(fresh_dir);
    if base_files.is_empty() {
        eprintln!("check_bench: no BENCH_*.json baselines in {base_dir}");
        std::process::exit(2);
    }
    let missing: Vec<&String> = base_files
        .iter()
        .filter(|f| !fresh_files.contains(f))
        .collect();
    let extra: Vec<&String> = fresh_files
        .iter()
        .filter(|f| !base_files.contains(f))
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        for f in &missing {
            eprintln!("check_bench: baseline {f} has no fresh run in {fresh_dir} (bench not wired into the quick gate?)");
        }
        for f in &extra {
            eprintln!("check_bench: fresh {fresh_dir}/{f} has no baseline in {base_dir} (run the full suite and commit it)");
        }
        std::process::exit(2);
    }
    for name in &base_files {
        let fresh = format!("{fresh_dir}/{name}");
        let base = format!("{base_dir}/{name}");
        println!("--- {name}");
        match name.as_str() {
            "BENCH_datapath.json" => check_datapath(&fresh, &base, tolerance, failures),
            "BENCH_faults.json" => check_faults(&fresh, &base, tolerance, failures),
            "BENCH_mux.json" => check_mux(&fresh, &base, failures),
            "BENCH_storm.json" => check_storm(&fresh, &base, failures),
            "BENCH_relaymesh.json" => check_relaymesh(&fresh, &base, tolerance, failures),
            "BENCH_adaptive.json" => check_adaptive(&fresh, &base, tolerance, failures),
            _ => {
                // Unknown suite: no typed gate yet, but both sides must at
                // least be well-formed bench output.
                load(&fresh);
                load(&base);
                println!("{name}: parses on both sides (no typed gate for this suite)");
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|s| s.parse().expect("--tolerance takes a fraction"))
        .unwrap_or(0.2);
    let (Some(fresh_dir), true) = (arg_value(&args, "--fresh-dir"), has_flag(&args, "--all"))
    else {
        eprintln!("usage: check_bench --all --fresh-dir DIR [--base-dir DIR] [--tolerance 0.2]");
        std::process::exit(2);
    };
    let base_dir = arg_value(&args, "--base-dir").unwrap_or_else(|| ".".into());

    let mut failures = Vec::new();
    check_all(&fresh_dir, &base_dir, tolerance, &mut failures);
    if failures.is_empty() {
        println!("check_bench: no regressions");
    } else {
        eprintln!("check_bench: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_objects;

    #[test]
    fn well_formed_array_parses() {
        let src = "[\n  {\"channels\": 1, \"setup_ms\": 93.0},\n  {\"channels\": 8, \"setup_ms\": 95.0}\n]\n";
        let rows = parse_objects(src, "BENCH_mux.json").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["channels"], "1");
        assert_eq!(rows[1]["setup_ms"], "95.0");
    }

    #[test]
    fn truncated_object_is_a_named_error_not_a_panic() {
        // An interrupted run_benches.sh leaves a file cut mid-object.
        let src = "[\n  {\"channels\": 1, \"setup_ms\": 93.0},\n  {\"channels\": 8, \"set";
        let err = parse_objects(src, "BENCH_mux.json").unwrap_err();
        assert!(
            err.contains("BENCH_mux.json"),
            "error must name the file: {err}"
        );
        assert!(
            err.contains("unterminated"),
            "error must say what is wrong: {err}"
        );
    }

    #[test]
    fn malformed_field_is_a_named_error() {
        let src = "[{\"channels\" 1}]";
        let err = parse_objects(src, "fresh.json").unwrap_err();
        assert!(
            err.contains("fresh.json") && err.contains("malformed field"),
            "{err}"
        );
    }

    #[test]
    fn empty_file_is_an_error() {
        let err = parse_objects("[]\n", "empty.json").unwrap_err();
        assert!(
            err.contains("empty.json") && err.contains("no objects"),
            "{err}"
        );
    }
}
