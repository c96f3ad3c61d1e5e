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
//! What is checked is [`SUITES`], one entry per file: the columns that key
//! a row, gates on single columns (a fresh row against the baseline row of
//! the same key, or a fresh row against a constant — the structural
//! invariants, which hold at any host speed and any matrix size) and the
//! gates that span rows. One evaluator applies them all; a new
//! `BENCH_*.json` is a new table entry plus its cases in the test below.
//! A file with no entry must still parse on both sides.
//!
//! Every gated column is on the simulated clock; the tolerance absorbs the
//! shorter workload of a quick CI run, which passes a looser one than the
//! default. Exit 1 means "parsed fine, found regressions". The JSON is the
//! flat array of flat objects our bench binaries emit — parsed by hand, no
//! serde. A truncated or malformed file (an interrupted `run_benches.sh`),
//! a row without a column a gate reads, a value that is not a number or two
//! rows with one key are exit 2 with the file, row and column named — never
//! a panic.

use netgrid_bench::Cli;
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

/// How a gate judges its column. The first three compare a fresh row with
/// the baseline row of the same key; the rest read the fresh row alone.
enum Rule {
    /// Fresh below `(1 - tolerance) x` baseline fails.
    Floor,
    /// Fresh above `(1 + tolerance) x baseline + slack` fails; the absolute
    /// slack keeps near-zero baselines from failing on jitter.
    Ceiling(f64),
    /// Fresh above `2 x baseline + 50` (ms) fails. A baseline at or below
    /// zero is skipped: nothing happened there to take twice as long.
    Doubled,
    Equals(f64),
    EqualsColumn(&'static str),
    AtLeast(f64),
    /// The column's text must be one of these.
    OneOf(&'static [&'static str]),
}

/// `(column, value)`: the rows a gate judges; `None` is every row.
type On = Option<(&'static str, &'static str)>;

/// `(rows, column, rule, what a failure means)`.
struct Gate(On, &'static str, Rule, &'static str);

/// Gates over several rows of the fresh file.
enum Cross {
    /// Among the rows `on`, `column` where `by` reads `num` must be at least
    /// `min x` `column` where `by` reads `den`.
    Ratio {
        on: On,
        by: &'static str,
        num: &'static str,
        den: &'static str,
        column: &'static str,
        min: f64,
        why: &'static str,
    },
    /// `column` of the row `row` must reach `best x` the largest and
    /// `worst x` the smallest `column` among the other rows.
    AgainstRest {
        row: (&'static str, &'static str),
        column: &'static str,
        best: f64,
        worst: f64,
    },
}

struct Suite {
    file: &'static str,
    /// Short name: prefixes report lines and gate ids.
    name: &'static str,
    /// The columns that identify a row; two rows with one key are an error.
    key: &'static [&'static str],
    gates: &'static [Gate],
    cross: &'static [Cross],
}

#[rustfmt::skip] // one gate, one line
const SUITES: &[Suite] = &[
    Suite {
        file: "BENCH_faults.json", name: "faults", key: &["down_ms"],
        gates: &[
            Gate(None, "recovery_ms", Rule::Doubled, ""),
            Gate(None, "total_ms", Rule::Ceiling(50.0), ""),
        ],
        cross: &[],
    },
    Suite {
        file: "BENCH_mux.json", name: "mux", key: &["channels"],
        gates: &[
            // N same-spec channels must share ONE link found by ONE walk.
            Gate(None, "links", Rule::Equals(1.0), "channels stopped sharing a link"),
            Gate(None, "walks", Rule::Equals(1.0), "channels stopped sharing a walk"),
            Gate(None, "setup_ms", Rule::Doubled, ""),
            Gate(None, "recovery_ms", Rule::Doubled, ""),
        ],
        cross: &[],
    },
    Suite {
        file: "BENCH_storm.json", name: "storm", key: &["nodes"],
        gates: &[
            // One Figure-4 walk per distinct sender→peer pair.
            Gate(None, "walks", Rule::EqualsColumn("pairs"), "more: single-flight dedupe broke under the storm; fewer: connects silently failed"),
            Gate(None, "setup_ms", Rule::Doubled, ""),
        ],
        cross: &[],
    },
    Suite {
        // `pairs` in the key: the quick matrix runs fewer pairs than the
        // committed full one and aggregate MB/s is workload-shaped, so only
        // identical points compare.
        file: "BENCH_relaymesh.json", name: "relaymesh", key: &["round", "relays", "pairs"],
        gates: &[
            Gate(None, "round", Rule::OneOf(&["spread", "skew", "kill"]), ""),
            Gate(Some(("round", "skew")), "busy_throttles", Rule::AtLeast(1.0), "one-hot overload drew no typed backpressure: sharded plane not throttling"),
            Gate(Some(("round", "kill")), "fifo_ok", Rule::Equals(1.0), "transfer across a mid-stream relay kill was not exactly-once FIFO"),
            Gate(Some(("round", "spread")), "mb_s", Rule::Floor, ""),
        ],
        cross: &[Cross::Ratio {
            on: Some(("round", "spread")), by: "relays", num: "4", den: "1", column: "mb_s", min: 2.0,
            why: "the mesh must scale",
        }],
    },
    Suite {
        file: "BENCH_adaptive.json", name: "adaptive", key: &["id"],
        // Quick runs use a shorter ramp schedule than the committed full
        // baseline, so absolute MB/s differ by workload shape: only the
        // controller row compares.
        gates: &[Gate(Some(("id", "controller")), "mb_s", Rule::Floor, "")],
        // Near the best static configuration (adaptation is nearly free)
        // and well above the worst (it pays on the ramp).
        cross: &[Cross::AgainstRest { row: ("id", "controller"), column: "mb_s", best: 0.9, worst: 1.5 }],
    },
];

impl Rule {
    fn name(&self) -> &'static str {
        match self {
            Rule::Floor => "floor",
            Rule::Ceiling(_) => "ceiling",
            Rule::Doubled => "doubled",
            Rule::Equals(_) => "equals",
            Rule::EqualsColumn(_) => "equals-column",
            Rule::AtLeast(_) => "at-least",
            Rule::OneOf(_) => "one-of",
        }
    }
}

/// One parsed file: where it came from (for diagnostics) and its rows.
struct Table<'a> {
    path: &'a str,
    rows: &'a [Obj],
}

/// A regression: the gate that found it, as `suite/column/rule`, and the
/// line for the report.
#[derive(Debug)]
struct Failure {
    gate: String,
    msg: String,
}

fn selects(on: On, row: &Obj) -> bool {
    on.is_none_or(|(column, value)| row.get(column).map(String::as_str) == Some(value))
}

/// `row`'s key as `column=value ...`; `n` is its position, to name a row
/// that lacks a key column.
fn key_of(suite: &Suite, row: &Obj, path: &str, n: usize) -> Result<String, String> {
    let parts: Result<Vec<String>, String> = suite
        .key
        .iter()
        .map(|k| match row.get(*k) {
            Some(v) => Ok(format!("{k}={v}")),
            None => Err(format!("{path}: row {n}: missing key column {k:?}")),
        })
        .collect();
    Ok(parts?.join(" "))
}

/// Rows by key, in file order.
fn keyed<'a>(suite: &Suite, t: &Table<'a>) -> Result<Vec<(String, &'a Obj)>, String> {
    let mut out: Vec<(String, &Obj)> = Vec::new();
    for (n, row) in t.rows.iter().enumerate() {
        let key = key_of(suite, row, t.path, n)?;
        if out.iter().any(|(k, _)| *k == key) {
            return Err(format!("{}: two rows with key {key}", t.path));
        }
        out.push((key, row));
    }
    Ok(out)
}

fn num(row: &Obj, column: &str, path: &str, key: &str) -> Result<f64, String> {
    let v = row
        .get(column)
        .ok_or_else(|| format!("{path}: row {key}: missing column {column:?}"))?;
    v.parse()
        .map_err(|_| format!("{path}: row {key}: column {column:?} is not a number: {v:?}"))
}

/// Apply every gate of `suite`: a report line per judgement on stdout, a
/// [`Failure`] per regression. `Err` is input no gate can judge.
fn evaluate(
    suite: &Suite,
    fresh: &Table,
    base: &Table,
    tolerance: f64,
    failures: &mut Vec<Failure>,
) -> Result<(), String> {
    let name = suite.name;
    let fresh_rows = keyed(suite, fresh)?;
    let base_rows = keyed(suite, base)?;
    // Every comparison below is the failing one, so a NaN passes as it
    // always has.
    let mut judge = |gate: String, bad: bool, line: String, why: &str| {
        println!("{name} {line}  {}", if bad { "FAIL" } else { "ok" });
        if bad {
            let sep = if why.is_empty() { "" } else { " — " };
            failures.push(Failure {
                gate: format!("{name}/{gate}"),
                msg: format!("{name} {line}{sep}{why}"),
            });
        }
    };

    // The fresh run alone: these hold whatever the baseline says.
    for (key, row) in &fresh_rows {
        for Gate(_, column, rule, why) in suite.gates.iter().filter(|g| selects(g.0, row)) {
            let text = row.get(*column).map_or("", String::as_str);
            let value = || num(row, column, fresh.path, key);
            let (bad, line) = match *rule {
                Rule::Equals(c) => (value()? != c, format!("must be exactly {c}")),
                Rule::AtLeast(c) => (value()? < c, format!("must be at least {c}")),
                Rule::EqualsColumn(other) => {
                    let o = num(row, other, fresh.path, key)?;
                    (value()? != o, format!("must equal {other} = {o}"))
                }
                Rule::OneOf(known) => (!known.contains(&text), format!("must be one of {known:?}")),
                _ => continue,
            };
            let line = format!("{key}: {column} = {text} ({line})");
            judge(format!("{column}/{}", rule.name()), bad, line, why);
        }
    }
    for c in suite.cross {
        match *c {
            Cross::Ratio {
                on,
                by,
                num: top,
                den,
                column,
                min,
                why,
            } => {
                let of = |value: &str| {
                    fresh_rows.iter().find(|(_, r)| {
                        selects(on, r) && r.get(by).map(String::as_str) == Some(value)
                    })
                };
                let (Some((kt, rt)), Some((kd, rd))) = (of(top), of(den)) else {
                    let line = format!("{} lacks rows for {by}={den} and {by}={top}", fresh.path);
                    judge(format!("{column}/ratio-rows"), true, line, "");
                    continue;
                };
                let ratio = num(rt, column, fresh.path, kt)? / num(rd, column, fresh.path, kd)?;
                let line =
                    format!("{column}: {by}={top} / {by}={den} = {ratio:.2}x (need {min:.2}x)");
                judge(format!("{column}/ratio"), ratio < min, line, why);
            }
            Cross::AgainstRest {
                row,
                column,
                best,
                worst,
            } => {
                let mut rest = Vec::new();
                for (key, r) in fresh_rows.iter().filter(|(_, r)| !selects(Some(row), r)) {
                    rest.push(num(r, column, fresh.path, key)?);
                }
                let subject = fresh_rows.iter().find(|(_, r)| selects(Some(row), r));
                let (Some((key, r)), false) = (subject, rest.is_empty()) else {
                    let line = format!(
                        "{} lacks a {}={} row and/or rows to hold it against",
                        fresh.path, row.0, row.1
                    );
                    judge(format!("{column}/vs-rest-rows"), true, line, "");
                    continue;
                };
                let v = num(r, column, fresh.path, key)?;
                let hi = rest.iter().cloned().fold(f64::MIN, f64::max);
                let lo = rest.iter().cloned().fold(f64::MAX, f64::min);
                for (what, of_rest, factor) in [("best", hi, best), ("worst", lo, worst)] {
                    let need = of_rest * factor;
                    let line = format!(
                        "{key}: {column} {v:.2} vs {what} of the rest {of_rest:.2} (need {need:.2}, {factor}x)"
                    );
                    judge(format!("{column}/vs-{what}"), v < need, line, "");
                }
            }
        }
    }

    // Against the baseline, row by row. A quick run covers a subset of the
    // committed matrix, so a baseline row with no fresh row is skipped.
    for (key, b) in &base_rows {
        let Some((_, f)) = fresh_rows.iter().find(|(k, _)| k == key) else {
            continue;
        };
        for Gate(_, column, rule, why) in suite.gates.iter().filter(|g| selects(g.0, b)) {
            if !matches!(rule, Rule::Floor | Rule::Ceiling(_) | Rule::Doubled) {
                continue;
            }
            let bv = num(b, column, base.path, key)?;
            let fv = num(f, column, fresh.path, key)?;
            let (bad, bound) = match *rule {
                Rule::Floor => {
                    let floor = bv * (1.0 - tolerance);
                    (fv < floor, format!("floor {floor:.2}"))
                }
                Rule::Ceiling(slack) => {
                    let ceil = bv * (1.0 + tolerance) + slack;
                    (fv > ceil, format!("ceiling {ceil:.2}"))
                }
                Rule::Doubled if bv <= 0.0 => continue,
                _ => {
                    let ceil = bv * 2.0 + 50.0;
                    (fv > ceil, format!("ceiling {ceil:.2}, 2x + 50"))
                }
            };
            let line = format!("{key}: {column} {fv:.2} vs baseline {bv:.2} ({bound})");
            judge(format!("{column}/{}", rule.name()), bad, line, why);
        }
    }
    Ok(())
}

/// `BENCH_*.json` filenames in `dir`, sorted.
fn discover(dir: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("read dir {dir}: {e}"))?
        .filter_map(|ent| {
            let name = ent.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    out.sort();
    Ok(out)
}

/// Every baseline must have a fresh counterpart and nothing may be
/// unaccounted-for the other way: a missing or extra file is a coverage
/// hole in the bench harness itself, not a perf regression.
fn pair_up(
    base: &[String],
    fresh: &[String],
    base_dir: &str,
    fresh_dir: &str,
) -> Result<(), String> {
    if base.is_empty() {
        return Err(format!("no BENCH_*.json baselines in {base_dir}"));
    }
    let mut holes = Vec::new();
    for f in base.iter().filter(|f| !fresh.contains(f)) {
        holes.push(format!(
            "baseline {f} has no fresh run in {fresh_dir} (bench not wired into the quick gate?)"
        ));
    }
    for f in fresh.iter().filter(|f| !base.contains(f)) {
        holes.push(format!(
            "fresh {fresh_dir}/{f} has no baseline in {base_dir} (run the full suite and commit it)"
        ));
    }
    if holes.is_empty() {
        Ok(())
    } else {
        Err(holes.join("\ncheck_bench: "))
    }
}

fn load(path: &str) -> Result<Vec<Obj>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_objects(&src, path)
}

/// Pair the two directories' files and evaluate each against its suite.
fn check_all(fresh_dir: &str, base_dir: &str, tolerance: f64) -> Result<Vec<Failure>, String> {
    let base_files = discover(base_dir)?;
    pair_up(&base_files, &discover(fresh_dir)?, base_dir, fresh_dir)?;
    let mut failures = Vec::new();
    for name in &base_files {
        let (fresh_path, base_path) = (format!("{fresh_dir}/{name}"), format!("{base_dir}/{name}"));
        let (fresh_rows, base_rows) = (load(&fresh_path)?, load(&base_path)?);
        println!("--- {name}");
        match SUITES.iter().find(|s| s.file == name) {
            Some(suite) => {
                let fresh = Table {
                    path: &fresh_path,
                    rows: &fresh_rows,
                };
                let base = Table {
                    path: &base_path,
                    rows: &base_rows,
                };
                evaluate(suite, &fresh, &base, tolerance, &mut failures)?;
            }
            None => println!("{name}: parses on both sides (no gates for this suite)"),
        }
    }
    Ok(failures)
}

fn main() {
    let cli = Cli::from_env();
    let tolerance: f64 = cli.value("--tolerance").unwrap_or(0.2);
    let (Some(fresh_dir), true) = (cli.value::<String>("--fresh-dir"), cli.flag("--all")) else {
        eprintln!("usage: check_bench --all --fresh-dir DIR [--base-dir DIR] [--tolerance 0.2]");
        std::process::exit(2);
    };
    let base_dir = cli.value("--base-dir").unwrap_or_else(|| ".".to_string());
    match check_all(&fresh_dir, &base_dir, tolerance) {
        Err(e) => {
            eprintln!("check_bench: {e}");
            std::process::exit(2);
        }
        Ok(failures) if failures.is_empty() => println!("check_bench: no regressions"),
        Ok(failures) => {
            eprintln!("check_bench: {} regression(s):", failures.len());
            for f in &failures {
                eprintln!("  {} [{}]", f.msg, f.gate);
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every gate `suite` can fail, under the id its [`Failure`] carries: what
    /// the gate test must have a case for.
    fn gate_ids(suite: &Suite) -> Vec<String> {
        let id = |column: &str, rule: &str| format!("{}/{column}/{rule}", suite.name);
        let mut ids: Vec<String> = suite.gates.iter().map(|g| id(g.1, g.2.name())).collect();
        for c in suite.cross {
            match c {
                Cross::Ratio { column, .. } => {
                    ids.extend([id(column, "ratio"), id(column, "ratio-rows")])
                }
                Cross::AgainstRest { column, .. } => ids.extend([
                    id(column, "vs-best"),
                    id(column, "vs-worst"),
                    id(column, "vs-rest-rows"),
                ]),
            }
        }
        ids
    }

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

    fn committed(suite: &Suite) -> (String, Vec<Obj>) {
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), suite.file);
        let rows = load(&path).unwrap();
        (path, rows)
    }

    /// `fresh` against the committed baseline at tolerance 0.
    fn run(suite: &Suite, fresh: &[Obj]) -> Result<Vec<Failure>, String> {
        let (path, base) = committed(suite);
        let mut failures = Vec::new();
        let fresh = Table {
            path: "fresh.json",
            rows: fresh,
        };
        let base = Table {
            path: &path,
            rows: &base,
        };
        evaluate(suite, &fresh, &base, 0.0, &mut failures).map(|()| failures)
    }

    /// The row of `rows` keyed `key`.
    fn row_at(suite: &Suite, rows: &[Obj], key: &str) -> usize {
        rows.iter()
            .position(|r| key_of(suite, r, "", 0).unwrap() == key)
            .unwrap_or_else(|| panic!("{}: no row {key}", suite.file))
    }

    /// `gate id; row key; edit; what the failure must name`: the one edit to a
    /// copy of the committed file — `column=value`, or `-` to drop the row —
    /// that must trip that gate and no other.
    const CASES: &[&str] = &[
        "faults/recovery_ms/doubled; down_ms=2000; recovery_ms=925.1; recovery_ms",
        "faults/total_ms/ceiling; down_ms=500; total_ms=11314.7; total_ms",
        "mux/links/equals; channels=8; links=2; links = 2",
        "mux/walks/equals; channels=64; walks=0; walks = 0",
        "mux/setup_ms/doubled; channels=1; setup_ms=173.7; setup_ms",
        "mux/recovery_ms/doubled; channels=8; recovery_ms=401.7; recovery_ms",
        "storm/walks/equals-column; nodes=8; walks=9; must equal pairs",
        "storm/setup_ms/doubled; nodes=16; setup_ms=584.5; setup_ms",
        // Raise the 1-relay row: lowering the 4-relay one would also fall
        // through its baseline floor.
        "relaymesh/mb_s/ratio; round=spread relays=1 pairs=8; mb_s=6.5; 2.00x",
        "relaymesh/mb_s/ratio-rows; round=spread relays=1 pairs=8; -; lacks rows for relays=1",
        "relaymesh/busy_throttles/at-least; round=skew relays=4 pairs=8; busy_throttles=0; busy_throttles",
        "relaymesh/fifo_ok/equals; round=kill relays=2 pairs=1; fifo_ok=0; fifo_ok",
        "relaymesh/round/one-of; round=kill relays=2 pairs=1; round=drain; round = drain (must be one of",
        "relaymesh/mb_s/floor; round=spread relays=2 pairs=8; mb_s=6.743; floor",
        // Likewise: move the statics, not the controller row with its floor.
        "adaptive/mb_s/vs-best; id=static-stripe-8; mb_s=4.2; best of the rest",
        "adaptive/mb_s/vs-worst; id=static-plain-1; mb_s=3.0; worst of the rest",
        "adaptive/mb_s/vs-rest-rows; id=controller; -; lacks a id=controller row",
        "adaptive/mb_s/floor; id=controller; mb_s=3.7; floor",
    ];

    #[test]
    fn every_gate_passes_the_committed_files_and_fails_its_doctored_copy() {
        let cases: Vec<Vec<&str>> = CASES.iter().map(|c| c.split("; ").collect()).collect();
        for suite in SUITES {
            let (_, rows) = committed(suite);
            let clean = run(suite, &rows).unwrap();
            assert!(clean.is_empty(), "{} against itself: {clean:?}", suite.file);
            for id in gate_ids(suite) {
                let mine: Vec<_> = cases.iter().filter(|c| c[0] == id).collect();
                assert_eq!(mine.len(), 1, "gate {id} needs exactly one case");
                let (key, edit, names) = (mine[0][1], mine[0][2], mine[0][3]);
                let mut fresh = rows.clone();
                let at = row_at(suite, &fresh, key);
                match edit.split_once('=') {
                    Some((column, value)) => drop(fresh[at].insert(column.into(), value.into())),
                    None => drop(fresh.remove(at)),
                }
                let failures = run(suite, &fresh).unwrap();
                assert_eq!(failures.len(), 1, "{id}: {failures:?}");
                assert_eq!(failures[0].gate, id);
                assert!(failures[0].msg.contains(names), "{id}: {}", failures[0].msg);
            }
        }
        let known: Vec<String> = SUITES.iter().flat_map(gate_ids).collect();
        for case in &cases {
            assert!(
                known.iter().any(|id| id == case[0]),
                "case for no gate: {}",
                case[0]
            );
        }
    }

    #[test]
    fn a_baseline_without_a_fresh_file_and_a_fresh_file_without_a_baseline_are_named() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let both = names(&["BENCH_faults.json", "BENCH_mux.json"]);
        assert!(pair_up(&both, &both, "base", "fresh").is_ok());
        let err = pair_up(&both, &both[..1], "base", "fresh").unwrap_err();
        assert!(
            err.contains("baseline BENCH_mux.json has no fresh run"),
            "{err}"
        );
        let err = pair_up(&both[1..], &both, "base", "fresh").unwrap_err();
        assert!(
            err.contains("fresh/BENCH_faults.json has no baseline"),
            "{err}"
        );
        assert!(pair_up(&[], &both, "base", "fresh").is_err());
    }

    /// The faults suite on its committed file with `column` of row `key`
    /// overwritten (`None`: removed), which must be refused naming the file.
    fn refused(key: &str, column: &str, value: Option<&str>) -> String {
        let suite = &SUITES[0];
        let (_, mut rows) = committed(suite);
        let at = row_at(suite, &rows, key);
        match value {
            Some(v) => drop(rows[at].insert(column.into(), v.into())),
            None => drop(rows[at].remove(column)),
        }
        let err = run(suite, &rows).unwrap_err();
        assert!(
            err.contains("fresh.json"),
            "error must name the file: {err}"
        );
        err
    }

    #[test]
    fn missing_column_is_a_named_error_not_a_panic() {
        let err = refused("down_ms=2000", "total_ms", None);
        assert!(
            err.contains("down_ms=2000") && err.contains("missing column \"total_ms\""),
            "{err}"
        );
        let err = refused("down_ms=2000", "down_ms", None);
        assert!(
            err.contains("row 3") && err.contains("missing key column \"down_ms\""),
            "{err}"
        );
    }

    #[test]
    fn non_numeric_column_is_a_named_error_not_a_panic() {
        let err = refused("down_ms=500", "total_ms", Some("few"));
        assert!(
            err.contains("down_ms=500") && err.contains("\"total_ms\" is not a number"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_key_is_a_named_error_not_a_panic() {
        let err = refused("down_ms=500", "down_ms", Some("5000"));
        assert!(err.contains("two rows with key down_ms=5000"), "{err}");
    }
}
