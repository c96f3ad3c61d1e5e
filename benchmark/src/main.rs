//! gridbench — the repository's one benchmark. README.md in this
//! directory says what it measures and why; `run.sh` builds and runs it.
//!
//! ```text
//! gridbench run --workload W --seed N --seconds S --trace 0|1   one workload, the driver's contract
//! gridbench all [--seed N] [--seconds S] [--trace]              all five, for people; writes latest.json
//! gridbench compare A.json B.json                               apply the bounds to two result files
//! gridbench rep ... | layer ... | probe ...                     one repetition / layer group / probe pass (internal)
//! ```

mod check;
mod compare;
mod json;
mod layers;
mod probe;
mod rep;
mod runner;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;
mod worlds;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use json::Value;
use runner::Config;
use spec::Spec;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Where `BENCHMARK.json` is and results go, relative to the repository
/// root — `run.sh` changes there first.
const SPEC_FILE: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {flag}")))
            .transpose()
    }

    fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("rep") => rep_mode(&args),
        Some("layer") => layer_mode(&args),
        Some("probe") => probe_mode(&args),
        Some("run") => run_mode(&args),
        Some("all") => all_mode(&args),
        Some("compare") => compare_mode(&args),
        _ => Err("usage: gridbench run|all|compare ... (see benchmark/README.md)".to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("gridbench: {e}");
            std::process::exit(2);
        }
    }
}

fn rep_mode(args: &Args) -> Result<i32, String> {
    let workload = args.value("--workload").ok_or("rep needs --workload")?;
    let out = args.value("--out").unwrap_or(OUT_DIR);
    Ok(rep::run(
        workload,
        args.parsed("--seed")?.unwrap_or(42),
        args.parsed("--cpu")?,
        args.flag("--traced"),
        Path::new(out),
    ))
}

fn layer_mode(args: &Args) -> Result<i32, String> {
    let group = args.value("--group").ok_or("layer needs --group")?;
    if let Some(cpu) = args.parsed("--cpu")? {
        sys::pin_to_cpu(cpu);
    }
    let metrics = layers::run(group, args.parsed("--seed")?.unwrap_or(42))
        .ok_or_else(|| format!("unknown layer group `{group}`"))?;
    let mut out = Value::obj();
    for (name, v) in metrics {
        out.set(name, v);
    }
    println!("{}", out.encode());
    Ok(0)
}

fn probe_mode(args: &Args) -> Result<i32, String> {
    if let Some(cpu) = args.parsed("--cpu")? {
        sys::pin_to_cpu(cpu);
    }
    let [alu, copy, handoff] = probe::run();
    let out = Value::obj()
        .with("alu_ns", alu)
        .with("copy_ns", copy)
        .with("handoff_ns", handoff);
    println!("{}", out.encode());
    Ok(0)
}

fn config(args: &Args) -> Result<Config, String> {
    let spec = Spec::load(Path::new(SPEC_FILE))?;
    if spec.workloads != workloads::NAMES {
        return Err(format!(
            "{SPEC_FILE} lists workloads {:?}, this binary runs {:?}",
            spec.workloads,
            workloads::NAMES
        ));
    }
    Spec::same_names(&spec.end_to_end, &runner::END_TO_END, "end-to-end")?;
    Spec::same_names(&spec.per_layer, &runner::PER_LAYER, "per-layer")?;
    let seconds = args.parsed("--seconds")?.unwrap_or(spec.run_seconds);
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    // The highest CPU this process may use: CPU 0 takes most interrupts.
    let cpu = sys::allowed_cpus().last().copied();
    Ok(Config {
        spec,
        seed: args.parsed("--seed")?.unwrap_or(42),
        seconds,
        out_dir: PathBuf::from(OUT_DIR),
        exe: std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?,
        cpu,
    })
}

/// One workload, as the driver runs it. The last line printed is the
/// result object.
fn run_mode(args: &Args) -> Result<i32, String> {
    let cfg = config(args)?;
    let workload = args.value("--workload").ok_or("run needs --workload")?;
    if !cfg.spec.workloads.iter().any(|w| w == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let report = cfg.measure(workload, trace, None)?;
    report.print(&cfg.spec, &cfg, trace);
    println!("{}", report.driver_line(&cfg.spec, trace).encode());
    Ok(if report.correct() { 0 } else { 1 })
}

/// All workloads, every metric printed by name with its unit, results
/// written to `benchmark/out/latest.json`.
fn all_mode(args: &Args) -> Result<i32, String> {
    let cfg = config(args)?;
    let trace = args.flag("--trace");
    let layers = if trace {
        // Once for all workloads, the full five passes.
        println!("== layers pass (isolated, each group in a fresh pinned process)");
        Some(cfg.layer_passes(Instant::now() + Duration::from_secs(3600))?)
    } else {
        None
    };
    let mut results = Value::obj();
    let mut all_correct = true;
    for workload in &cfg.spec.workloads {
        let report = cfg.measure(workload, trace, layers.as_ref())?;
        report.print(&cfg.spec, &cfg, trace);
        all_correct &= report.correct();
        results.set(workload, report.to_json(&cfg.spec));
    }
    let doc = Value::obj()
        .with("benchmark", "gridbench")
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("traced", trace)
        .with("pinned_cpu", cfg.cpu.map_or(Value::Null, Value::from))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("workloads", results);
    let file = cfg.out_dir.join("latest.json");
    std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&file, doc.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    if !all_correct {
        println!("FAILED: some outputs are not correct (see INCORRECT lines above)");
    }
    Ok(if all_correct { 0 } else { 1 })
}

fn compare_mode(args: &Args) -> Result<i32, String> {
    let [_, a, b] = args.0.as_slice() else {
        return Err("usage: gridbench compare A.json B.json".to_string());
    };
    let spec = Spec::load(Path::new(SPEC_FILE))?;
    let read = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::rows(&spec, &read(a)?, &read(b)?)?;
    println!("A = {a}\nB = {b}");
    Ok(if compare::print(&rows) == 0 { 0 } else { 1 })
}
