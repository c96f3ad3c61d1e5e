//! The runner: starts one fresh pinned process per repetition, checks
//! what the repetitions report, and turns it into named metrics.
//!
//! Host-clock metrics are the median over repetitions of process CPU time
//! (wall time is recorded beside it as `runner.wall_over_cpu`), scaled by
//! how fast the machine was during the run: between repetitions the runner
//! times the fixed loops of `probe.rs` on the same pinned CPU, and host
//! times are divided by the run's median probe slowdown (README.md has the
//! measurements that made this necessary). Sim-clock metrics must be
//! identical in every repetition of one seed — a built-in determinism check.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::layers;
use crate::probe;
use crate::spec::Spec;
use crate::stats;
use crate::sys;
use crate::workloads::METHODS;

/// End-to-end metrics, every one reported by every workload. `op` is the
/// workload's operation (message, round trip, connect) and the byte
/// figures describe its data-moving phase; README.md has the table.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "host_mbps",
    "sim_goodput_mbps",
    "host_us_per_op",
    "sim_ops_per_s",
    "peak_rss_mb",
];

/// Which end-to-end metrics are on the simulated clock (identical in
/// every repetition of one seed).
fn on_sim_clock(name: &str) -> bool {
    name.starts_with("sim_")
}

/// A host time measured while the machine ran `slowdown` times slower than
/// nominal, as it would read at nominal speed. Throughputs scale the other
/// way; memory and sim-clock figures not at all.
fn calibrated(name: &str, value: f64, slowdown: f64) -> f64 {
    match name {
        "setup_s" | "host_us_per_op" => value / slowdown,
        "host_mbps" => value * slowdown,
        _ => value,
    }
}

/// Units of the per-layer metrics that are host times (and so calibrated
/// when they come from the `layers` pass).
fn is_host_time_unit(unit: &str) -> bool {
    matches!(unit, "ns" | "ns/B" | "us")
}

pub const PER_LAYER: [&str; 61] = [
    // Isolated: the `layers` pass.
    "simnet.handoff_ns",
    "simnet.event_ns",
    "simnet.pkt_hop_ns",
    "simtcp.tcb_ns_per_byte",
    "simtcp.stream_ns_per_byte",
    "simtcp.stream_bigwin_ns_per_byte",
    "gridzip.compress_ns_per_byte",
    "gridzip.decompress_ns_per_byte",
    "gridzip.ratio",
    "gridcrypt.seal_ns_per_byte",
    "gridcrypt.open_ns_per_byte",
    "gridcrypt.handshake_us",
    "drivers.agg_ns_per_byte",
    "drivers.stripe4_ns_per_byte",
    "stack.plain_ns_per_byte",
    "relay.routed_ns_per_byte",
    "relay.routed_sim_goodput_mbps",
    "rpc.call_host_us",
    // Derived from the isolated ones: the ladder.
    "ladder.stack_over_tcp_ns_per_byte",
    "ladder.relay_over_direct_ns_per_byte",
    "ladder.kernel_share",
    // Traced: counts at the phase boundaries of the traced repetition.
    "simnet.pkt_events_per_mib",
    "simnet.drop_loss",
    "simnet.drop_queue",
    "simnet.drop_firewall",
    "simnet.drop_nat",
    "simnet.bottleneck_util",
    "simnet.threads_at_exit",
    "simtcp.data_seg_payload_avg",
    "simtcp.acks_per_data_seg",
    "simtcp.wire_bytes_per_app_byte",
    "alloc.count_per_op",
    "alloc.bytes_per_op",
    // Traced: spans around the calls into the public API.
    "port.send_blocked_sim_share",
    "port.recv_wait_sim_share",
    "port.send_host_us_per_msg",
    "port.recv_host_us_per_msg",
    "port.sim_op_ms_p50",
    "port.sim_op_ms_tail",
    "port.sim_op_tail_pct",
    "port.sim_op_samples",
    "node.join_sim_ms",
    "node.join_host_us",
    "establish.clientserver_sim_ms",
    "establish.splicing_sim_ms",
    "establish.proxy_sim_ms",
    "establish.routed_sim_ms",
    "establish.n_clientserver",
    "establish.n_splicing",
    "establish.n_proxy",
    "establish.n_routed",
    "establish.fallbacks",
    // The instrument itself.
    "trace.overhead_share",
    "runner.wall_over_cpu",
    "runner.rep_spread",
    "runner.reps",
    "runner.pinned",
    "runner.layer_passes",
    "runner.machine_slowdown",
    "runner.layers_slowdown",
    "runner.rep_setup_ms",
];

/// Repetitions per workload: at least this many however long they take,
/// at most this many however short.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 32;
/// Passes of the `layers` pass in a traced run: five where the time
/// allows, never fewer than three.
const MIN_LAYER_PASSES: usize = 3;
const MAX_LAYER_PASSES: usize = 5;
/// Share of a traced run's window given to the untraced repetitions that
/// `trace.overhead_share` and `runner.rep_spread` are measured against.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.4;

pub struct Config {
    pub spec: Spec,
    pub seed: u64,
    /// How long one workload measures.
    pub seconds: f64,
    pub out_dir: PathBuf,
    /// This binary, started again for every repetition.
    pub exe: PathBuf,
    /// CPU every repetition is pinned to; `None` if pinning is refused.
    pub cpu: Option<usize>,
}

/// One metric over the repetitions of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The figure reported: the median of the repetitions, calibrated if
    /// it is a host time.
    pub value: f64,
    /// Quartiles of the repetitions as measured (`median` is `value`
    /// before calibration).
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(name: &str, values: &[f64], slowdown: f64) -> Summary {
        let [q1, median, q3] = stats::quartiles(values);
        Summary {
            value: calibrated(name, median, slowdown),
            q1,
            median,
            q3,
            n: values.len(),
        }
    }

    /// Inter-quartile distance of the repetitions as a share of their
    /// median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Everything one run of one workload produced.
pub struct Report {
    pub workload: String,
    /// Untraced repetitions, as their processes printed them.
    pub reps: Vec<Value>,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// How much slower than nominal the probes ran around the repetitions
    /// (median); host times are divided by it.
    pub slowdown: f64,
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The isolated layer benchmarks: medians over their passes, host times
/// calibrated by the probes run between the passes.
pub struct LayerPass {
    pub values: BTreeMap<&'static str, f64>,
    pub passes: usize,
    pub slowdown: f64,
}

/// What the untraced part of a run produced.
pub struct Measured {
    /// The repetitions, as their processes printed them.
    pub reps: Vec<Value>,
    /// Every probe pass: one before the first repetition, one after each.
    pub probes: Vec<[f64; 3]>,
    /// Per repetition: CPU nanoseconds the operating system charged to the
    /// repetition's process (exec to the end of its exit) and to the probe
    /// pass after it, minus the repetition's timed phases — `setup_s`
    /// before calibration.
    pub outside_ns: Vec<f64>,
}

/// Median slowdown over a run's probes.
fn median_slowdown(probes: &[[f64; 3]]) -> f64 {
    let each: Vec<f64> = probes.iter().map(|p| probe::slowdown(*p)).collect();
    stats::median(&each)
}

impl Config {
    /// Start this binary again and parse the JSON line it prints last.
    fn child(&self, args: &[String]) -> Result<Value, String> {
        let out = Command::new(&self.exe)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", self.exe.display()))?;
        if !out.status.success() {
            return Err(format!(
                "`gridbench {}` ended with {}",
                args.join(" "),
                out.status
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or("");
        Value::parse(last)
            .map_err(|e| format!("`gridbench {}` printed no result: {e}", args.join(" ")))
    }

    fn child_args(&self, mode: &str, what: (&str, &str)) -> Vec<String> {
        let mut args = vec![
            mode.to_string(),
            what.0.to_string(),
            what.1.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if let Some(cpu) = self.cpu {
            args.extend(["--cpu".to_string(), cpu.to_string()]);
        }
        args
    }

    fn rep(&self, workload: &str, traced: bool) -> Result<Value, String> {
        let mut args = self.child_args("rep", ("--workload", workload));
        args.extend(["--out".to_string(), self.out_dir.display().to_string()]);
        if traced {
            args.push("--traced".to_string());
        }
        self.child(&args)
    }

    /// One pass of the machine-speed probes, in a fresh pinned process.
    fn probe(&self) -> Result<[f64; 3], String> {
        let mut args = vec!["probe".to_string()];
        if let Some(cpu) = self.cpu {
            args.extend(["--cpu".to_string(), cpu.to_string()]);
        }
        let out = self.child(&args)?;
        Ok([
            out.need_num("alu_ns")?,
            out.need_num("copy_ns")?,
            out.need_num("handoff_ns")?,
        ])
    }

    /// Fresh repetitions until the next one would overrun `deadline`, a
    /// probe before the first and after each.
    fn reps_until(&self, workload: &str, deadline: Instant) -> Result<Measured, String> {
        let mut m = Measured {
            reps: Vec::new(),
            probes: vec![self.probe()?],
            outside_ns: Vec::new(),
        };
        let mut longest = Duration::ZERO;
        while m.reps.len() < MAX_REPS {
            let t0 = Instant::now();
            let cpu0 = sys::children_cpu_ns();
            let rep = self.rep(workload, false)?;
            m.probes.push(self.probe()?);
            let charged = (sys::children_cpu_ns() - cpu0) as f64;
            m.outside_ns.push(charged - timed_cpu_ns(&rep)?);
            m.reps.push(rep);
            longest = longest.max(t0.elapsed());
            if m.reps.len() >= MIN_REPS && Instant::now() + longest > deadline {
                break;
            }
        }
        Ok(m)
    }

    /// The `layers` pass, each group in a process of its own, repeated
    /// until the next pass would overrun `deadline`.
    pub fn layer_passes(&self, deadline: Instant) -> Result<LayerPass, String> {
        let mut seen: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut probes = vec![self.probe()?];
        let mut passes = 0;
        let mut longest = Duration::ZERO;
        while passes < MAX_LAYER_PASSES {
            let t0 = Instant::now();
            for group in layers::GROUPS {
                let out = self.child(&self.child_args("layer", ("--group", group)))?;
                for (name, v) in out.fields() {
                    let name = PER_LAYER
                        .iter()
                        .find(|n| *n == name)
                        .ok_or_else(|| format!("layer group {group} reported unknown `{name}`"))?;
                    let v = v.num().ok_or_else(|| format!("`{name}` is not a number"))?;
                    seen.entry(name).or_default().push(v);
                }
            }
            probes.push(self.probe()?);
            passes += 1;
            longest = longest.max(t0.elapsed());
            if passes >= MIN_LAYER_PASSES && Instant::now() + longest > deadline {
                break;
            }
        }
        let slowdown = median_slowdown(&probes);
        let host_time = |name: &str| is_host_time_unit(&self.spec.def(name).unit);
        Ok(LayerPass {
            values: seen
                .into_iter()
                .map(|(k, v)| {
                    let median = stats::median(&v);
                    (
                        k,
                        if host_time(k) {
                            median / slowdown
                        } else {
                            median
                        },
                    )
                })
                .collect(),
            passes,
            slowdown,
        })
    }

    /// Measure one workload for `self.seconds`. With `trace`, part of the
    /// window goes to one traced repetition and — unless the caller has
    /// them already — the `layers` pass.
    pub fn measure(
        &self,
        workload: &str,
        trace: bool,
        layers: Option<&LayerPass>,
    ) -> Result<Report, String> {
        let start = Instant::now();
        let window = Duration::from_secs_f64(self.seconds);
        if !trace {
            return Report::new(workload, self.reps_until(workload, start + window)?);
        }
        let own_layers = layers.is_none();
        let untraced_share = if own_layers {
            TRACED_RUN_UNTRACED_SHARE
        } else {
            1.0
        };
        let untraced = self.reps_until(workload, start + window.mul_f64(untraced_share))?;
        let traced = self.rep(workload, true)?;
        let measured;
        let layers = match layers {
            Some(l) => l,
            None => {
                measured = self.layer_passes(start + window)?;
                &measured
            }
        };
        let mut report = Report::new(workload, untraced)?;
        report.add_traced(&traced, layers, self.cpu.is_some())?;
        Ok(report)
    }
}

fn phases(rep: &Value) -> Result<(&[Value], &Value, &Value), String> {
    let all = rep.get("phases").ok_or("missing `phases`")?.arr();
    let at = |key: &str| -> Result<&Value, String> {
        all.get(rep.need_num(key)? as usize)
            .ok_or_else(|| format!("`{key}` names no phase"))
    };
    Ok((all, at("op_phase")?, at("byte_phase")?))
}

/// The end-to-end metrics of one repetition, in `END_TO_END` order.
fn end_to_end_of(rep: &Value, outside_ns: f64) -> Result<[f64; 6], String> {
    let (_, op, bytes) = phases(rep)?;
    Ok([
        outside_ns / 1e9,
        bytes.need_num("bytes")? * 1e3 / bytes.need_num("cpu_ns")?,
        bytes.need_num("bytes")? * 1e3 / bytes.need_num("sim_ns")?,
        op.need_num("cpu_ns")? / 1e3 / op.need_num("ops")?,
        op.need_num("ops")? * 1e9 / op.need_num("sim_ns")?,
        rep.need_num("vm_hwm_kb")? * 1024.0 / 1e6,
    ])
}

/// CPU nanoseconds of all timed phases of one repetition.
fn timed_cpu_ns(rep: &Value) -> Result<f64, String> {
    phases(rep)?.0.iter().map(|p| p.need_num("cpu_ns")).sum()
}

impl Report {
    fn new(workload: &str, measured: Measured) -> Result<Report, String> {
        let Measured {
            reps,
            probes,
            outside_ns,
        } = measured;
        let mut problems = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for (i, rep) in reps.iter().enumerate() {
            for p in phases(rep)?.0 {
                let (ops, bad) = (p.need_num("ops")? as u64, p.need_num("failed_ops")? as u64);
                attempted += ops;
                failed += bad;
                if bad > 0 {
                    problems.push(format!(
                        "rep {i}, phase {}: {bad} of {ops} operations failed",
                        p.need_str("name")?
                    ));
                }
            }
            let fallbacks = rep.need_num("fallbacks")?;
            if fallbacks > 0.0 {
                problems.push(format!(
                    "rep {i}: {fallbacks} connects established by another method than the deployment's matrix records"
                ));
            }
        }
        let prints: Vec<&str> = reps
            .iter()
            .map(|r| r.need_str("sim_fingerprint"))
            .collect::<Result<_, _>>()?;
        if prints.iter().any(|p| *p != prints[0]) {
            problems.push(format!(
                "the simulated clock differs between repetitions of one seed: {prints:?}"
            ));
        }

        let slowdown = median_slowdown(&probes);
        let per_rep: Vec<[f64; 6]> = reps
            .iter()
            .zip(&outside_ns)
            .map(|(rep, outside)| end_to_end_of(rep, *outside))
            .collect::<Result<_, _>>()?;
        let mut end_to_end = Vec::new();
        for (k, name) in END_TO_END.into_iter().enumerate() {
            let values: Vec<f64> = per_rep.iter().map(|r| r[k]).collect();
            if let Some(v) = values.iter().find(|v| !v.is_finite() || **v <= 0.0) {
                return Err(format!("{name}@{workload} measured as {v}"));
            }
            end_to_end.push((name, Summary::of(name, &values, slowdown)));
        }
        Ok(Report {
            workload: workload.to_string(),
            reps,
            problems,
            attempted,
            failed,
            slowdown,
            end_to_end,
            per_layer: Vec::new(),
        })
    }

    /// Fill in the per-layer metrics from the traced repetition, the
    /// untraced ones already here, and the `layers` pass.
    fn add_traced(
        &mut self,
        traced: &Value,
        layers: &LayerPass,
        pinned: bool,
    ) -> Result<(), String> {
        if traced.need_str("sim_fingerprint")? != self.reps[0].need_str("sim_fingerprint")? {
            self.problems
                .push("tracing changed what the simulated clock shows".to_string());
        }
        let (all, op, bytes) = phases(traced)?;
        let counts = |p: &Value, key: &str| -> Result<f64, String> {
            p.get("traced")
                .ok_or("traced repetition carries no counts")?
                .need_num(key)
        };
        let sum = |key: &str| -> Result<f64, String> { all.iter().map(|p| counts(p, key)).sum() };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let spans = traced
            .get("spans")
            .ok_or("traced repetition carries no spans")?;
        let methods = traced.get("methods").ok_or("missing `methods`")?;

        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for name in PER_LAYER {
            if let Some(v) = layers.values.get(name) {
                out.push((name, *v));
            }
        }
        let layer = |name: &str| -> Result<f64, String> {
            layers
                .values
                .get(name)
                .copied()
                .ok_or_else(|| format!("the layers pass did not report `{name}`"))
        };
        out.push((
            "ladder.stack_over_tcp_ns_per_byte",
            layer("stack.plain_ns_per_byte")? - layer("simtcp.stream_ns_per_byte")?,
        ));
        out.push((
            "ladder.relay_over_direct_ns_per_byte",
            layer("relay.routed_ns_per_byte")? - layer("stack.plain_ns_per_byte")?,
        ));
        // Host time the compression and encryption kernels account for,
        // from their isolated cost per byte: compression sees application
        // bytes, encryption the compressed ones.
        let app_bytes = bytes.need_num("bytes")?;
        let mut kernel_ns = 0.0;
        let mut wire_bytes = app_bytes;
        if traced.get("compressed").and_then(Value::bool) == Some(true) {
            kernel_ns += app_bytes
                * (layer("gridzip.compress_ns_per_byte")?
                    + layer("gridzip.decompress_ns_per_byte")?);
            wire_bytes /= layer("gridzip.ratio")?;
        }
        if traced.get("secure").and_then(Value::bool) == Some(true) {
            kernel_ns += wire_bytes
                * (layer("gridcrypt.seal_ns_per_byte")? + layer("gridcrypt.open_ns_per_byte")?);
        }
        let untraced_cpu: Vec<f64> = self
            .reps
            .iter()
            .map(timed_cpu_ns)
            .collect::<Result<_, _>>()?;
        let byte_cpu: Vec<f64> = self
            .reps
            .iter()
            .map(|r| phases(r)?.2.need_num("cpu_ns"))
            .collect::<Result<_, _>>()?;
        // Both sides calibrated: the kernels by the probes around the layers
        // pass, the byte phase by those around this run.
        out.push((
            "ladder.kernel_share",
            kernel_ns / (stats::median(&byte_cpu) / self.slowdown),
        ));

        let mib = app_bytes / (1 << 20) as f64;
        let sim_s = bytes.need_num("sim_ns")? / 1e9;
        let events = counts(bytes, "pkt_sent")?
            + counts(bytes, "pkt_forwarded")?
            + counts(bytes, "pkt_delivered")?;
        out.push(("simnet.pkt_events_per_mib", events / mib));
        for (name, key) in [
            ("simnet.drop_loss", "drop_loss"),
            ("simnet.drop_queue", "drop_queue"),
            ("simnet.drop_firewall", "drop_firewall"),
            ("simnet.drop_nat", "drop_nat"),
        ] {
            out.push((name, sum(key)?));
        }
        let link_bytes = counts(bytes, "busiest_link_bytes")?;
        out.push((
            "simnet.bottleneck_util",
            ratio(link_bytes, counts(bytes, "busiest_link_bps")? * sim_s),
        ));
        out.push((
            "simnet.threads_at_exit",
            traced.need_num("threads_at_exit")?,
        ));
        let segs = counts(bytes, "data_segs")?;
        out.push((
            "simtcp.data_seg_payload_avg",
            ratio(counts(bytes, "data_seg_bytes")?, segs),
        ));
        out.push((
            "simtcp.acks_per_data_seg",
            ratio(counts(bytes, "pure_acks")?, segs),
        ));
        out.push(("simtcp.wire_bytes_per_app_byte", link_bytes / app_bytes));
        let ops = op.need_num("ops")?;
        out.push(("alloc.count_per_op", counts(op, "allocs")? / ops));
        out.push(("alloc.bytes_per_op", counts(op, "alloc_bytes")? / ops));

        for (name, key) in [
            ("port.send_blocked_sim_share", "send_blocked_sim_share"),
            ("port.recv_wait_sim_share", "recv_wait_sim_share"),
            ("port.send_host_us_per_msg", "send_host_us_per_msg"),
            ("port.recv_host_us_per_msg", "recv_host_us_per_msg"),
        ] {
            out.push((name, spans.need_num(key)?));
        }
        out.push(("port.sim_op_ms_p50", op.need_num("lat_p50_ns")? / 1e6));
        out.push(("port.sim_op_ms_tail", op.need_num("lat_tail_ns")? / 1e6));
        out.push(("port.sim_op_tail_pct", op.need_num("lat_tail_pct")?));
        out.push(("port.sim_op_samples", op.need_num("lat_samples")?));
        out.push(("node.join_sim_ms", spans.need_num("join_sim_ms")?));
        out.push(("node.join_host_us", spans.need_num("join_host_us")?));
        for (name, key) in [
            ("establish.clientserver_sim_ms", "clientserver_sim_ms"),
            ("establish.splicing_sim_ms", "splicing_sim_ms"),
            ("establish.proxy_sim_ms", "proxy_sim_ms"),
            ("establish.routed_sim_ms", "routed_sim_ms"),
        ] {
            out.push((name, spans.need_num(key)?));
        }
        for (name, (_, key, _)) in [
            "establish.n_clientserver",
            "establish.n_splicing",
            "establish.n_proxy",
            "establish.n_routed",
        ]
        .into_iter()
        .zip(METHODS)
        {
            out.push((name, methods.need_num(key)?));
        }
        out.push(("establish.fallbacks", traced.need_num("fallbacks")?));

        let base = stats::median(&untraced_cpu);
        out.push((
            "trace.overhead_share",
            (timed_cpu_ns(traced)? - base) / base,
        ));
        let wall_over_cpu: Vec<f64> = self
            .reps
            .iter()
            .map(|r| {
                let wall: f64 = phases(r)?
                    .0
                    .iter()
                    .map(|p| p.need_num("wall_ns"))
                    .sum::<Result<_, _>>()?;
                Ok(wall / timed_cpu_ns(r)?)
            })
            .collect::<Result<_, String>>()?;
        out.push(("runner.wall_over_cpu", stats::median(&wall_over_cpu)));
        out.push(("runner.rep_spread", stats::spread(&untraced_cpu)));
        out.push(("runner.reps", self.reps.len() as f64));
        out.push(("runner.pinned", f64::from(u8::from(pinned))));
        out.push(("runner.layer_passes", layers.passes as f64));
        out.push(("runner.machine_slowdown", self.slowdown));
        out.push(("runner.layers_slowdown", layers.slowdown));
        let own_setup: Vec<f64> = self
            .reps
            .iter()
            .map(|r| r.need_num("setup_cpu_ns"))
            .collect::<Result<_, _>>()?;
        out.push((
            "runner.rep_setup_ms",
            stats::median(&own_setup) / 1e6 / self.slowdown,
        ));

        let mut listed = PER_LAYER.to_vec();
        let mut got: Vec<&str> = out.iter().map(|(n, _)| *n).collect();
        listed.sort_unstable();
        got.sort_unstable();
        if listed != got {
            return Err(format!(
                "per-layer metrics assembled ({got:?}) are not the list in runner.rs"
            ));
        }
        if let Some((n, v)) = out.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("{n}@{} measured as {v}", self.workload));
        }
        self.per_layer = out;
        Ok(())
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn driver_line(&self, spec: &Spec, trace: bool) -> Value {
        let mut metrics = Value::obj();
        let mut add = |name: &str, value: f64| {
            metrics.set(
                name,
                Value::obj()
                    .with("value", value)
                    .with("unit", spec.def(name).unit.as_str()),
            );
        };
        if trace {
            self.per_layer.iter().for_each(|(name, v)| add(name, *v));
        } else {
            self.end_to_end
                .iter()
                .for_each(|(name, s)| add(name, s.value));
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// Everything, for `latest.json` and `--compare`.
    pub fn to_json(&self, spec: &Spec) -> Value {
        let mut e2e = Value::obj();
        for (name, s) in &self.end_to_end {
            let def = spec.def(name);
            e2e.set(
                name,
                Value::obj()
                    .with("value", s.value)
                    .with("unit", def.unit.as_str())
                    .with("clock", if on_sim_clock(name) { "sim" } else { "host" })
                    .with(
                        "better",
                        if def.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        },
                    )
                    .with("bound", def.bound.unwrap_or(0.0))
                    .with("q1", s.q1)
                    .with("uncalibrated", s.median)
                    .with("q3", s.q3)
                    .with("spread", s.spread())
                    .with("n", s.n),
            );
        }
        let mut layers = Value::obj();
        for (name, v) in &self.per_layer {
            let unit = spec.def(name).unit.as_str();
            layers.set(name, Value::obj().with("value", *v).with("unit", unit));
        }
        let first = &self.reps[0];
        let phases: Vec<Value> = first
            .get("phases")
            .map(|p| p.arr().to_vec())
            .unwrap_or_default()
            .into_iter()
            .map(|p| {
                let mut v = Value::obj();
                for key in [
                    "name",
                    "ops",
                    "failed_ops",
                    "bytes",
                    "sim_ns",
                    "lat_samples",
                    "lat_p50_ns",
                    "lat_tail_ns",
                    "lat_tail_pct",
                    "lat_tail_beyond",
                ] {
                    if let Some(x) = p.get(key) {
                        v.set(key, x.clone());
                    }
                }
                v
            })
            .collect();
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Value::from(p.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("reps", self.reps.len())
            .with("machine_slowdown", self.slowdown)
            .with(
                "methods",
                first.get("methods").cloned().unwrap_or(Value::Null),
            )
            .with("phases", phases)
            .with("end_to_end", e2e)
            .with("per_layer", layers)
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self, spec: &Spec, cfg: &Config, traced: bool) {
        let first = &self.reps[0];
        println!(
            "== {}  seed={} reps={} pinned_cpu={} nproc={} tracing={} machine_slowdown={:.3}",
            self.workload,
            cfg.seed,
            self.reps.len(),
            cfg.cpu.map_or("none".to_string(), |c| c.to_string()),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            if traced { "separate repetition" } else { "off" },
            self.slowdown,
        );
        if cfg.cpu.is_none() {
            println!("   pinning refused: host-clock metrics are UNPINNED and noisier");
        }
        for p in first.get("phases").map(Value::arr).unwrap_or_default() {
            let num = |k: &str| p.get(k).and_then(Value::num).unwrap_or(0.0);
            print!(
                "   phase {:<9} ops={} failed_ops={} bytes={} sim_s={:.3}",
                p.get("name").and_then(Value::str).unwrap_or("?"),
                num("ops"),
                num("failed_ops"),
                num("bytes"),
                num("sim_ns") / 1e9,
            );
            if p.get("lat_p50_ns").is_some() {
                print!(
                    "  sim latency p50={:.3} ms p{}={:.3} ms ({} samples, {} beyond)",
                    num("lat_p50_ns") / 1e6,
                    num("lat_tail_pct"),
                    num("lat_tail_ns") / 1e6,
                    num("lat_samples"),
                    num("lat_tail_beyond"),
                );
            }
            println!();
        }
        for (name, s) in &self.end_to_end {
            let def = spec.def(name);
            let clock = if on_sim_clock(name) { "sim " } else { "host" };
            let unpinned = if cfg.cpu.is_none() && !on_sim_clock(name) {
                " unpinned"
            } else {
                ""
            };
            let how = if on_sim_clock(name) {
                "identical in all reps".to_string()
            } else {
                format!(
                    "median of {} reps, as measured {:.6} (quartiles {:.6} .. {:.6}, spread {:.2}%)",
                    s.n,
                    s.median,
                    s.q1,
                    s.q3,
                    s.spread() * 100.0,
                )
            };
            println!(
                "   {:<38} {:>14.6} {:<9} {clock} bound {:.0}%  {how}{unpinned}",
                name,
                s.value,
                def.unit,
                def.bound.unwrap_or(0.0) * 100.0,
            );
        }
        for (name, v) in &self.per_layer {
            println!("   {name:<38} {v:>14.6} {}", spec.def(name).unit);
        }
        if self.correct() {
            println!(
                "   outputs correct: {} operations, 0 failed; every payload checksummed, exactly-once, FIFO per channel; sim clock identical in all repetitions",
                self.attempted,
            );
        } else {
            for p in &self.problems {
                println!("   INCORRECT: {p}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_the_median_with_python_quartiles() {
        let reps = [10.0, 12.0, 11.0, 13.0, 9.0];
        let s = Summary::of("peak_rss_mb", &reps, 1.25);
        assert_eq!((s.value, s.median, s.n), (11.0, 11.0, 5));
        assert_eq!((s.q1, s.q3), (9.5, 12.5));
        assert!((s.spread() - 3.0 / 11.0).abs() < 1e-12);
        let one = Summary::of("peak_rss_mb", &[4.0], 1.0);
        assert_eq!(
            (one.q1, one.value, one.q3, one.spread()),
            (4.0, 4.0, 4.0, 0.0)
        );
    }

    /// On a machine running 25 % slower than nominal, times read 25 %
    /// high and throughputs 20 % low; calibration undoes exactly that and
    /// leaves everything else alone.
    #[test]
    fn host_times_are_calibrated_and_nothing_else_is() {
        let reps = [10.0, 12.0, 11.0, 13.0, 9.0];
        assert_eq!(Summary::of("host_us_per_op", &reps, 1.25).value, 8.8);
        assert_eq!(Summary::of("setup_s", &reps, 1.25).value, 8.8);
        assert_eq!(Summary::of("host_mbps", &reps, 1.25).value, 13.75);
        assert_eq!(Summary::of("host_mbps", &reps, 1.25).median, 11.0);
        for name in ["sim_goodput_mbps", "sim_ops_per_s", "peak_rss_mb"] {
            assert_eq!(Summary::of(name, &reps, 1.25).value, 11.0);
        }
        let nominal = probe::NOMINAL_NS;
        let slow = nominal.map(|ns| ns * 1.5);
        assert_eq!(median_slowdown(&[nominal, slow, slow]), 1.5);
        assert!(is_host_time_unit("ns/B") && !is_host_time_unit("MB/sim-s"));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names = PER_LAYER.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    fn rep_json(cpu_ns: f64, fingerprint: &str, failed: f64) -> Value {
        let phase = Value::obj()
            .with("name", "bulk")
            .with("ops", 100.0)
            .with("failed_ops", failed)
            .with("bytes", 1e8)
            .with("cpu_ns", cpu_ns)
            .with("wall_ns", cpu_ns * 1.1)
            .with("sim_ns", 4e9);
        Value::obj()
            .with("op_phase", 0.0)
            .with("byte_phase", 0.0)
            .with("phases", vec![phase])
            .with("fallbacks", 0.0)
            .with("sim_fingerprint", fingerprint)
            .with("setup_cpu_ns", 5e6)
            .with("vm_hwm_kb", 20_000.0)
    }

    /// A run at nominal machine speed, 0.1 s outside the timed phases of
    /// every repetition.
    fn measured(reps: Vec<Value>) -> Measured {
        Measured {
            outside_ns: vec![1e8; reps.len()],
            probes: vec![probe::NOMINAL_NS; reps.len() + 1],
            reps,
        }
    }

    fn spec() -> Spec {
        let metric = |n: &str| {
            let better = if n.ends_with("mbps") || n.ends_with("per_s") {
                "higher"
            } else {
                "lower"
            };
            format!(r#"{{"name":"{n}","unit":"u","better":"{better}","bound":0.1}}"#)
        };
        Spec::parse(&format!(
            r#"{{"run_seconds":5,"workloads":[],"end_to_end":[{}],"per_layer":[]}}"#,
            END_TO_END.map(metric).join(",")
        ))
        .unwrap()
    }

    #[test]
    fn report_computes_metrics_and_counts_operations() {
        let reps = vec![
            rep_json(1e9, "aa", 0.0),
            rep_json(2e9, "aa", 0.0),
            rep_json(4e9, "aa", 0.0),
        ];
        let r = Report::new("w", measured(reps)).unwrap();
        assert!(r.correct());
        assert_eq!((r.attempted, r.failed), (300, 0));
        let get = |n: &str| {
            r.end_to_end
                .iter()
                .find(|(k, _)| *k == n)
                .unwrap()
                .1
                .clone()
        };
        assert_eq!(get("host_mbps").value, 50.0); // 1e8 B in 2 s of CPU
        assert_eq!(get("sim_goodput_mbps").value, 25.0);
        assert_eq!(get("sim_goodput_mbps").spread(), 0.0);
        assert_eq!(get("host_us_per_op").value, 2e4);
        assert_eq!(get("sim_ops_per_s").value, 25.0);
        assert_eq!(get("setup_s").value, 0.1);
        assert_eq!(get("peak_rss_mb").value, 20.48);
        let line = r.driver_line(&spec(), false);
        assert_eq!(line.fields().len(), 4);
        assert_eq!(
            line.get("metrics").unwrap().fields().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn report_flags_failed_operations_and_a_wandering_sim_clock() {
        let r = Report::new(
            "w",
            measured(vec![rep_json(1e9, "aa", 2.0), rep_json(1e9, "aa", 0.0)]),
        )
        .unwrap();
        assert!(!r.correct());
        assert_eq!(r.failed, 2);
        let r = Report::new(
            "w",
            measured(vec![rep_json(1e9, "aa", 0.0), rep_json(1e9, "ab", 0.0)]),
        )
        .unwrap();
        assert!(r.problems[0].contains("simulated clock"));
        // A metric that reads zero is refused, not reported.
        let mut zero = measured(vec![rep_json(1e9, "aa", 0.0)]);
        zero.outside_ns = vec![0.0];
        assert!(Report::new("w", zero).is_err());
    }
}
