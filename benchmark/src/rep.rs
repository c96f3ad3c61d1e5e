//! One repetition, in a fresh process: pin, run the workload once, print
//! what it measured as one JSON line for the runner.
//!
//! A fresh process per repetition because a finished `Sim` leaves its
//! daemon threads and its world behind (a dozen threads and ~100 MB per
//! repetition of an RPC-heavy run), so by the third to fifth in-process
//! repetition the same run costs two to four times the first.

use std::path::Path;

use netgrid::EstablishMethod;

use crate::check::checksum;
use crate::json::Value;
use crate::stats;
use crate::sys;
use crate::trace::{self, Span};
use crate::workloads::{self, Phase, Rep, METHODS};

/// Room for every span of the busiest workload (`small_msgs`: four per
/// round trip, two per streamed message).
const SPAN_CAPACITY: usize = 256 * 1024;

/// Run one repetition and print its result. `cpu` = the CPU to pin to.
pub fn run(workload: &str, seed: u64, cpu: Option<usize>, traced: bool, out_dir: &Path) -> i32 {
    // Before any thread exists, and before the simulator calibrates its
    // handoff (it reads the CPU count once).
    let pinned = cpu.is_some_and(sys::pin_to_cpu);
    if traced {
        trace::enable(SPAN_CAPACITY);
        trace::arm_alloc_counter();
    }
    let Some(rep) = workloads::run(workload, seed) else {
        eprintln!("unknown workload `{workload}`");
        return 2;
    };
    // The workload's `Sim` is dropped by now.
    let threads_at_exit = sys::proc_status("Threads").unwrap_or(0);
    let total_cpu_ns = sys::process_cpu_ns();
    let timed_cpu_ns: u64 = rep.phases.iter().map(|p| p.cpu_ns).sum();

    let mut out = Value::obj()
        .with("workload", workload)
        .with("seed", seed)
        .with("pinned", pinned)
        .with("traced", traced)
        .with("op_phase", rep.op_phase)
        .with("byte_phase", rep.byte_phase)
        .with(
            "phases",
            rep.phases.iter().map(phase_json).collect::<Vec<_>>(),
        )
        .with("methods", methods_json(&rep.methods))
        .with("fallbacks", rep.fallbacks)
        .with("compressed", rep.compressed)
        .with("secure", rep.secure)
        .with("sim_fingerprint", format!("{:016x}", fingerprint(&rep)))
        .with("setup_cpu_ns", total_cpu_ns - timed_cpu_ns)
        .with("vm_hwm_kb", sys::proc_status("VmHWM").unwrap_or(0))
        .with("threads_at_exit", threads_at_exit);
    if traced {
        let spans = trace::take_spans();
        out.set("spans", span_metrics(&rep, &spans));
        let file = out_dir.join(format!("trace-{workload}.json"));
        let doc = Value::obj()
            .with("workload", workload)
            .with("seed", seed)
            .with("phases", out.get("phases").expect("just set").clone())
            .with("spans", trace::spans_json(&spans));
        if let Err(e) =
            std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&file, doc.encode()))
        {
            eprintln!("cannot write {}: {e}", file.display());
            return 1;
        }
        out.set("trace_file", file.display().to_string());
    }
    println!("{}", out.encode());
    0
}

fn phase_json(p: &Phase) -> Value {
    let mut v = Value::obj()
        .with("name", p.name)
        .with("ops", p.ops)
        .with("failed_ops", p.failed_ops)
        .with("bytes", p.bytes)
        .with("cpu_ns", p.cpu_ns)
        .with("wall_ns", p.wall_ns)
        .with("sim_ns", p.sim_ns)
        .with("lat_samples", p.lat_ns.len())
        .with("senders", p.senders as u64)
        .with("receivers", p.receivers as u64);
    if !p.lat_ns.is_empty() {
        let tail = stats::tail(&p.lat_ns);
        v.set("lat_p50_ns", stats::percentile(&p.lat_ns, 50.0).value);
        v.set("lat_tail_ns", tail.value);
        v.set("lat_tail_pct", tail.pct);
        v.set("lat_tail_beyond", tail.beyond);
    }
    if let Some(c) = &p.traced {
        let k = &c.packets;
        v.set(
            "traced",
            Value::obj()
                .with("pkt_sent", k.sent)
                .with("pkt_forwarded", k.forwarded)
                .with("pkt_delivered", k.delivered)
                .with("drop_loss", k.drop_loss)
                .with("drop_queue", k.drop_queue)
                .with("drop_firewall", k.drop_firewall)
                .with("drop_nat", k.drop_nat)
                .with("drop_other", k.drop_other)
                .with("data_segs", k.data_segs)
                .with("data_seg_bytes", k.data_seg_bytes)
                .with("pure_acks", k.pure_acks)
                .with("busiest_link_bytes", c.busiest_link_bytes)
                .with("busiest_link_bps", c.busiest_link_bps)
                .with("allocs", c.allocs)
                .with("alloc_bytes", c.alloc_bytes),
        );
    }
    v
}

fn methods_json(methods: &[EstablishMethod]) -> Value {
    let mut v = Value::obj();
    for (m, key, _) in METHODS {
        v.set(key, methods.iter().filter(|x| **x == m).count());
    }
    v
}

/// Everything the simulated clock produced, folded into one word: two
/// repetitions of one seed must agree on it bit for bit.
fn fingerprint(rep: &Rep) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for p in &rep.phases {
        words.extend([p.ops, p.failed_ops, p.bytes, p.sim_ns]);
        words.extend(&p.lat_ns);
    }
    words.extend(rep.methods.iter().map(|&m| m as u64));
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    checksum(&bytes)
}

/// The per-layer numbers that come from spans.
fn span_metrics(rep: &Rep, spans: &[Span]) -> Value {
    // Phase of a span = name of its root ancestor.
    let root_name = |s: &Span| {
        let mut s = s;
        while s.parent != 0 {
            s = &spans[s.parent as usize - 1];
        }
        s.name
    };
    let in_timed_phase = |s: &Span| rep.phases.iter().any(|p| p.name == root_name(s));
    let named = |name: &'static str, keep: &dyn Fn(&Span) -> bool| -> Vec<&Span> {
        spans.iter().filter(|s| s.name == name && keep(s)).collect()
    };
    let mean = |spans: &[&Span], of: fn(&Span) -> u64| {
        if spans.is_empty() {
            0.0
        } else {
            spans.iter().map(|s| of(s)).sum::<u64>() as f64 / spans.len() as f64
        }
    };

    let bytes = &rep.phases[rep.byte_phase];
    let share = |name: &'static str, tasks: u32| {
        let inside: u64 = named(name, &|s| root_name(s) == bytes.name)
            .iter()
            .map(|s| s.sim_ns())
            .sum();
        let whole = bytes.sim_ns as f64 * tasks.max(1) as f64;
        if whole == 0.0 {
            0.0
        } else {
            inside as f64 / whole
        }
    };
    let sends = named("send", &in_timed_phase);
    let receives = named("receive", &in_timed_phase);
    let joins = named("join", &|_| true);
    let mut v = Value::obj()
        .with("send_blocked_sim_share", share("send", bytes.senders))
        .with("recv_wait_sim_share", share("receive", bytes.receivers))
        .with("send_host_us_per_msg", mean(&sends, Span::host_ns) / 1e3)
        .with("recv_host_us_per_msg", mean(&receives, Span::host_ns) / 1e3)
        .with("send_spans", sends.len())
        .with("recv_spans", receives.len())
        .with("join_sim_ms", mean(&joins, Span::sim_ns) / 1e6)
        .with("join_host_us", mean(&joins, Span::host_ns) / 1e3)
        .with("join_spans", joins.len());
    for (_, key, span) in METHODS {
        let mut sim: Vec<u64> = named(span, &|_| true).iter().map(|s| s.sim_ns()).collect();
        sim.sort_unstable();
        let median = if sim.is_empty() {
            0.0
        } else {
            stats::percentile(&sim, 50.0).value as f64 / 1e6
        };
        v.set(&format!("{key}_sim_ms"), median);
    }
    v
}
