//! `bulk_plain`, `bulk_bigwin`, `wan_integrated`: one sender streams
//! messages to one receiver through a send port and a receive port.

use std::sync::Arc;

use netgrid::{CpuRates, GridNode, ReceivePort, SendPort, StackSpec};

use super::{one_way, traced_connect, Harness, Rep, Slot};
use crate::check::{Content, Payloads};
use crate::trace;
use crate::worlds::{self, SiteKind, Wan};

pub struct BulkCfg {
    pub wan: Wan,
    pub kind: SiteKind,
    /// Socket send and receive buffer, bytes.
    pub window: u32,
    pub rates: CpuRates,
    pub spec: StackSpec,
    pub msgs: u32,
    /// Bytes per message.
    pub msg_size: usize,
    pub content: Content,
}

/// Clean fast path at full-MSS segments: simnet + simtcp + port/session
/// do all the host work, filters, striping and relay none.
pub fn plain() -> BulkCfg {
    BulkCfg {
        wan: worlds::CLEAN_FAST,
        kind: SiteKind::Open,
        window: 64 * 1024,
        rates: CpuRates::unlimited(),
        spec: StackSpec::plain(),
        msgs: 2048,
        msg_size: 256 * 1024,
        content: Content::Random,
    }
}

/// The same layers in the 1 MiB-window regime of `e2e/tcp_block_plain`,
/// where simtcp emits small segments.
pub fn bigwin() -> BulkCfg {
    BulkCfg {
        window: 1 << 20,
        msgs: 384,
        ..plain()
    }
}

/// The paper's integrated stack on the Fig. 10 path: four streams,
/// level-1 compression and GTLS, 2004 CPU rates, compressible payload.
pub fn wan_integrated() -> BulkCfg {
    BulkCfg {
        wan: worlds::DELFT_SOPHIA,
        kind: SiteKind::Open,
        window: 64 * 1024,
        rates: CpuRates::default(),
        spec: StackSpec::plain()
            .with_streams(4)
            .with_compression(1)
            .with_security(),
        msgs: 256,
        msg_size: 256 * 1024,
        content: Content::Grid,
    }
}

const PORT: &str = "bulk";

pub fn run(cfg: &BulkCfg, seed: u64) -> Rep {
    let payloads = Arc::new(Payloads::new(seed, cfg.msg_size, cfg.content));
    let h = Harness::new(seed);
    let world = worlds::two_sites(&h.sim, cfg.wan, cfg.kind, cfg.window, cfg.rates);
    let (profile_a, profile_b) = cfg.kind.profiles();

    // Join and publish, then connect.
    let rp_slot: Slot<ReceivePort> = Slot::default();
    let sp_slot: Slot<SendPort> = Slot::default();
    {
        let (env, host, spec, slot) = (
            world.env.clone(),
            world.b,
            cfg.spec.clone(),
            rp_slot.clone(),
        );
        h.sim.spawn("recv-join", move || {
            let node = trace::span("join", trace::NO_OP, || {
                GridNode::join(&env, host, "recv", profile_b).expect("receiver joins")
            });
            let rp = trace::span("create_receive_port", trace::NO_OP, || {
                node.create_receive_port(PORT, spec)
                    .expect("port registers")
            });
            slot.put(rp);
        });
    }
    {
        let (env, host, slot) = (world.env.clone(), world.a, sp_slot.clone());
        h.sim.spawn("send-join", move || {
            let node = trace::span("join", trace::NO_OP, || {
                GridNode::join(&env, host, "send", profile_a).expect("sender joins")
            });
            slot.put(node.create_send_port());
        });
    }
    h.setup("join");
    let method = Slot::default();
    {
        let mut sp = sp_slot.take();
        let (slot, method) = (sp_slot.clone(), method.clone());
        h.sim.spawn("connect", move || {
            method.put(traced_connect(&mut sp, PORT, 0).expect("connects"));
            slot.put(sp);
        });
    }
    h.setup("establish");
    let method = method.take();

    // The transfer.
    let ports = (sp_slot.take(), rp_slot.take());
    let (phase, (sp, rp)) = one_way(&h, "bulk", ports, &payloads, cfg.msgs, cfg.msg_size);

    // Close both ends.
    h.sim.spawn("close", move || {
        let _ = trace::span("close", trace::NO_OP, || sp.close());
        rp.close();
    });
    h.setup("teardown");

    Rep {
        op_phase: 0,
        byte_phase: 0,
        phases: vec![phase],
        fallbacks: u64::from(method != cfg.kind.expected_method()),
        methods: vec![method],
        compressed: cfg.spec.compress().is_some(),
        secure: cfg.spec.secure,
    }
}
