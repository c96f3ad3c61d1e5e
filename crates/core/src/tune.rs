//! Path tuning: the telemetry sample type and the deterministic control
//! loop that turns samples into RECONFIG decisions (DESIGN.md §11).
//!
//! The split mirrors the paper's observation that tuning knowledge (how
//! many streams, what block size, whether to compress) is a property of
//! the *path*, not of the application: [`PathStats`] is what the session
//! layer can observe about a path, and [`PathController`] is a pure
//! decision core — no clocks, no I/O — that maps a sample stream to
//! parameter changes. The same core drives the live per-link daemon
//! (`GridEnv::with_path_control`) and the offline tuning binaries
//! (`autotune_streams`, `adaptive_compression`), so there is exactly one
//! tuning policy in the tree.

use std::time::Duration;

use crate::drivers::PathParams;

// ----------------------------------------------------------- telemetry

/// One transport-level sample of a link's active stripes, aggregated by
/// `SharedLink::sample_stats`. Counters are cumulative (per-connection
/// totals summed over stripes); consumers difference adjacent samples.
/// A recovery swaps the underlying connections and the counters restart
/// from zero — consumers must treat a backwards step as an empty window.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathStats {
    /// Sample time (simulation micros).
    pub at_micros: u64,
    /// Total bytes handed to the transport across active stripes.
    pub bytes_sent: u64,
    /// Retransmission timeouts across active stripes.
    pub rtx_timeouts: u64,
    /// Fast retransmits across active stripes.
    pub fast_retransmits: u64,
    /// Mean smoothed RTT over stripes that have a sample, in micros.
    pub srtt_micros: u64,
    /// Free send-buffer space of the fullest active stripe. The writer
    /// waiting on the transport keeps that buffer full; room on every
    /// stripe means the network drains faster than the application (or
    /// the compressor) can fill it — the path is not the bottleneck. On a
    /// window-bound path the bytes in flight say nothing of this: they
    /// are the window, whoever is waiting.
    pub tx_room: u64,
    /// Active stripe count at sample time.
    pub stripes: u16,
    /// Parameters the sampled stack was built from.
    pub params: PathParams,
}

impl PathStats {
    /// Total loss-recovery events (timeouts + fast retransmits).
    fn rtx_events(&self) -> u64 {
        self.rtx_timeouts + self.fast_retransmits
    }
}

/// Goodput between two cumulative samples, in bytes/second. Returns
/// `None` for an empty or backwards window (counter reset by recovery).
fn rate_between(prev: &PathStats, cur: &PathStats) -> Option<u64> {
    let dt = cur.at_micros.checked_sub(prev.at_micros)?;
    if dt == 0 || cur.bytes_sent < prev.bytes_sent {
        return None;
    }
    Some((cur.bytes_sent - prev.bytes_sent).saturating_mul(1_000_000) / dt)
}

// ------------------------------------------------------------- ladders

/// Stripe counts the controller walks and the offline sweep measures —
/// the Figure-6 sweep points from the paper's parallel-stream study.
pub const STRIPE_LADDER: [u16; 7] = [1, 2, 4, 6, 8, 12, 16];

/// The next rung above `cur`, capped at `max`.
fn next_stripe(cur: u16, max: u16) -> Option<u16> {
    STRIPE_LADDER.iter().copied().find(|&s| s > cur && s <= max)
}

/// Compression settings the offline sweep measures, cheapest first.
pub const COMPRESSION_LADDER: [Option<u8>; 4] = [None, Some(1), Some(3), Some(6)];

/// CPU-cost rank of a parameter set, for tie-breaking: fewer stripes and
/// less compression are cheaper. Block size does not enter (it is a
/// latency/loss knob, not a CPU knob).
fn cost(p: &PathParams) -> (u16, u8) {
    (p.stripes, p.compression_level.map(|l| l + 1).unwrap_or(0))
}

/// Offline selection over measured candidates `(params, bytes/sec)`:
/// the cheapest configuration within `gain_pct` percent of the best
/// rate wins. Deterministic: ties keep input order. Shared by the
/// `autotune_streams` and `adaptive_compression` binaries.
pub fn pick_best(results: &[(PathParams, u64)], gain_pct: u64) -> Option<PathParams> {
    let best = results.iter().map(|&(_, r)| r).max()?;
    results
        .iter()
        .filter(|&&(_, r)| r.saturating_mul(100 + gain_pct) >= best.saturating_mul(100))
        .min_by_key(|(p, _)| cost(p))
        .map(|&(p, _)| p)
}

// ---------------------------------------------------------- controller

/// Tuning knobs for [`PathController`].
#[derive(Clone, Copy, Debug)]
pub struct PathControlConfig {
    /// Sampling cadence of the per-link daemon.
    pub interval: Duration,
    /// Steady windows required after any change before the next probe
    /// (hysteresis — a committed change must prove itself this long).
    pub cooldown: u32,
}

impl Default for PathControlConfig {
    fn default() -> Self {
        PathControlConfig {
            interval: Duration::from_millis(250),
            cooldown: 3,
        }
    }
}

/// Percent goodput gain a probe must show over its baseline window to be
/// kept; below this it is reverted.
const PROBE_GAIN_PCT: u64 = 8;
/// Loss-recovery events in one window that count as congestion.
const LOSS_RTX: u64 = 3;
/// Floor for the multiplicative block-size decrease under loss.
const MIN_BLOCK: u32 = 4 * 1024;
/// Ceiling for stripe probes.
const MAX_STRIPES: u16 = 16;
/// Send-buffer room (bytes, on every active stripe) above which the path
/// is considered application/CPU-bound rather than network-bound.
const IDLE_ROOM: u64 = 4 * 1024;

#[derive(Clone, Copy, Debug)]
enum Mode {
    Steady,
    /// A speculative change is live; next window decides keep-or-revert.
    Probing {
        prev: PathParams,
        baseline: u64,
    },
}

/// What kind of speculative change a probe made (for re-probe blocking).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProbeKind {
    StripeUp,
    CompressionDown,
}

/// Deterministic AIMD-style control loop over [`PathStats`] samples.
///
/// Policy (DESIGN.md §11):
/// - **Loss** (≥ `LOSS_RTX` recovery events in a window): halve the block
///   size toward `MIN_BLOCK`; a live probe is reverted instead.
/// - **Probe up**: after `cooldown` clean windows with the send buffer
///   backed up (network-bound), try the next stripe rung; keep it only
///   if the next window's goodput beats the baseline by `PROBE_GAIN_PCT`.
/// - **Shed CPU**: if compressing while the send buffer idles (the wire
///   drains faster than the compressor fills), step compression down.
/// - **Hysteresis**: a reverted probe is blocked until measured goodput
///   moves ±25% from the rate at which it failed — the environment must
///   change before the same probe is retried.
///
/// Pure state machine: call [`on_sample`](Self::on_sample) with each
/// sample; a `Some(params)` return is a request to reconfigure the path.
/// The caller reports the actually-applied parameters back via
/// [`applied`](Self::applied) (a reconfigure can fail mid-flight and
/// leave the old stack in place).
pub struct PathController {
    cfg: PathControlConfig,
    /// Parameters the controller believes are live on the path.
    params: PathParams,
    mode: Mode,
    cooldown: u32,
    last: Option<PathStats>,
    /// A failed probe of this kind is not retried until goodput shifts
    /// ±25% from the recorded rate.
    blocked: Option<(ProbeKind, u64)>,
}

impl PathController {
    pub fn new(initial: PathParams, cfg: PathControlConfig) -> PathController {
        PathController {
            cfg,
            params: initial,
            mode: Mode::Steady,
            // First decision only after a full cooldown of clean windows.
            cooldown: cfg.cooldown,
            last: None,
            blocked: None,
        }
    }

    pub fn config(&self) -> &PathControlConfig {
        &self.cfg
    }

    /// Parameters the controller currently believes are live.
    pub fn params(&self) -> PathParams {
        self.params
    }

    /// Report what the path is actually running (after a reconfigure
    /// attempt, or after a recovery reset the path to its establishment
    /// spec). Resynchronizes the controller without emitting anything.
    pub fn applied(&mut self, live: PathParams) {
        if live != self.params {
            self.params = live;
            self.mode = Mode::Steady;
            self.cooldown = self.cfg.cooldown;
        }
    }

    /// Feed one sample; `Some(params)` asks the caller to reconfigure,
    /// and to feed the next sample as soon as that returns: the time in
    /// between holds the swap itself (quiesce and ack, at least one RTT)
    /// and is no configuration's goodput, so that sample only opens the
    /// next window.
    pub fn on_sample(&mut self, s: PathStats) -> Option<PathParams> {
        let decision = self.decide(s);
        if decision.is_some() {
            self.last = None;
        }
        decision
    }

    fn decide(&mut self, s: PathStats) -> Option<PathParams> {
        let prev_sample = self.last.replace(s);
        let prev_sample = prev_sample?;
        let Some(rate) = rate_between(&prev_sample, &s) else {
            // Counter reset (recovery) or zero-length window: treat as a
            // disturbance — hold steady and restart the cooldown.
            self.mode = Mode::Steady;
            self.cooldown = self.cfg.cooldown;
            return None;
        };
        let drtx = s.rtx_events().saturating_sub(prev_sample.rtx_events());

        // Congestion beats everything: revert a live probe, else shrink
        // the block so a loss costs less to retransmit.
        if drtx >= LOSS_RTX {
            self.cooldown = self.cfg.cooldown;
            if let Mode::Probing { prev, .. } = self.mode {
                self.mode = Mode::Steady;
                return self.revert_to(prev, rate);
            }
            let shrunk = (self.params.block_size / 2).max(MIN_BLOCK);
            if shrunk < self.params.block_size {
                self.params.block_size = shrunk;
                return Some(self.params);
            }
            return None;
        }

        // Resolve a live probe against its baseline window.
        if let Mode::Probing { prev, baseline } = self.mode {
            self.mode = Mode::Steady;
            self.cooldown = self.cfg.cooldown;
            let needed = baseline.saturating_mul(100 + PROBE_GAIN_PCT) / 100;
            if rate >= needed {
                self.blocked = None; // the environment rewards probing again
                return None; // keep — params are already live
            }
            return self.revert_to(prev, rate);
        }

        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }

        // Unblock a failed probe once goodput moves ±25% from where it
        // failed — the path has changed, old conclusions are stale.
        if let Some((_, at_rate)) = self.blocked {
            if rate.saturating_mul(4) > at_rate.saturating_mul(5)
                || rate.saturating_mul(5) < at_rate.saturating_mul(4)
            {
                self.blocked = None;
            }
        }

        let app_bound = s.tx_room > IDLE_ROOM;

        // CPU shed: compressing while the wire idles means the compressor
        // is the bottleneck — step it down one level.
        if let Some(level) = self.params.compression_level {
            if app_bound && !self.is_blocked(ProbeKind::CompressionDown) {
                let prev = self.params;
                self.params.compression_level = if level > 1 { Some(level - 1) } else { None };
                self.mode = Mode::Probing {
                    prev,
                    baseline: rate,
                };
                return Some(self.params);
            }
        }

        // Headroom probe: network-bound and clean — try the next rung.
        if !app_bound && !self.is_blocked(ProbeKind::StripeUp) {
            if let Some(next) = next_stripe(self.params.stripes, MAX_STRIPES) {
                let prev = self.params;
                self.params.stripes = next;
                self.mode = Mode::Probing {
                    prev,
                    baseline: rate,
                };
                return Some(self.params);
            }
        }

        None
    }

    fn is_blocked(&self, kind: ProbeKind) -> bool {
        matches!(self.blocked, Some((k, _)) if k == kind)
    }

    fn revert_to(&mut self, prev: PathParams, rate: u64) -> Option<PathParams> {
        let kind = if prev.stripes != self.params.stripes {
            ProbeKind::StripeUp
        } else {
            ProbeKind::CompressionDown
        };
        self.blocked = Some((kind, rate));
        if prev == self.params {
            return None;
        }
        self.params = prev;
        Some(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PathControlConfig {
        PathControlConfig {
            cooldown: 1,
            ..PathControlConfig::default()
        }
    }

    /// Send-buffer room of a writer waiting on the transport, and of one
    /// that is not.
    const FULL: u64 = 0;
    const IDLE: u64 = 64 * 1024;

    fn sample(at_ms: u64, bytes: u64, rtx: u64, room: u64) -> PathStats {
        PathStats {
            at_micros: at_ms * 1000,
            bytes_sent: bytes,
            rtx_timeouts: rtx,
            tx_room: room,
            ..PathStats::default()
        }
    }

    /// Drive the controller to the end of its initial cooldown.
    fn warmed(ctl: &mut PathController, bytes_per_ms: u64, room: u64) -> (u64, u64) {
        let mut t = 0;
        let mut b = 0;
        ctl.on_sample(sample(t, b, 0, room));
        for _ in 0..ctl.config().cooldown {
            t += 100;
            b += bytes_per_ms * 100;
            assert_eq!(ctl.on_sample(sample(t, b, 0, room)), None);
        }
        (t, b)
    }

    /// The sample the caller takes when a swap returns: it decides
    /// nothing, it opens the next window.
    fn swapped(ctl: &mut PathController, s: PathStats) {
        assert_eq!(ctl.on_sample(s), None);
    }

    #[test]
    fn probes_stripes_up_when_network_bound() {
        let mut ctl = PathController::new(PathParams::default(), cfg());
        let (mut t, mut b) = warmed(&mut ctl, 1000, FULL);
        t += 100;
        b += 100_000;
        let p = ctl.on_sample(sample(t, b, 0, FULL)).expect("probe");
        assert_eq!(p.stripes, 2);
        swapped(&mut ctl, sample(t, b, 0, FULL));
        // Probe pays off: 30% more goodput next window → kept.
        t += 100;
        b += 130_000;
        assert_eq!(ctl.on_sample(sample(t, b, 0, FULL)), None);
        assert_eq!(ctl.params().stripes, 2);
    }

    /// A probe is judged on the window that starts once its swap is done,
    /// not on the one that starts at the sample which decided it: that
    /// one holds the swap's own stall (here 40 ms of a 90 ms window with
    /// nothing sent), and a probe judged on it reverts however well it
    /// does.
    #[test]
    fn probe_is_judged_from_the_end_of_its_swap() {
        let mut ctl = PathController::new(PathParams::default(), cfg());
        let (mut t, mut b) = warmed(&mut ctl, 1000, FULL);
        t += 100;
        b += 100_000;
        assert_eq!(
            ctl.on_sample(sample(t, b, 0, FULL)).map(|p| p.stripes),
            Some(2)
        );
        // Quiesce + ack: 40 ms, no bytes.
        t += 40;
        swapped(&mut ctl, sample(t, b, 0, FULL));
        // 10% more goodput once live: above the 8% bar.
        t += 50;
        b += 55_000;
        assert_eq!(ctl.on_sample(sample(t, b, 0, FULL)), None);
        assert_eq!(ctl.params().stripes, 2);
    }

    #[test]
    fn reverts_flat_probe_and_blocks_retry() {
        let mut ctl = PathController::new(PathParams::default(), cfg());
        let (mut t, mut b) = warmed(&mut ctl, 1000, FULL);
        t += 100;
        b += 100_000;
        assert!(ctl.on_sample(sample(t, b, 0, FULL)).is_some());
        swapped(&mut ctl, sample(t, b, 0, FULL));
        // Flat goodput → revert to 1 stripe.
        t += 100;
        b += 100_000;
        let p = ctl.on_sample(sample(t, b, 0, FULL)).expect("revert");
        assert_eq!(p.stripes, 1);
        swapped(&mut ctl, sample(t, b, 0, FULL));
        // Same conditions: the failed probe must NOT be retried.
        for _ in 0..6 {
            t += 100;
            b += 100_000;
            assert_eq!(ctl.on_sample(sample(t, b, 0, FULL)), None);
        }
        // Goodput collapses 50% — environment changed, probe unblocked.
        for _ in 0..4 {
            t += 100;
            b += 40_000;
        }
        let got = ctl.on_sample(sample(t, b, 0, FULL));
        assert_eq!(got.map(|p| p.stripes), Some(2));
    }

    #[test]
    fn loss_halves_block_size_to_floor() {
        let mut ctl = PathController::new(PathParams::default(), cfg());
        let (mut t, mut b) = warmed(&mut ctl, 1000, FULL);
        let mut rtx = 0;
        let mut expect = PathParams::default().block_size;
        // Loss acts immediately, ignoring cooldown: every lossy window
        // halves the block until the floor.
        while expect > MIN_BLOCK {
            t += 100;
            b += 100_000;
            rtx += 10;
            let p = ctl.on_sample(sample(t, b, rtx, FULL)).expect("shrink");
            expect = (expect / 2).max(MIN_BLOCK);
            assert_eq!(p.block_size, expect);
            swapped(&mut ctl, sample(t, b, rtx, FULL));
        }
        // At the floor, further loss changes nothing.
        t += 100;
        b += 100_000;
        rtx += 10;
        assert_eq!(ctl.on_sample(sample(t, b, rtx, FULL)), None);
        assert_eq!(ctl.params().block_size, MIN_BLOCK);
    }

    #[test]
    fn sheds_compression_when_app_bound() {
        let initial = PathParams {
            compression_level: Some(1),
            ..PathParams::default()
        };
        let mut ctl = PathController::new(initial, cfg());
        // Room in the send buffer: the wire drains faster than the
        // compressor fills.
        let (mut t, mut b) = warmed(&mut ctl, 1000, IDLE);
        t += 100;
        b += 100_000;
        let p = ctl.on_sample(sample(t, b, 0, IDLE)).expect("shed");
        assert_eq!(p.compression_level, None);
        swapped(&mut ctl, sample(t, b, 0, IDLE));
        // 20% faster once the CPU is free → kept.
        t += 100;
        b += 120_000;
        assert_eq!(ctl.on_sample(sample(t, b, 0, IDLE)), None);
        assert_eq!(ctl.params().compression_level, None);
    }

    /// A window-bound fast path: the whole 64 KiB window is in flight
    /// (40 KiB unacknowledged at every sample), yet the writer never
    /// waits — 24 KiB of send buffer stay free. The compressor is the
    /// bottleneck and is shed; counting the bytes in flight as a backlog
    /// would call this path network-bound for ever.
    #[test]
    fn sheds_compression_on_a_window_bound_path() {
        let initial = PathParams {
            compression_level: Some(1),
            ..PathParams::default()
        };
        let mut ctl = PathController::new(initial, cfg());
        let room = 24 * 1024;
        let (t, b) = warmed(&mut ctl, 1000, room);
        let p = ctl.on_sample(sample(t + 100, b + 100_000, 0, room));
        assert_eq!(p.map(|p| p.compression_level), Some(None));
    }

    #[test]
    fn counter_reset_treated_as_disturbance() {
        let mut ctl = PathController::new(PathParams::default(), cfg());
        let (t, _) = warmed(&mut ctl, 1000, FULL);
        // Recovery swapped the sockets: bytes_sent rewinds to near zero.
        assert_eq!(ctl.on_sample(sample(t + 100, 5, 0, FULL)), None);
        // Cooldown restarted — no probe on the very next window.
        assert_eq!(ctl.on_sample(sample(t + 200, 100_005, 0, FULL)), None);
    }

    #[test]
    fn pick_best_prefers_cheap_within_margin() {
        let p = |stripes: u16, level: Option<u8>| PathParams {
            stripes,
            compression_level: level,
            ..PathParams::default()
        };
        // 8 stripes barely beats 4; within 8% the cheaper config wins.
        let results = [(p(1, None), 400), (p(4, None), 970), (p(8, None), 1000)];
        assert_eq!(pick_best(&results, 8), Some(p(4, None)));
        // A real 30% gap is honoured.
        let results = [(p(1, None), 700), (p(4, None), 1000)];
        assert_eq!(pick_best(&results, 8), Some(p(4, None)));
        // Compression that doesn't pay loses to plain.
        let results = [(p(1, None), 1000), (p(1, Some(6)), 1010)];
        assert_eq!(pick_best(&results, 8), Some(p(1, None)));
        assert_eq!(pick_best(&[], 8), None);
    }

    #[test]
    fn stripe_ladder_walk() {
        assert_eq!(next_stripe(1, 16), Some(2));
        assert_eq!(next_stripe(2, 16), Some(4));
        assert_eq!(next_stripe(4, 4), None);
        assert_eq!(next_stripe(16, 16), None);
        assert_eq!(next_stripe(3, 16), Some(4));
    }
}
