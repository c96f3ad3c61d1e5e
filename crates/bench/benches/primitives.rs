//! Criterion micro-benchmarks of the substrates (real wall-clock, not
//! simulated time): compression levels, crypto primitives, and simulator
//! event throughput. These are harness sanity checks — the paper's
//! evaluation lives in `src/bin/` (simulated-time experiments).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::io::{Read, Write};
use std::time::Duration;

/// Keep the whole suite quick: these are sanity gauges, not regression CI.
fn tune(g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(20);
}

fn bench_gridzip(c: &mut Criterion) {
    let data = gridzip::synth::grid_payload(256 * 1024, gridzip::synth::GRID_REDUNDANCY, 7);
    let mut g = c.benchmark_group("gridzip");
    tune(&mut g);
    g.throughput(Throughput::Bytes(data.len() as u64));
    for level in [1u8, 3, 6] {
        g.bench_with_input(BenchmarkId::new("compress", level), &level, |b, &level| {
            let mut comp = gridzip::Compressor::new(level);
            let mut out = Vec::with_capacity(data.len());
            b.iter(|| {
                out.clear();
                comp.compress(&data, &mut out)
            });
        });
    }
    let mut comp = gridzip::Compressor::new(1);
    let mut packed = Vec::new();
    comp.compress(&data, &mut packed);
    g.bench_function("decompress/1", |b| {
        b.iter(|| gridzip::decompress(&packed, data.len()).unwrap());
    });
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("gridcrypt");
    tune(&mut g);
    let block = vec![0xabu8; 64 * 1024];
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("sha256/64k", |b| {
        b.iter(|| gridcrypt::sha256::sha256(&block));
    });
    g.bench_function("chacha20poly1305_seal/64k", |b| {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let mut buf = block.clone();
        b.iter(|| gridcrypt::seal_in_place(&key, &nonce, b"hdr", &mut buf));
    });
    g.finish();
    let mut g = c.benchmark_group("x25519");
    tune(&mut g);
    g.bench_function("scalar_mult", |b| {
        let sk = [0x42u8; 32];
        b.iter(|| gridcrypt::x25519::public_key(&sk));
    });
    g.finish();
}

/// Simulated TCP transfer: how fast does the whole simulator run in real
/// time? (Events per second govern how large an experiment is practical.)
fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("tcp_transfer_1mb", |b| {
        b.iter(|| {
            let sim = gridsim_net::Sim::new(1);
            let (a, bn) = sim.net().with(|w| {
                gridsim_net::topology::wan_pair(
                    w,
                    gridsim_net::LinkParams::mbps(8.0, Duration::from_millis(5)),
                )
            });
            let net = sim.net();
            let ha = gridsim_tcp::SimHost::new(&net, a);
            let hb = gridsim_tcp::SimHost::new(&net, bn);
            let b_ip = hb.ip();
            sim.spawn("recv", move || {
                let l = hb.listen(7000).unwrap();
                let mut s = l.accept().unwrap();
                let mut sink = vec![0u8; 64 * 1024];
                while s.read(&mut sink).unwrap() > 0 {}
            });
            sim.spawn("send", move || {
                let mut s = ha.connect(gridsim_net::SockAddr::new(b_ip, 7000)).unwrap();
                let chunk = vec![1u8; 64 * 1024];
                for _ in 0..16 {
                    s.write_all(&chunk).unwrap();
                }
                s.shutdown_write().unwrap();
            });
            sim.run()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_gridzip, bench_crypto, bench_simulator);
criterion_main!(benches);
