//! Microbenchmarks of the simulator kernels: the hot inner operations
//! every figure's regeneration spends its time in.

use blitzcoin_bench::harness::Criterion;
use blitzcoin_bench::{criterion_group, criterion_main};
use blitzcoin_core::exchange::{four_way_allocation, pairwise_exchange_stochastic};
use blitzcoin_core::{global_error, pairwise_exchange, DynamicTiming, TileState};
use blitzcoin_noc::wormhole::{WormholeConfig, WormholeNetwork};
use blitzcoin_noc::{
    Network, NetworkConfig, Packet, PacketKind, Plane, RoundRobinArbiter, TileId, Topology,
};
use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel, Uvfr, UvfrConfig};
use blitzcoin_sim::rng::splitmix64;
use blitzcoin_sim::{EventQueue, SimRng, SimTime, StepTrace, TieBreak};
use std::hint::black_box;

fn exchange_kernels(c: &mut Criterion) {
    let a = TileState::new(17, 32);
    let b_ = TileState::new(3, 16);
    c.bench_function("kernel/pairwise_exchange", |b| {
        b.iter(|| black_box(pairwise_exchange(black_box(a), black_box(b_))))
    });
    let mut rng = SimRng::seed(5);
    c.bench_function("kernel/pairwise_exchange_stochastic", |b| {
        b.iter(|| {
            black_box(pairwise_exchange_stochastic(
                black_box(a),
                black_box(b_),
                &mut rng,
            ))
        })
    });
    let group = [
        TileState::new(3, 8),
        TileState::new(8, 8),
        TileState::new(0, 4),
        TileState::new(5, 4),
        TileState::new(0, 8),
    ];
    c.bench_function("kernel/four_way_allocation", |b| {
        b.iter(|| black_box(four_way_allocation(black_box(&group))))
    });
    let tiles: Vec<TileState> = (0..400).map(|i| TileState::new(i % 64, 32)).collect();
    c.bench_function("kernel/global_error_400_tiles", |b| {
        b.iter(|| black_box(global_error(black_box(&tiles))))
    });
}

fn noc_kernels(c: &mut Criterion) {
    let topo = Topology::mesh(20, 20);
    c.bench_function("kernel/xy_route_diameter", |b| {
        let src = topo.tile(0, 0);
        let dst = topo.tile(19, 19);
        b.iter(|| black_box(topo.xy_route(black_box(src), black_box(dst))))
    });
    c.bench_function("kernel/network_send", |b| {
        let mut net = Network::new(topo, NetworkConfig::default());
        let pkt = Packet::coin(
            topo.tile(3, 3),
            topo.tile(4, 3),
            PacketKind::CoinStatus { has: 3, max: 8 },
        );
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimTime::from_noc_cycles(64);
            black_box(net.send(t, &pkt))
        })
    });
    c.bench_function("kernel/arbiter_grant", |b| {
        let mut arb = RoundRobinArbiter::new(3);
        let reqs = [true, false, true];
        b.iter(|| black_box(arb.grant(black_box(&reqs))))
    });
    // One wormhole cycle on an 8x8 mesh under sustained uniform-random
    // load (one 4-flit burst every 4th cycle keeps the routers busy
    // without saturating) — the flit-level hot loop in isolation.
    c.bench_function("kernel/wormhole_step_loaded", |b| {
        let wtopo = Topology::mesh(8, 8);
        let mut net = WormholeNetwork::new(wtopo, WormholeConfig::default());
        let mut lcg = 0x5ABCu64;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            (lcg >> 33) as usize % 64
        };
        let mut tick = 0u64;
        b.iter(|| {
            tick += 1;
            if tick.is_multiple_of(4) {
                let a = next();
                let mut d = next();
                if a == d {
                    d = (d + 1) % 64;
                }
                net.inject(Packet::new(
                    TileId(a),
                    TileId(d),
                    Plane::Dma1,
                    PacketKind::DmaBurst { flits: 4 },
                ));
            }
            black_box(net.step().len())
        })
    });
}

fn power_kernels(c: &mut Criterion) {
    let model = PowerModel::of(AcceleratorClass::Nvdla);
    c.bench_function("kernel/power_at", |b| {
        b.iter(|| black_box(model.power_at(black_box(555.0))))
    });
    c.bench_function("kernel/freq_for_power_bisect", |b| {
        b.iter(|| black_box(model.freq_for_power(black_box(111.0))))
    });
    let lut = CoinLut::build(&model, 1.9, 64);
    c.bench_function("kernel/lut_lookup", |b| {
        b.iter(|| black_box(lut.f_target(black_box(37))))
    });
    c.bench_function("kernel/uvfr_control_step", |b| {
        let mut uvfr = Uvfr::new(model.curve().clone(), UvfrConfig::default());
        uvfr.set_target(600.0);
        b.iter(|| black_box(uvfr.step()))
    });
}

/// A time 1..=8192 NoC cycles (pseudo-random) after the earliest pending
/// event: the entry never becomes the queue minimum, so it enters the
/// heap rather than the front slot, and every pop sifts the heap.
fn behind_min(q: &EventQueue<u64>, i: u64) -> SimTime {
    let min = q.peek_time().unwrap_or(SimTime::ZERO);
    min + SimTime::from_noc_cycles(1 + splitmix64(i) % 8192)
}

fn sim_kernels(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_schedule_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            q.schedule(behind_min(&q, i), i);
            if q.len() > 64 {
                black_box(q.pop());
            }
        })
    });
    // steady-state schedule+pop with a deep heap: sift cost grows with
    // log(pending), so the two depths bracket small and huge SoC runs;
    // the fuzzing tie-break must cost nothing on the default path (the
    // FIFO `_1000` bench is the baseline) and only two extra splitmix
    // rounds per event when shuffling
    for (suffix, pending, tie) in [
        ("1000", 1_000, TieBreak::Fifo),
        ("100000", 100_000, TieBreak::Fifo),
        ("1000_permuted", 1_000, TieBreak::Permuted(0x5EED)),
    ] {
        c.bench_function(format!("kernel/event_queue_schedule_pop_{suffix}"), |b| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(pending + 1);
            q.set_tie_break(tie);
            let mut i = 0u64;
            while q.len() < pending {
                i += 1;
                q.schedule(behind_min(&q, i), i);
            }
            b.iter(|| {
                i += 1;
                q.schedule(behind_min(&q, i), i);
                black_box(q.pop())
            })
        });
    }
    // the ring-handoff pattern (a TokenSmart token hopping stop to stop):
    // a few far-future events pending, and each step pops the earliest
    // and schedules its successor ahead of all of them, which the queue's
    // front slot serves without touching the heap
    c.bench_function("kernel/event_queue_successor", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for j in 0..8u64 {
            q.schedule(SimTime::from_ps(u64::MAX - j), j);
        }
        q.schedule(SimTime::ZERO, 0);
        b.iter(|| {
            let ev = q.pop().expect("the chain never runs dry");
            q.schedule(ev.time + SimTime::from_noc_cycles(1), ev.payload + 1);
            black_box(ev.payload)
        })
    });
    c.bench_function("kernel/step_trace_record_query", |b| {
        let mut tr = StepTrace::new("bench");
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            tr.record(SimTime::from_ns(t), (t % 7) as f64);
            black_box(tr.value_at(SimTime::from_ns(t / 2)))
        })
    });
    c.bench_function("kernel/dynamic_timing_update", |b| {
        let dt = DynamicTiming::default();
        let mut interval = 64u64;
        let mut moved = 0i64;
        b.iter(|| {
            moved = (moved + 1) % 5;
            interval = dt.next_interval(interval, moved);
            black_box(interval)
        })
    });
}

fn cache_kernels(c: &mut Criterion) {
    use blitzcoin_sim::cache::{key_of, Fetch};
    use blitzcoin_sim::json::{Json, ToJson};
    use blitzcoin_sim::{Cache, CacheMode};
    use blitzcoin_soc::cached::run_cached;
    use blitzcoin_soc::{floorplan, workload, SimConfig, Simulation};
    use std::sync::Arc;

    // The result cache's two hot operations, on a representative unit
    // (the 3x3 AV sim every small figure sweeps): hashing the unit into
    // its content address, and replaying a memoized report from a warm
    // in-memory cache (fetch + SimReport decode — the entire cost a hit
    // pays instead of re-simulating).
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, 2);
    let sim = Simulation::new(
        soc,
        wl,
        SimConfig::new(blitzcoin_soc::ManagerKind::BlitzCoin, 120.0),
    );
    c.bench_function("kernel/cache_key_hash", |b| {
        b.iter(|| black_box(sim.cache_key(black_box(7))))
    });
    let cache = Cache::in_memory();
    run_cached(&cache, &sim, 7);
    c.bench_function("kernel/cache_lookup_hit", |b| {
        b.iter(|| black_box(run_cached(&cache, &sim, 7).1))
    });

    // Storing that report through a disk-backed cache under a fresh key
    // each iteration: serialize, checksum, and one append to a segment.
    let report = Arc::new(run_cached(&cache, &sim, 7).0.to_json());
    let dir = std::env::temp_dir().join(format!("bc-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = Cache::new(Some(dir.clone()), CacheMode::On);
    let mut n = 0u64;
    c.bench_function("kernel/cache_store_disk", |b| {
        b.iter(|| {
            n += 1;
            let Fetch::Miss(guard) = disk.fetch(key_of(&Json::Num(n as f64), 0)) else {
                panic!("every key is fresh");
            };
            guard.complete_shared(Arc::clone(&report), 1.0);
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn host_reference(c: &mut Criterion) {
    // The pinned pure-ALU host-speed probe (see
    // `blitzcoin_bench::host_reference_workload`). The policies bench
    // brackets its runs with the same workload; this entry keeps it in
    // the kernel inventory and serves as the gate's fallback.
    c.bench_function("kernel/host_reference", |b| {
        b.iter(|| black_box(blitzcoin_bench::host_reference_workload()))
    });
}

criterion_group!(
    kernels,
    exchange_kernels,
    noc_kernels,
    power_kernels,
    sim_kernels,
    cache_kernels,
    host_reference
);
criterion_main!(kernels);
