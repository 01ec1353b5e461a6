//! Cross-crate integration tests: composite workloads that exercise the
//! whole stack at once (multiple channels, collectives + point-to-point on
//! the same ranks, determinism across the full system).

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm::prelude::*;

#[test]
fn many_concurrent_channels_between_all_pairs() {
    // Every ordered rank pair on one node gets its own partitioned
    // channel; all epochs run concurrently.
    let mut sim = Simulation::with_seed(100);
    let world = MpiWorld::gh200(&sim, 1);
    let size = world.size();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let me = rank.rank();
        let parts = 4usize;
        // Create one send channel to every other rank and one recv channel
        // from every other rank, tag-disambiguated by direction.
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for peer in 0..size {
            if peer == me {
                continue;
            }
            let sbuf = rank.gpu().alloc_global(parts * 256);
            for u in 0..parts {
                sbuf.write_f64_slice(u * 256, &[(me * 10 + u) as f64; 32]);
            }
            let rbuf = rank.gpu().alloc_global(parts * 256);
            sends.push((peer, psend_init(ctx, rank, peer, 900 + me as u64, &sbuf, parts).expect("init")));
            recvs.push((peer, precv_init(ctx, rank, peer, 900 + peer as u64, &rbuf, parts).expect("init"), rbuf));
        }
        for (_, s) in &sends {
            s.start(ctx).expect("start");
        }
        for (_, r, _) in &recvs {
            r.start(ctx).expect("start");
        }
        for (_, r, _) in &recvs {
            r.pbuf_prepare(ctx).expect("pbuf_prepare");
        }
        for (_, s) in &sends {
            s.pbuf_prepare(ctx).expect("pbuf_prepare");
        }
        for (_, s) in &sends {
            for u in 0..parts {
                s.pready(ctx, u).expect("pready");
            }
        }
        for (_, s) in &sends {
            s.wait(ctx).expect("wait");
        }
        for (peer, r, rbuf) in &recvs {
            r.wait(ctx).expect("wait");
            for u in 0..parts {
                assert_eq!(
                    rbuf.read_f64(u * 256),
                    (peer * 10 + u) as f64,
                    "rank {me} from {peer} partition {u}"
                );
            }
        }
    });
    sim.run().unwrap();
}

#[test]
fn p2p_and_collective_coexist() {
    // A partitioned allreduce and a partitioned P2P channel share ranks,
    // progression engines, and the fabric in the same epoch.
    let mut sim = Simulation::with_seed(101);
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let p = rank.size();
        let n = 4 * p * 64;
        let coll_buf = rank.gpu().alloc_global(n * 8);
        coll_buf.write_f64_slice(0, &vec![1.0; n]);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init(ctx, rank, &coll_buf, 4, &stream, 50).expect("init");

        let p2p_buf = rank.gpu().alloc_global(1024);
        let (sreq, rreq) = if rank.rank() == 0 {
            p2p_buf.write_f64_slice(0, &[9.0; 128]);
            (Some(psend_init(ctx, rank, 1, 51, &p2p_buf, 2).expect("init")), None)
        } else if rank.rank() == 1 {
            (None, Some(precv_init(ctx, rank, 0, 51, &p2p_buf, 2).expect("init")))
        } else {
            (None, None)
        };

        coll.start(ctx).expect("start");
        if let Some(r) = &rreq {
            r.start(ctx).expect("start");
            r.pbuf_prepare(ctx).expect("pbuf_prepare");
        }
        if let Some(s) = &sreq {
            s.start(ctx).expect("start");
            s.pbuf_prepare(ctx).expect("pbuf_prepare");
        }
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");

        for u in 0..4 {
            coll.pready(ctx, u).expect("pready");
        }
        if let Some(s) = &sreq {
            s.pready_range(ctx, 0..2).expect("pready_range");
        }

        coll.wait(ctx).expect("wait");
        if let Some(s) = &sreq {
            s.wait(ctx).expect("wait");
        }
        if let Some(r) = &rreq {
            r.wait(ctx).expect("wait");
            assert_eq!(p2p_buf.read_f64_slice(0, 128), vec![9.0; 128]);
        }
        assert_eq!(coll_buf.read_f64(0), p as f64);
    });
    sim.run().unwrap();
}

#[test]
fn whole_system_is_deterministic() {
    fn trace(seed: u64) -> (u64, u64) {
        let mut sim = Simulation::with_seed(seed);
        let world = MpiWorld::gh200(&sim, 2);
        let checks = Arc::new(Mutex::new(0u64));
        let c2 = checks.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let n = 8 * rank.size() * 32;
            let buf = rank.gpu().alloc_global(n * 8);
            buf.write_f64_slice(0, &vec![rank.rank() as f64; n]);
            let stream = rank.gpu().create_stream();
            let coll = pallreduce_init(ctx, rank, &buf, 8, &stream, 60).expect("init");
            for _ in 0..2 {
                coll.start(ctx).expect("start");
                coll.pbuf_prepare(ctx).expect("pbuf_prepare");
                let c = coll.clone();
                stream.launch(ctx, KernelSpec::vector_add(4, 1024), move |d| {
                    c.pready_device_all(d)
                });
                coll.wait(ctx).expect("wait");
            }
            *c2.lock() += ctx.now().as_nanos();
        });
        let report = sim.run().unwrap();
        let total = *checks.lock();
        (report.end_time.as_nanos(), total)
    }
    assert_eq!(trace(7), trace(7), "same seed ⇒ identical virtual-time trace");
    assert_ne!(trace(7).0, trace(8).0, "different seed ⇒ different jitter");
}

#[test]
fn cost_model_is_tunable() {
    // Ablation hook: doubling the stream-sync cost must slow the
    // traditional model but leave the partitioned cycle untouched.
    fn sender_elapsed(sync_us: f64, partitioned: bool) -> f64 {
        let mut sim = Simulation::with_seed(55);
        let mut config = WorldConfig::gh200(1);
        config.cost.stream_sync_us = sync_us;
        let world = MpiWorld::new(&sim, config);
        let out = Arc::new(Mutex::new(0.0f64));
        let o2 = out.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let buf = rank.gpu().alloc_global(8 * 1024);
            let stream = rank.gpu().create_stream();
            match rank.rank() {
                0 => {
                    if partitioned {
                        let sreq = psend_init(ctx, rank, 1, 70, &buf, 8).expect("init");
                        sreq.start(ctx).expect("start");
                        sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                        let preq =
                            prequest_create(ctx, rank, &sreq, PrequestConfig::default()).unwrap();
                        let t0 = ctx.now();
                        let preq2 = preq.clone();
                        stream.launch(ctx, KernelSpec::vector_add(1, 1024), move |d| {
                            preq2.pready_all(d)
                        });
                        sreq.wait(ctx).expect("wait");
                        *o2.lock() = ctx.now().since(t0).as_micros_f64();
                    } else {
                        let t0 = ctx.now();
                        stream.launch(ctx, KernelSpec::vector_add(1, 1024), |_| {});
                        stream.synchronize(ctx);
                        rank.send(ctx, 1, 70, &buf, 0, 8 * 1024);
                        *o2.lock() = ctx.now().since(t0).as_micros_f64();
                    }
                }
                1 => {
                    if partitioned {
                        let rreq = precv_init(ctx, rank, 0, 70, &buf, 8).expect("init");
                        rreq.start(ctx).expect("start");
                        rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                        rreq.wait(ctx).expect("wait");
                    } else {
                        rank.recv(ctx, 0, 70, &buf, 0, 8 * 1024);
                    }
                }
                _ => {}
            }
        });
        sim.run().unwrap();
        let v = *out.lock();
        v
    }
    let trad_slow = sender_elapsed(20.0, false);
    let trad_fast = sender_elapsed(7.8, false);
    assert!(trad_slow - trad_fast > 10.0, "sync cost must hit the traditional path");
    let part_slow = sender_elapsed(20.0, true);
    let part_fast = sender_elapsed(7.8, true);
    assert!(
        (part_slow - part_fast).abs() < 1.0,
        "partitioned path does not call cudaStreamSynchronize: {part_fast} vs {part_slow}"
    );
}

#[test]
fn facade_reexports_are_usable() {
    // Everything needed for a user program is reachable via the prelude.
    let sim = Simulation::new(SimConfig::default());
    let world = MpiWorld::gh200(&sim, 1);
    assert_eq!(world.size(), 4);
    let cm = CostModel::default();
    assert!(cm.stream_sync_us > 0.0);
    let spec = ClusterSpec::gh200(2);
    assert_eq!(spec.total_gpus(), 8);
    drop(sim);
}

/// Every rank's Jacobi checksum equals its own tile of the serial solve,
/// bit for bit, summed row by row as `run_jacobi` sums it. The tile is odd
/// and not square, so a transposed or shifted column halo lands in the
/// wrong cells. The solve runs far longer than a tile is high, so heat
/// crosses every tile boundary, and long enough that cell values need more
/// than 53 mantissa bits: `to_bits` equality then catches a reassociated
/// stencil, which a summed, tolerance-compared checksum would forgive.
#[test]
fn jacobi_rank_checksums_match_serial_tiles_bit_for_bit() {
    use parcomm::apps::{jacobi_reference, process_grid, run_jacobi, JacobiConfig, JacobiModel};

    const NODES: u16 = 2;
    const TILE_H: usize = 3;
    const TILE_W: usize = 37;
    const ITERATIONS: usize = 40;
    let models = [
        JacobiModel::Traditional,
        JacobiModel::Partitioned(CopyMechanism::ProgressionEngine),
        JacobiModel::Partitioned(CopyMechanism::KernelCopy),
    ];
    for model in models {
        let mut sim = Simulation::new(SimConfig::default());
        let world = MpiWorld::gh200(&sim, NODES);
        let size = world.size();
        let sums = Arc::new(Mutex::new(vec![f64::NAN; size]));
        let s2 = sums.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let cfg = JacobiConfig {
                base_h: TILE_H,
                base_w: TILE_W,
                iterations: ITERATIONS,
                ..JacobiConfig::functional_test(model)
            };
            let result = run_jacobi(ctx, rank, &cfg).expect("run_jacobi");
            s2.lock()[rank.rank()] = result.checksum;
        });
        sim.run().expect("jacobi sim");

        let (px, py) = process_grid(size);
        assert_eq!((px, py), (4, 2));
        let field = jacobi_reference(TILE_H * py, TILE_W * px, ITERATIONS);
        let pitch = TILE_W * px + 2;
        for (r, got) in sums.lock().iter().enumerate() {
            let (cx, cy) = (r % px, r / px);
            let want: f64 = (1..=TILE_H)
                .map(|i| {
                    let row = (cy * TILE_H + i) * pitch + cx * TILE_W + 1;
                    field[row..row + TILE_W].iter().sum::<f64>()
                })
                .sum();
            assert!(want > 0.0, "rank {r}: heat must reach every tile");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{model:?} rank {r}: checksum {got:e} vs serial tile {want:e}"
            );
        }
    }
}
