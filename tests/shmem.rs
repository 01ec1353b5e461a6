//! The symmetric-heap (shmem) backend suite: digest-neutrality regressions
//! for the classic mechanisms, shmem determinism, the rkey-free invariant,
//! all-pairs route-forbidden fallback, and signal/heap fault handling.

use std::sync::Arc;

use parcomm::net::{RouteClass, Topology};
use parcomm::prelude::*;
use parcomm::sim::Mutex;
use parcomm_gpu::EmissionFaultConfig;
use parcomm_mpi::RecoverConfig;
use parcomm_testkit::digest;

/// Frozen digests of the canonical device-prequest p2p run (see
/// [`device_p2p_digest`]), captured before the shmem backend existed.
/// Linking (but not selecting) `parcomm-shmem` must not move either by a
/// single event.
const PE_DIGEST: u64 = 0x45acaeb376724ea7;
const KC_DIGEST: u64 = 0x20c1bddca5782f10;

/// Canonical device-prequest p2p run: intra-node 0 -> 1, 4 user partitions
/// x 1 KiB, 2 transport partitions, progressive device pready. Digest over
/// the event stream + received payload.
fn device_p2p_digest_cfg(config: WorldConfig, copy: CopyMechanism, seed: u64) -> u64 {
    let mut sim = Simulation::with_seed(seed);
    let trace = sim.trace();
    trace.enable();
    let world = MpiWorld::new(&sim, config);
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 4usize;
        let bytes = parts * 1024;
        let buf = rank.gpu().alloc_global(bytes);
        match rank.rank() {
            0 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 1024, &[(u * 3 + 1) as f64; 128]);
                }
                let sreq = psend_init(ctx, rank, 1, 11, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                let preq = prequest_create(ctx, rank, &sreq, PrequestConfig {
                    copy,
                    transport_partitions: 2,
                    ..PrequestConfig::default()
                })
                .expect("prequest");
                let stream = rank.gpu().create_stream();
                stream.launch(ctx, KernelSpec::vector_add(2, 256), move |d| {
                    preq.pready_all_progressive(d)
                });
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, 11, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                let got: Vec<f64> = (0..parts).map(|u| buf.read_f64(u * 1024)).collect();
                for (u, v) in got.iter().enumerate() {
                    assert_eq!(*v, (u * 3 + 1) as f64, "payload mismatch partition {u}");
                }
                *o2.lock() = got;
            }
            _ => {}
        }
    });
    let report = sim.run().expect("p2p sim");
    let mut d = digest::Digest::new();
    d.write_u64(digest::run_digest(&report, &trace));
    d.write_f64_slice(&out.lock());
    d.finish()
}

fn device_p2p_digest(copy: CopyMechanism, seed: u64) -> u64 {
    device_p2p_digest_cfg(WorldConfig::gh200(1), copy, seed)
}

fn shmem_config() -> WorldConfig {
    WorldConfig { mechanism: CopyMechanism::Shmem, ..WorldConfig::gh200(1) }
}

/// Regression: with the shmem crate fully linked into the world (heap
/// registered at construction) but the classic mechanisms selected, the
/// event streams are bit-identical to the pre-shmem baselines.
#[test]
fn pe_and_kernel_copy_digests_frozen_with_shmem_linked() {
    assert_eq!(
        device_p2p_digest(CopyMechanism::ProgressionEngine, 0x5E11),
        PE_DIGEST,
        "Progression Engine digest moved: shmem is not digest-neutral when unselected"
    );
    assert_eq!(
        device_p2p_digest(CopyMechanism::KernelCopy, 0x5E11),
        KC_DIGEST,
        "Kernel Copy digest moved: shmem is not digest-neutral when unselected"
    );
}

/// Same seed, same config => same digest; the shmem path is exactly as
/// deterministic as the classic mechanisms. And the shmem digest differs
/// from both baselines (it really is a third wire protocol, not an alias).
#[test]
fn shmem_device_p2p_is_deterministic() {
    let a = device_p2p_digest_cfg(shmem_config(), CopyMechanism::Shmem, 0x5E11);
    let b = device_p2p_digest_cfg(shmem_config(), CopyMechanism::Shmem, 0x5E11);
    assert_eq!(a, b, "shmem run is not deterministic");
    assert_ne!(a, PE_DIGEST);
    assert_ne!(a, KC_DIGEST);
}

/// The tentpole invariant: a shmem channel performs ZERO rkey exchanges —
/// setup replies carry symmetric offsets, and the device puts hit the
/// fabric without ever packing a key.
#[test]
fn shmem_channel_never_exchanges_rkeys() {
    let mut sim = Simulation::with_seed(7);
    let world = MpiWorld::new(&sim, shmem_config());
    let registry = world.enable_metrics();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 4usize;
        let buf = rank.gpu().alloc_global(parts * 512);
        match rank.rank() {
            0 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 512, &[(u + 9) as f64; 64]);
                }
                let sreq = psend_init(ctx, rank, 1, 3, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                assert!(sreq.shmem_active(), "intra-node default-Shmem channel must negotiate");
                assert!(sreq.shmem_denial().is_none());
                let preq = prequest_create(ctx, rank, &sreq, PrequestConfig {
                    copy: CopyMechanism::Shmem,
                    transport_partitions: 2,
                    ..PrequestConfig::default()
                })
                .expect("prequest");
                let stream = rank.gpu().create_stream();
                stream.launch(ctx, KernelSpec::vector_add(2, 128), move |d| preq.pready_all(d));
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, 3, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                assert!(rreq.shmem_active());
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert_eq!(buf.read_f64(u * 512), (u + 9) as f64);
                }
            }
            _ => {}
        }
    });
    sim.run().expect("sim");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("ucx.rkey_exchanges").unwrap_or(0),
        0,
        "shmem channel packed an rkey"
    );
    assert_eq!(snap.counter("shmem.rkey_exchanges_avoided"), Some(2));
    assert_eq!(snap.counter("shmem.binds"), Some(2), "data + flag bind on the receiver");
    assert_eq!(snap.counter("shmem.puts"), Some(2), "one put per transport partition");
    assert_eq!(snap.counter("shmem.signals"), Some(2));
    assert_eq!(snap.counter("shmem.fallbacks").unwrap_or(0), 0);
}

/// The host `MPI_Pready` binding dispatches through the same symmetric put
/// on a negotiated shmem channel (no rkeys involved either).
#[test]
fn host_pready_works_on_shmem_channels() {
    let mut sim = Simulation::with_seed(21);
    let world = MpiWorld::new(&sim, shmem_config());
    let registry = world.enable_metrics();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 2usize;
        let buf = rank.gpu().alloc_global(parts * 256);
        match rank.rank() {
            2 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 256, &[(u * 7 + 2) as f64; 32]);
                }
                let sreq = psend_init(ctx, rank, 3, 8, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                assert!(sreq.shmem_active());
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
            }
            3 => {
                let rreq = precv_init(ctx, rank, 2, 8, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert_eq!(buf.read_f64(u * 256), (u * 7 + 2) as f64);
                }
            }
            _ => {}
        }
    });
    sim.run().expect("sim");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("ucx.rkey_exchanges").unwrap_or(0), 0);
    // Host path never changed transport aggregation: both user partitions
    // ride the single default transport, hence one symmetric put.
    assert_eq!(snap.counter("shmem.puts"), Some(1));
}

/// All-pairs property: with the world default set to Shmem, every ordered
/// rank pair on a 2-node cluster either negotiates shmem (intra-node) or
/// demotes to the Progression Engine with a typed `RouteForbidden` — and
/// the payload is delivered either way. Mirrors the Kernel-Copy cross-node
/// fallback property.
#[test]
fn route_forbidden_shmem_falls_back_to_pe_on_all_pairs() {
    let topo = Topology::new(2, 4, 4).expect("2x4 topology");
    for src in 0..topo.num_ranks() {
        for dst in 0..topo.num_ranks() {
            if src == dst {
                continue;
            }
            let intra = topo.same_node(src, dst);
            assert_eq!(
                RouteClass::classify(topo.location_of(src), topo.location_of(dst)).ipc_eligible(),
                intra
            );
            let mut sim = Simulation::with_seed(0x57E4 ^ (src * 64 + dst) as u64);
            let world = MpiWorld::new(
                &sim,
                WorldConfig { mechanism: CopyMechanism::Shmem, ..WorldConfig::gh200(2) },
            );
            let parts = 2usize;
            world.run_ranks(&mut sim, move |ctx, rank| {
                let buf = rank.gpu().alloc_global(parts * 256);
                if rank.rank() == src {
                    for u in 0..parts {
                        buf.write_f64_slice(u * 256, &[(u + 1) as f64; 32]);
                    }
                    let sreq = psend_init(ctx, rank, dst, 5, &buf, parts).expect("init");
                    sreq.start(ctx).expect("start");
                    sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    assert_eq!(sreq.shmem_active(), intra, "negotiation verdict {src}->{dst}");
                    let want = PrequestConfig {
                        copy: CopyMechanism::Shmem,
                        ..PrequestConfig::default()
                    };
                    let preq = match prequest_create(ctx, rank, &sreq, want) {
                        Ok(p) => {
                            assert!(intra, "shmem must be denied across nodes ({src}->{dst})");
                            p
                        }
                        Err(e) => {
                            assert!(!intra, "shmem must negotiate intra-node ({src}->{dst})");
                            assert!(
                                matches!(
                                    e,
                                    MpiError::Shmem(ShmemError::RouteForbidden { .. })
                                ),
                                "want typed RouteForbidden, got {e:?}"
                            );
                            assert!(matches!(
                                sreq.shmem_denial(),
                                Some(ShmemError::RouteForbidden { .. })
                            ));
                            prequest_create(ctx, rank, &sreq, PrequestConfig {
                                copy: CopyMechanism::ProgressionEngine,
                                ..want
                            })
                            .expect("PE prequest always available")
                        }
                    };
                    let stream = rank.gpu().create_stream();
                    stream
                        .launch(ctx, KernelSpec::vector_add(1, 64), move |d| preq.pready_all(d));
                    sreq.wait(ctx).expect("wait");
                } else if rank.rank() == dst {
                    let rreq = precv_init(ctx, rank, src, 5, &buf, parts).expect("init");
                    rreq.start(ctx).expect("start");
                    rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    assert_eq!(rreq.shmem_active(), intra);
                    if !intra {
                        assert!(matches!(
                            rreq.shmem_denial(),
                            Some(ShmemError::RouteForbidden { .. })
                        ));
                    }
                    rreq.wait(ctx).expect("wait");
                    for u in 0..parts {
                        assert_eq!(
                            buf.read_f64(u * 256),
                            (u + 1) as f64,
                            "payload {src}->{dst} partition {u}"
                        );
                    }
                }
            });
            sim.run().unwrap_or_else(|e| panic!("pair {src}->{dst}: {e:?}"));
        }
    }
}

/// A heap registration failure on either end demotes the channel to the
/// Progression Engine with a typed `RegistrationFailed`, and the transfer
/// still completes.
#[test]
fn heap_registration_failure_demotes_to_pe() {
    for failed_rank in [0usize, 1] {
        let mut sim = Simulation::with_seed(33 + failed_rank as u64);
        let world = MpiWorld::new(
            &sim,
            WorldConfig {
                mechanism: CopyMechanism::Shmem,
                faults: FaultPlan { shmem_heap_fail: vec![failed_rank], ..FaultPlan::none() },
                ..WorldConfig::gh200(1)
            },
        );
        let registry = world.enable_metrics();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let parts = 2usize;
            let buf = rank.gpu().alloc_global(parts * 256);
            match rank.rank() {
                0 => {
                    for u in 0..parts {
                        buf.write_f64_slice(u * 256, &[(u + 4) as f64; 32]);
                    }
                    let sreq = psend_init(ctx, rank, 1, 6, &buf, parts).expect("init");
                    sreq.start(ctx).expect("start");
                    sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    assert!(!sreq.shmem_active());
                    assert!(
                        matches!(
                            sreq.shmem_denial(),
                            Some(ShmemError::RegistrationFailed { rank }) if rank == failed_rank
                        ),
                        "want RegistrationFailed({failed_rank}), got {:?}",
                        sreq.shmem_denial()
                    );
                    for u in 0..parts {
                        sreq.pready(ctx, u).expect("pready");
                    }
                    sreq.wait(ctx).expect("wait");
                }
                1 => {
                    let rreq = precv_init(ctx, rank, 0, 6, &buf, parts).expect("init");
                    rreq.start(ctx).expect("start");
                    rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                    rreq.wait(ctx).expect("wait");
                    for u in 0..parts {
                        assert_eq!(buf.read_f64(u * 256), (u + 4) as f64);
                    }
                }
                _ => {}
            }
        });
        sim.run().expect("sim");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("shmem.fallbacks"), Some(1));
        assert_eq!(snap.counter("shmem.puts").unwrap_or(0), 0);
    }
}

/// A heap too small for the receive buffers demotes with `HeapExhausted`.
#[test]
fn heap_exhaustion_demotes_to_pe() {
    let mut sim = Simulation::with_seed(44);
    let world = MpiWorld::new(
        &sim,
        WorldConfig {
            mechanism: CopyMechanism::Shmem,
            shmem_heap_bytes: 64, // smaller than the 512 B receive buffer
            ..WorldConfig::gh200(1)
        },
    );
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 2usize;
        let buf = rank.gpu().alloc_global(parts * 256);
        match rank.rank() {
            0 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 256, &[(u + 6) as f64; 32]);
                }
                let sreq = psend_init(ctx, rank, 1, 9, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                assert!(!sreq.shmem_active());
                assert!(matches!(sreq.shmem_denial(), Some(ShmemError::HeapExhausted { .. })));
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, 9, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert_eq!(buf.read_f64(u * 256), (u + 6) as f64);
                }
            }
            _ => {}
        }
    });
    sim.run().expect("sim");
}

/// A delayed device `shmem_signal` shifts timing but the epoch still
/// completes without recovery machinery.
#[test]
fn delayed_shmem_signal_still_completes() {
    let mut sim = Simulation::with_seed(55);
    let world = MpiWorld::new(
        &sim,
        WorldConfig {
            mechanism: CopyMechanism::Shmem,
            faults: FaultPlan {
                shmem_signals: vec![(
                    0,
                    EmissionFaultConfig { delay_every: 1, delay_us: 80.0, lose_every: 0 },
                )],
                ..FaultPlan::none()
            },
            ..WorldConfig::gh200(1)
        },
    );
    run_shmem_device_pair(&mut sim, &world);
    sim.run().expect("sim");
}

/// A lost device `shmem_signal` is recovered by the epoch-replay rung of
/// the recovery ladder: the host replays the undelivered transports as
/// symmetric puts under a fresh generation.
#[test]
fn lost_shmem_signal_recovers_via_epoch_replay() {
    let mut sim = Simulation::with_seed(66);
    let world = MpiWorld::new(
        &sim,
        WorldConfig {
            mechanism: CopyMechanism::Shmem,
            faults: FaultPlan {
                shmem_signals: vec![(
                    0,
                    EmissionFaultConfig { delay_every: 0, delay_us: 0.0, lose_every: 1 },
                )],
                ..FaultPlan::none()
            },
            recover: Some(RecoverConfig { max_replays: 4, detect_us: 5_000.0, lease_us: 2_000.0 }),
            ..WorldConfig::gh200(1)
        },
    );
    let registry = world.enable_metrics();
    run_shmem_device_pair(&mut sim, &world);
    sim.run().expect("sim");
    let snap = registry.snapshot();
    assert!(
        snap.counter("mpi.recover.replays").unwrap_or(0) >= 1,
        "lost signal must trigger an epoch replay"
    );
}

/// Shared body for the fault tests: rank 0 device-sends 2 partitions to
/// rank 1 over a shmem channel and both sides verify completion.
fn run_shmem_device_pair(sim: &mut Simulation, world: &MpiWorld) {
    world.run_ranks(sim, move |ctx, rank| {
        let parts = 2usize;
        let buf = rank.gpu().alloc_global(parts * 256);
        match rank.rank() {
            0 => {
                for u in 0..parts {
                    buf.write_f64_slice(u * 256, &[(u * 2 + 5) as f64; 32]);
                }
                let sreq = psend_init(ctx, rank, 1, 13, &buf, parts).expect("init");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                assert!(sreq.shmem_active());
                let preq = prequest_create(ctx, rank, &sreq, PrequestConfig {
                    copy: CopyMechanism::Shmem,
                    transport_partitions: 2,
                    ..PrequestConfig::default()
                })
                .expect("prequest");
                let stream = rank.gpu().create_stream();
                stream.launch(ctx, KernelSpec::vector_add(1, 64), move |d| preq.pready_all(d));
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, 13, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
                for u in 0..parts {
                    assert_eq!(buf.read_f64(u * 256), (u * 2 + 5) as f64);
                }
            }
            _ => {}
        }
    });
}
