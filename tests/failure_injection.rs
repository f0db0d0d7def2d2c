//! Failure injection across layers: media corruption, revoked/expired
//! capabilities mid-stream, authentication failures, capacity exhaustion —
//! every failure must surface as a typed error, never as silent corruption.

use bytes::Bytes;
use ros2::core::{ClusterConfig, Ros2Config, Ros2System};
use ros2::daos::{AKey, DKey, DaosError, RecordKey};
use ros2::dfs::DfsError;
use ros2::dpu::DpuError;
use ros2::hw::ClientPlacement;
use ros2::sim::SimTime;

/// The default deployment on 4 engines, RF 2, its client on `placement`.
fn four_engines_rf2(placement: ClientPlacement) -> Ros2System {
    Ros2System::launch(Ros2Config {
        placement,
        cluster: ClusterConfig {
            engines: 4,
            replication_factor: 2,
        },
        ..Ros2Config::default()
    })
    .unwrap()
}

#[test]
fn media_corruption_is_detected_end_to_end() {
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let mut f = sys.create("/gold").unwrap().value;
    sys.write(&mut f, 0, Bytes::from(vec![0xAB; 1 << 20]))
        .unwrap();

    // Flip one bit on the stored extent, behind the engine's back.
    let oid = f.oid;
    let dkey = DKey::from_u64(0);
    let akey = AKey::from_str("data");
    assert!(sys.cluster.engine_mut(0).corrupt_newest_extent(&RecordKey {
        oid,
        dkey: dkey.clone(),
        akey: akey.clone()
    }));

    // The end-to-end checksum catches it at the POSIX layer.
    match sys.read(&f, 0, 4096) {
        Err(ros2::core::Ros2Error::Dfs(DfsError::Daos(DaosError::ChecksumMismatch))) => {}
        other => panic!("corruption escaped: {other:?}"),
    }
    assert_eq!(sys.cluster.vos_stats().checksum_failures, 1);
}

#[test]
fn revoked_rkey_kills_in_flight_traffic_but_not_the_system() {
    use ros2::fabric::{Dir, FabricError};
    use ros2::verbs::MemoryDomain;
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    // Register an extra buffer, revoke it, and watch a direct one-sided
    // access fail while the DFS path (its own buffers) keeps working.
    let pd = sys.client.pd();
    let node = sys.client.node();
    let buf = sys
        .fabric
        .rdma_mut(node)
        .alloc_buffer(4096, MemoryDomain::DpuDram)
        .unwrap();
    let (mr, rkey, _) = sys
        .fabric
        .rdma_mut(node)
        .reg_mr(
            pd,
            buf,
            4096,
            ros2::verbs::AccessFlags::remote_rw(),
            ros2::verbs::Expiry::Never,
        )
        .unwrap();
    sys.fabric.rdma_mut(node).revoke_rkey(mr).unwrap();

    let pd_srv = sys
        .fabric
        .rdma_mut(ros2::core::STORAGE_NODE)
        .alloc_pd("scratch");
    let conn = sys
        .fabric
        .connect(node, ros2::core::STORAGE_NODE, pd, pd_srv)
        .unwrap();
    // The *target* of the one-sided read below is the client NIC, where
    // the revoked MR lives.
    let err = sys
        .fabric
        .rdma_read(SimTime::ZERO, conn, Dir::BtoA, rkey, buf, 8)
        .unwrap_err();
    assert!(matches!(
        err,
        FabricError::Verbs(ros2::verbs::VerbsError::RkeyRevoked)
    ));

    // The system's own data path is unaffected.
    let mut f = sys.create("/alive").unwrap().value;
    sys.write(&mut f, 0, Bytes::from_static(b"still works"))
        .unwrap();
    assert_eq!(&sys.read(&f, 0, 11).unwrap().value[..], b"still works");
}

#[test]
fn bad_credentials_cannot_open_a_session() {
    use ros2::ctl::{ControlError, ControlRequest, ControlResponse};
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let tenant = sys.config.tenant.clone();
    let (_, res) = sys.agent_mut().host_call(
        SimTime::ZERO,
        None,
        ControlRequest::Hello {
            tenant,
            auth: Bytes::from_static(b"wrong-secret"),
        },
        |_, _| ControlResponse::Ok,
    );
    assert_eq!(res.unwrap_err(), ControlError::AuthFailed);
}

#[test]
fn scm_exhaustion_surfaces_as_typed_error() {
    use ros2::daos::{DaosCostModel, DaosEngine, Epoch, ObjClass, ObjectId, ValueKind};
    use ros2::hw::{CoreClass, NvmeModel};
    use ros2::nvme::{DataMode, NvmeArray};
    use ros2::spdk::BdevLayer;
    // A deliberately tiny SCM tier fills up under small (SCM-bound) values.
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        1,
        DataMode::Stored,
    ));
    let mut engine = DaosEngine::new(
        "p",
        bdevs,
        256 << 10,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    engine.cont_create("c").unwrap();
    let oid = ObjectId::new(ObjClass::S1, 1);
    let mut hit_full = false;
    for i in 0..1000u64 {
        let r = engine.update(
            SimTime::ZERO,
            "c",
            oid,
            DKey::from_u64(i),
            AKey::from_str("v"),
            ValueKind::Single,
            Epoch(i + 1),
            Bytes::from(vec![0u8; 1024]),
        );
        if matches!(r, Err(DaosError::ScmFull)) {
            hit_full = true;
            break;
        }
    }
    assert!(hit_full, "tiny SCM tier must fill");
}

#[test]
fn namespace_errors_are_typed() {
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    assert!(matches!(
        sys.open("/missing"),
        Err(ros2::core::Ros2Error::Dfs(DfsError::NotFound))
    ));
    sys.mkdir("/d").unwrap();
    sys.create("/d/f").unwrap();
    assert!(matches!(
        sys.unlink("/d"),
        Err(ros2::core::Ros2Error::Dfs(DfsError::NotEmpty))
    ));
    assert!(matches!(
        sys.mkdir("/d"),
        Err(ros2::core::Ros2Error::Dfs(DfsError::Exists))
    ));
}

/// The cluster failure cycle end to end, at the POSIX layer: kill one
/// engine mid-workload → every read still succeeds (served degraded from
/// surviving replicas, zero failed ops), online rebuild restores RF, and
/// the post-rebuild CRC verify passes on every object. The 2 MiB files
/// are multi-chunk, so every write and read rides the op ring through
/// the kill.
#[test]
fn engine_kill_mid_workload_degrades_then_rebuilds() {
    let mut sys = four_engines_rf2(ClientPlacement::Dpu);

    let content = |i: usize| Bytes::from(vec![(i * 37 % 251) as u8 + 1; 2 << 20]);
    let mut files = Vec::new();
    // First half of the workload before the failure.
    for i in 0..6 {
        let mut f = sys.create(&format!("/obj{i}")).unwrap().value;
        sys.write(&mut f, 0, content(i)).unwrap();
        files.push(f);
    }

    // Kill the leader of file 0's data object; the pool map bumps and the
    // RAS event rides the control plane.
    let victim = sys
        .cluster
        .map()
        .route(&files[0].oid)
        .set
        .leader()
        .expect("healthy leader");
    let v_before = sys.cluster.map().version();
    let calls_before = sys.metrics().control_calls;
    let v_after = sys.kill_engine(victim).unwrap();
    assert!(v_after > v_before, "kill must bump the map revision");
    assert_eq!(
        sys.metrics().control_calls,
        calls_before + 1,
        "the RAS event is a control-plane call"
    );

    // Second half of the workload runs against the degraded pool: new
    // files, plus reads of everything written so far. ZERO failed ops.
    for i in 6..12 {
        let mut f = sys.create(&format!("/obj{i}")).unwrap().value;
        sys.write(&mut f, 0, content(i)).unwrap();
        files.push(f);
    }
    for (i, f) in files.iter().enumerate() {
        let back = sys.read(f, 0, 2 << 20).expect("degraded read").value;
        assert_eq!(back, content(i), "file {i} bytes under degraded routing");
    }
    assert!(
        sys.cluster.rebuild_stats().degraded_fetches > 0,
        "the dead leader's objects must have been served degraded"
    );

    // Online rebuild restores RF for every object.
    let rebuilt = sys.rebuild().unwrap();
    assert!(rebuilt.value.objects_moved > 0, "{:?}", rebuilt.value);
    assert!(rebuilt.value.bytes_moved > 0, "{:?}", rebuilt.value);
    for f in &files {
        let set = sys.cluster.map().route(&f.oid).set;
        assert_eq!(set.len(), 2, "RF restored for {:?}", f.oid);
        assert!(!set.contains(victim), "dead engine must not be routed");
    }

    // Post-rebuild CRC verify on every object: full-file reads route to
    // the (possibly backfilled) leader and every checksum must hold.
    for (i, f) in files.iter().enumerate() {
        let back = sys.read(f, 0, 2 << 20).expect("post-rebuild read").value;
        assert_eq!(back, content(i), "file {i} bytes after rebuild");
    }
    assert_eq!(
        sys.cluster.vos_stats().checksum_failures,
        0,
        "no corruption anywhere in the failure cycle"
    );
    // A second failure is survivable now that redundancy is back.
    let next_victim = sys
        .cluster
        .map()
        .route(&files[0].oid)
        .set
        .leader()
        .expect("healthy leader");
    sys.kill_engine(next_victim).unwrap();
    let back = sys.read(&files[0], 0, 2 << 20).unwrap().value;
    assert_eq!(back, content(0), "second kill still readable");
}

/// The same cycle through the serial call: 256 KiB files are single-chunk,
/// so every data op and every namespace op takes `ObjectClient::update` /
/// `fetch` rather than the ring. The serial call stamps the live map
/// revision, and it never fences: a kill or rebuild pushes its map to every
/// engine before any op routes by it, and a live-routed replica set lies
/// inside the post-kill placement (a kill never reshuffles survivors).
#[test]
fn serial_calls_never_fence_through_kill_and_rebuild() {
    for placement in [ClientPlacement::Host, ClientPlacement::Dpu] {
        let mut sys = four_engines_rf2(placement);
        let content = |i: usize| Bytes::from(vec![(i * 37 % 251) as u8 + 1; 256 << 10]);
        let mut files = Vec::new();
        let write_six = |sys: &mut Ros2System, files: &mut Vec<_>, from: usize| {
            for i in from..from + 6 {
                let mut f = sys.create(&format!("/serial{i}")).unwrap().value;
                sys.write(&mut f, 0, content(i)).unwrap();
                files.push(f);
            }
        };
        write_six(&mut sys, &mut files, 0);
        assert_eq!(sys.cluster.fences(), 0, "{placement:?} before the kill");

        let victim = sys.cluster.map().route(&files[0].oid).set.leader();
        sys.kill_engine(victim.expect("healthy leader")).unwrap();
        write_six(&mut sys, &mut files, 6);
        for (i, f) in files.iter().enumerate() {
            let back = sys.read(f, 0, 256 << 10).expect("degraded read").value;
            assert_eq!(back, content(i), "{placement:?} file {i} degraded");
        }
        assert!(sys.cluster.rebuild_stats().degraded_fetches > 0);
        assert_eq!(sys.cluster.fences(), 0, "{placement:?} degraded");

        sys.rebuild().unwrap();
        for (i, f) in files.iter().enumerate() {
            let back = sys.read(f, 0, 256 << 10).expect("post-rebuild read").value;
            assert_eq!(back, content(i), "{placement:?} file {i} rebuilt");
        }
        assert_eq!(sys.cluster.fences(), 0, "{placement:?} after the rebuild");
    }
}

/// An explicit `MapQuery` installs the new map at once. The plan holds a
/// kill's RAS delivery back a whole second: a multi-chunk read of the dead
/// leader's file then routes by the stale map, fences and retries — unless
/// `map_query` fetched the new revision first, when no retry is taken.
#[test]
fn map_query_installs_the_map_the_ras_delivery_holds_back() {
    use ros2::core::FaultPlan;
    use ros2::daos::RetryStats;
    use ros2::sim::SimDuration;
    let read_after_kill = |query: bool| {
        let mut sys = four_engines_rf2(ClientPlacement::Dpu);
        let content = Bytes::from(vec![0x5a; 2 << 20]);
        let mut f = sys.create("/mapped").unwrap().value;
        sys.write(&mut f, 0, content.clone()).unwrap();
        sys.set_fault_plan(FaultPlan {
            ras_delay: SimDuration::from_secs(1),
            ..FaultPlan::none()
        });
        let leader = sys.cluster.map().route(&f.oid).set.leader();
        sys.kill_engine(leader.expect("healthy leader")).unwrap();
        if query {
            sys.map_query().unwrap();
        }
        let back = sys.read(&f, 0, 2 << 20).expect("read after the kill").value;
        assert_eq!(back, content, "query {query}");
        sys.client.retry_stats()
    };
    assert_eq!(read_after_kill(true), RetryStats::default());
    let stale = read_after_kill(false);
    assert!(stale.retries >= 1, "{stale:?}");
}

/// Rebuild completion is a map event like a kill: `rebuild()` pushes its
/// map to the client stack, so the first read after it routes by the
/// post-rebuild revision — no fence, retry, backoff or map refresh — on
/// both placements.
#[test]
fn rebuild_pushes_its_map_to_the_client() {
    for placement in [ClientPlacement::Host, ClientPlacement::Dpu] {
        let mut sys = four_engines_rf2(placement);
        let content = Bytes::from(vec![0x3c; 2 << 20]);
        let mut f = sys.create("/rebuilt").unwrap().value;
        sys.write(&mut f, 0, content.clone()).unwrap();
        let leader = sys.cluster.map().route(&f.oid).set.leader();
        sys.kill_engine(leader.expect("healthy leader")).unwrap();
        let back = sys.read(&f, 0, 2 << 20).expect("degraded read").value;
        assert_eq!(back, content, "{placement:?}");
        sys.rebuild().unwrap();
        let before = sys.client.retry_stats();
        let back = sys.read(&f, 0, 2 << 20).expect("post-rebuild read").value;
        assert_eq!(back, content, "{placement:?}");
        assert_eq!(sys.client.retry_stats(), before, "{placement:?}");
    }
}

#[test]
fn dpu_dram_exhaustion_fails_launch_cleanly() {
    // 16 jobs x 4 GiB of staging > 30 GiB of BlueField-3 DRAM.
    let err = Ros2System::launch(Ros2Config {
        jobs: 16,
        buffer_len: 4 << 30,
        ..Ros2Config::default()
    });
    assert!(matches!(
        err,
        Err(ros2::core::Ros2Error::Dpu(DpuError::DramExhausted { .. }))
    ));
}

#[test]
fn scheduled_bitrot_is_scrubbed_and_repaired() {
    use ros2::core::{FaultPlan, ScheduledCorruption};
    let mut sys = four_engines_rf2(ClientPlacement::Dpu);

    let content = |i: usize| Bytes::from(vec![(i * 53 % 241) as u8 + 1; 2 << 20]);
    let mut files = Vec::new();
    for i in 0..4 {
        let mut f = sys.create(&format!("/rot{i}")).unwrap().value;
        sys.write(&mut f, 0, content(i)).unwrap();
        files.push(f);
    }

    // Two silent corruptions keyed to the client-op counter, firing
    // between ops of the second half of the workload.
    let mut plan = FaultPlan::none();
    let base = sys.metrics().client_ops;
    plan.bitrot = vec![
        ScheduledCorruption {
            after_client_ops: base + 2,
            slot: 0,
            object_index: 0,
        },
        ScheduledCorruption {
            after_client_ops: base + 5,
            slot: 3,
            object_index: 1,
        },
    ];
    sys.set_fault_plan(plan);
    for i in 4..8 {
        let mut f = sys.create(&format!("/rot{i}")).unwrap().value;
        sys.write(&mut f, 0, content(i)).unwrap();
        files.push(f);
    }

    // The scrub service finds and repairs every rotten replica, and the
    // pass lands on the control plane as a RAS-style ScrubReport.
    let calls = sys.metrics().control_calls;
    let outcome = sys.scrub().unwrap().value;
    assert!(outcome.mismatches_found >= 1, "{outcome:?}");
    assert_eq!(
        outcome.mismatches_found, outcome.mismatches_repaired,
        "every mismatch must be repaired: {outcome:?}"
    );
    assert_eq!(sys.metrics().control_calls, calls + 1);

    // Epoch aggregation at the cluster-safe boundary is a control event
    // too, and the follow-up scrub pass over the healed cluster is clean
    // without scanning a single payload byte.
    let boundary = sys.aggregate().unwrap().value;
    assert!(boundary.0 > 0);
    assert_eq!(sys.metrics().control_calls, calls + 2);
    let scanned = sys.metrics().scrub.scanned_bytes;
    let clean = sys.scrub().unwrap().value;
    assert_eq!(clean.mismatches_found, 0, "{clean:?}");
    let m = sys.metrics().scrub;
    assert_eq!(
        m.scanned_bytes, scanned,
        "a clean pass compares cached chunk CRCs and scans nothing"
    );
    assert_eq!(m.scrub_passes, 2);
    assert!(m.chunks_compared > 0 && m.verified_bytes > 0);

    // No acked write was lost to the rot.
    for (i, f) in files.iter().enumerate() {
        let back = sys.read(f, 0, 2 << 20).expect("post-scrub read").value;
        assert_eq!(back, content(i), "file {i} bytes after scrub repair");
    }
}
