//! Failure injection across layers: media corruption, revoked/expired
//! capabilities mid-stream, authentication failures, capacity exhaustion —
//! every failure must surface as a typed error, never as silent corruption.

use std::ops::Range;

use bytes::Bytes;
use ros2::core::{ClusterConfig, Ros2Config, Ros2Error, Ros2System, STORAGE_NODE};
use ros2::daos::{AKey, DKey, DaosError, ObjectId};
use ros2::dfs::{DfsError, DfsObj};
use ros2::dpu::DpuError;
use ros2::hw::ClientPlacement;
use ros2::sim::SimTime;
use ros2_testkit::{array_key, stamped, DfsShadow};

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

/// The leader of `oid`'s replica set.
fn leader(sys: &Ros2System, oid: ObjectId) -> usize {
    sys.cluster
        .map()
        .route(&oid)
        .set
        .leader()
        .expect("healthy leader")
}

/// Creates file `path` and writes it whole with `len` stamped bytes
/// (write `seq`), through the system and the shadow both.
fn put(sys: &mut Ros2System, fs: &mut DfsShadow, path: &str, seq: u64, len: usize) -> DfsObj {
    let mut f = fs.create(path, sys.create(path)).unwrap().value;
    let data = stamped(f.oid, 0, seq, len);
    sys.write(&mut f, 0, data.clone()).unwrap();
    fs.write(path, 0, &data);
    f
}

/// [`put`] for files `/{name}{i}`, write `i`, for each `i` in `seqs`.
fn put_each(
    sys: &mut Ros2System,
    fs: &mut DfsShadow,
    name: &str,
    seqs: Range<u64>,
    len: usize,
) -> Vec<DfsObj> {
    seqs.map(|i| put(sys, fs, &format!("/{name}{i}"), i, len))
        .collect()
}

/// File `path`, opened and read whole: the shadow's read-back.
fn read_back(sys: &mut Ros2System, path: &str) -> Result<Bytes, Ros2Error> {
    let f = sys.open(path)?.value;
    Ok(sys.read(&f, 0, f.size)?.value)
}

#[test]
fn media_corruption_is_detected_end_to_end() {
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let f = put(&mut sys, &mut DfsShadow::default(), "/gold", 0, 1 << 20);

    // Flip one bit on the stored extent, behind the engine's back.
    let engine = sys.cluster.engine_mut(0);
    assert!(engine.corrupt_newest_extent(&array_key(f.oid, 0)));

    // The end-to-end checksum catches it at the POSIX layer.
    match sys.read(&f, 0, 4096) {
        Err(Ros2Error::Dfs(DfsError::Daos(DaosError::ChecksumMismatch))) => {}
        other => panic!("corruption escaped: {other:?}"),
    }
    assert_eq!(sys.cluster.vos_stats().checksum_failures, 1);
}

#[test]
fn revoked_rkey_kills_in_flight_traffic_but_not_the_system() {
    use ros2::fabric::{Dir, FabricError};
    use ros2::verbs::{AccessFlags, Expiry, MemoryDomain, VerbsError};
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
        .reg_mr(pd, buf, 4096, AccessFlags::remote_rw(), Expiry::Never)
        .unwrap();
    sys.fabric.rdma_mut(node).revoke_rkey(mr).unwrap();

    let pd_srv = sys.fabric.rdma_mut(STORAGE_NODE).alloc_pd("scratch");
    let conn = sys.fabric.connect(node, STORAGE_NODE, pd, pd_srv).unwrap();
    // The *target* of the one-sided read below is the client NIC, where
    // the revoked MR lives.
    let err = sys
        .fabric
        .rdma_read(SimTime::ZERO, conn, Dir::BtoA, rkey, buf, 8)
        .unwrap_err();
    assert!(matches!(err, FabricError::Verbs(VerbsError::RkeyRevoked)));

    // The system's own data path is unaffected.
    let mut fs = DfsShadow::default();
    put(&mut sys, &mut fs, "/alive", 0, 11);
    fs.check_files(|p| read_back(&mut sys, p));
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

/// The shadow names each error: `NotFound`, then `NotEmpty`, then `Exists`.
#[test]
fn namespace_errors_are_typed() {
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let mut fs = DfsShadow::default();
    fs.open("/missing", sys.open("/missing").map(|t| t.value))
        .unwrap_err();
    fs.mkdir("/d", sys.mkdir("/d")).unwrap();
    fs.create("/d/f", sys.create("/d/f")).unwrap();
    fs.unlink("/d", sys.unlink("/d").map(|t| t.value));
    fs.mkdir("/d", sys.mkdir("/d")).unwrap_err();
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
    let mut fs = DfsShadow::default();
    // First half of the workload before the failure.
    let mut files = put_each(&mut sys, &mut fs, "obj", 0..6, 2 << 20);

    // Kill the leader of file 0's data object; the pool map bumps and the
    // RAS event rides the control plane.
    let victim = leader(&sys, files[0].oid);
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
    files.extend(put_each(&mut sys, &mut fs, "obj", 6..12, 2 << 20));
    fs.check_files(|p| read_back(&mut sys, p));
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
    fs.check_files(|p| read_back(&mut sys, p));
    assert_eq!(
        sys.cluster.vos_stats().checksum_failures,
        0,
        "no corruption anywhere in the failure cycle"
    );
    // A second failure is survivable now that redundancy is back.
    sys.kill_engine(leader(&sys, files[0].oid)).unwrap();
    fs.check_files(|p| read_back(&mut sys, p));
}

/// The same cycle through the serial call: 256 KiB files are single-chunk,
/// so every data op and every namespace op takes `ObjectClient::update` /
/// `fetch` rather than the ring. The serial call stamps the live map
/// revision, and it never fences: a kill or rebuild pushes its map to every
/// engine before any op routes by it, and a live-routed replica set lies
/// inside the post-kill placement (a kill never reshuffles survivors).
#[test]
fn serial_calls_never_fence_through_kill_and_rebuild() {
    // After each phase a create over a name that is there still answers
    // `Exists`, every file reads back, and no lookup was fenced.
    let check = |sys: &mut Ros2System, fs: &mut DfsShadow, phase: String| {
        drop(fs.create("/serial0", sys.create("/serial0")));
        fs.check_files(|p| read_back(sys, p));
        assert_eq!(sys.cluster.fences(), 0, "{phase}");
    };
    for placement in [ClientPlacement::Host, ClientPlacement::Dpu] {
        let mut sys = four_engines_rf2(placement);
        let mut fs = DfsShadow::default();
        let files = put_each(&mut sys, &mut fs, "serial", 0..6, 256 << 10);
        check(&mut sys, &mut fs, format!("{placement:?} before the kill"));

        sys.kill_engine(leader(&sys, files[0].oid)).unwrap();
        put_each(&mut sys, &mut fs, "serial", 6..12, 256 << 10);
        check(&mut sys, &mut fs, format!("{placement:?} degraded"));
        assert!(sys.cluster.rebuild_stats().degraded_fetches > 0);

        sys.rebuild().unwrap();
        check(
            &mut sys,
            &mut fs,
            format!("{placement:?} after the rebuild"),
        );
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
        let mut fs = DfsShadow::default();
        let f = put(&mut sys, &mut fs, "/mapped", 0, 2 << 20);
        sys.set_fault_plan(FaultPlan {
            ras_delay: SimDuration::from_secs(1),
            ..FaultPlan::none()
        });
        sys.kill_engine(leader(&sys, f.oid)).unwrap();
        if query {
            sys.map_query().unwrap();
        }
        fs.check_files(|p| read_back(&mut sys, p));
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
        let mut fs = DfsShadow::default();
        let f = put(&mut sys, &mut fs, "/rebuilt", 0, 2 << 20);
        sys.kill_engine(leader(&sys, f.oid)).unwrap();
        fs.check_files(|p| read_back(&mut sys, p));
        sys.rebuild().unwrap();
        let before = sys.client.retry_stats();
        fs.check_files(|p| read_back(&mut sys, p));
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
        Err(Ros2Error::Dpu(DpuError::DramExhausted { .. }))
    ));
}

#[test]
fn scheduled_bitrot_is_scrubbed_and_repaired() {
    use ros2::core::{FaultPlan, ScheduledCorruption};
    let mut sys = four_engines_rf2(ClientPlacement::Dpu);
    let mut fs = DfsShadow::default();
    put_each(&mut sys, &mut fs, "rot", 0..4, 2 << 20);

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
    put_each(&mut sys, &mut fs, "rot", 4..8, 2 << 20);

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
    fs.check_files(|p| read_back(&mut sys, p));
}
