//! End-to-end integration: real bytes through the full ROS2 stack on every
//! (transport × placement) deployment, with content verification at each
//! step — the functional counterpart of the performance reproduction.

use bytes::Bytes;
use ros2::core::{Ros2Config, Ros2System};
use ros2::hw::{ClientPlacement, Transport};
use ros2::sim::SimRng;

fn deployments() -> Vec<Ros2Config> {
    let mut v = Vec::new();
    for transport in [Transport::Tcp, Transport::Rdma] {
        for placement in [ClientPlacement::Host, ClientPlacement::Dpu] {
            v.push(Ros2Config {
                transport,
                placement,
                ssds: 2,
                ..Ros2Config::default()
            });
        }
    }
    v
}

#[test]
fn byte_exact_round_trips_on_all_four_deployments() {
    for cfg in deployments() {
        let label = format!("{:?}/{:?}", cfg.transport, cfg.placement);
        let mut sys = Ros2System::launch(cfg).unwrap();
        let mut rng = SimRng::new(0xE2E);
        let mut buf = vec![0u8; 5 << 20];
        rng.fill_bytes(&mut buf);
        let data = Bytes::from(buf);

        let mut f = sys.create("/blob").unwrap().value;
        sys.write(&mut f, 0, data.clone()).unwrap();
        // Whole-file, sub-chunk, and cross-chunk reads all verify.
        assert_eq!(sys.read(&f, 0, 5 << 20).unwrap().value, data, "{label}");
        assert_eq!(
            sys.read(&f, 12345, 4096).unwrap().value,
            data.slice(12345..12345 + 4096),
            "{label}"
        );
        let cross = (1 << 20) - 100;
        assert_eq!(
            sys.read(&f, cross, 8192).unwrap().value,
            data.slice(cross as usize..cross as usize + 8192),
            "{label}"
        );
    }
}

#[test]
fn overwrites_and_sparse_regions_behave_posixly() {
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let mut f = sys.create("/sparse").unwrap().value;
    // Write at an offset, leaving a hole.
    sys.write(&mut f, 2 << 20, Bytes::from(vec![7u8; 1 << 20]))
        .unwrap();
    assert_eq!(f.size, 3 << 20);
    let hole = sys.read(&f, 0, 4096).unwrap().value;
    assert!(hole.iter().all(|&b| b == 0), "holes read zero");
    // Overwrite part of the data.
    sys.write(&mut f, 2 << 20, Bytes::from(vec![9u8; 4096]))
        .unwrap();
    let head = sys.read(&f, 2 << 20, 8192).unwrap().value;
    assert!(head[..4096].iter().all(|&b| b == 9));
    assert!(head[4096..].iter().all(|&b| b == 7));
}

#[test]
fn checkpoint_rename_commit_pattern() {
    // The train-then-commit pattern from the LLM workflow: write to a temp
    // name, rename into place, reread.
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    sys.mkdir("/ckpt").unwrap();
    let mut tmp = sys.create("/ckpt/step10.tmp").unwrap().value;
    let blob = Bytes::from(vec![0x42; 2 << 20]);
    sys.write(&mut tmp, 0, blob.clone()).unwrap();

    // Rename via the dfs layer (the system API wraps lookup+rename).
    let _root = sys.dfs.root();
    let mut s = ros2::dfs::DfsSession {
        fabric: &mut sys.fabric,
        cluster: &mut sys.cluster,
        client: sys.client.as_object(),
    };
    let now = ros2::sim::SimTime::ZERO;
    let (ckpt_dir, t) = sys.dfs.lookup(&mut s, now, "/ckpt").unwrap();
    sys.dfs
        .rename(&mut s, t, &ckpt_dir, "step10.tmp", &ckpt_dir, "step10")
        .unwrap();

    let committed = sys.open("/ckpt/step10").unwrap().value;
    assert_eq!(sys.read(&committed, 0, 2 << 20).unwrap().value, blob);
    assert!(sys.open("/ckpt/step10.tmp").is_err(), "old name gone");
}

#[test]
fn many_files_across_striped_targets() {
    let mut sys = Ros2System::launch(Ros2Config {
        ssds: 4,
        ..Ros2Config::default()
    })
    .unwrap();
    sys.mkdir("/shards").unwrap();
    for i in 0..16 {
        let mut f = sys.create(&format!("/shards/s{i}")).unwrap().value;
        sys.write(&mut f, 0, Bytes::from(vec![i as u8; 2 << 20]))
            .unwrap();
    }
    let names = sys.readdir("/shards").unwrap().value;
    assert_eq!(names.len(), 16);
    for i in 0..16 {
        let f = sys.open(&format!("/shards/s{i}")).unwrap().value;
        let back = sys.read(&f, 1 << 20, 1024).unwrap().value;
        assert!(back.iter().all(|&b| b == i as u8), "shard {i}");
    }
    // All four devices saw traffic (Sx striping by chunk dkey).
    for d in 0..4 {
        let stats = sys
            .cluster
            .engine_mut(0)
            .bdevs_mut()
            .array()
            .device(d)
            .stats()
            .clone();
        assert!(stats.bytes_written > 0, "device {d} idle");
    }
}

#[test]
fn epoch_snapshots_read_the_past() {
    use ros2::daos::{AKey, DKey, Epoch, ObjClass, ObjectId, ValueKind};
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let oid = ObjectId::new(ObjClass::S1, 777);
    let d = DKey::from_str("k");
    let a = AKey::from_str("v");
    // Two versions via the raw object API.
    sys.client
        .as_object()
        .update(
            &mut sys.fabric,
            &mut sys.cluster,
            ros2::sim::SimTime::ZERO,
            0,
            oid,
            d.clone(),
            a.clone(),
            ValueKind::Single,
            Bytes::from_static(b"v1"),
        )
        .unwrap();
    let snap = sys.cluster.snapshot("posix").unwrap();
    sys.client
        .as_object()
        .update(
            &mut sys.fabric,
            &mut sys.cluster,
            ros2::sim::SimTime::ZERO,
            0,
            oid,
            d.clone(),
            a.clone(),
            ValueKind::Single,
            Bytes::from_static(b"v2"),
        )
        .unwrap();
    let (old, _) = sys
        .client
        .as_object()
        .fetch(
            &mut sys.fabric,
            &mut sys.cluster,
            ros2::sim::SimTime::ZERO,
            0,
            oid,
            d.clone(),
            a.clone(),
            ValueKind::Single,
            snap,
            2,
        )
        .unwrap();
    assert_eq!(&old[..], b"v1");
    let (new, _) = sys
        .client
        .as_object()
        .fetch(
            &mut sys.fabric,
            &mut sys.cluster,
            ros2::sim::SimTime::ZERO,
            0,
            oid,
            d,
            a,
            ValueKind::Single,
            Epoch::LATEST,
            2,
        )
        .unwrap();
    assert_eq!(&new[..], b"v2");
}
