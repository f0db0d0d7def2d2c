//! End-to-end integration: real bytes through the full ROS2 stack on every
//! (transport × placement) deployment, every answer held to the kit's DFS
//! shadow — the functional counterpart of the performance reproduction.

use bytes::Bytes;
use ros2::core::{Ros2Config, Ros2Error, Ros2System};
use ros2::hw::{ClientPlacement, Transport};
use ros2::sim::SimTime;
use ros2_testkit::{stamped, DfsShadow};

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

/// Writes `len` stamped bytes (write `seq`) at `offset` of open file `f`
/// at `path`, through the system and the shadow both.
fn put(
    sys: &mut Ros2System,
    fs: &mut DfsShadow,
    path: &str,
    f: &mut ros2::dfs::DfsObj,
    offset: u64,
    seq: u64,
    len: usize,
) {
    let data = stamped(f.oid, offset, seq, len);
    sys.write(f, offset, data.clone()).unwrap();
    fs.write(path, offset, &data);
}

/// File `path`, opened and read whole: the shadow's read-back.
fn read_back(sys: &mut Ros2System, path: &str) -> Result<Bytes, Ros2Error> {
    let f = sys.open(path)?.value;
    Ok(sys.read(&f, 0, f.size)?.value)
}

#[test]
fn byte_exact_round_trips_on_all_four_deployments() {
    for cfg in deployments() {
        let path = format!("/{:?}-{:?}", cfg.transport, cfg.placement);
        let mut sys = Ros2System::launch(cfg).unwrap();
        let mut fs = DfsShadow::default();
        let mut f = fs.create(&path, sys.create(&path)).unwrap().value;
        put(&mut sys, &mut fs, &path, &mut f, 0, 1, 5 << 20);
        // Whole-file, sub-chunk, and cross-chunk reads all verify.
        for (offset, len) in [(0, 5 << 20), (12345, 4096), ((1 << 20) - 100, 8192)] {
            let got = sys.read(&f, offset, len).map(|t| t.value);
            fs.read(&path, offset, len, got);
        }
    }
}

#[test]
fn overwrites_and_sparse_regions_behave_posixly() {
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let mut fs = DfsShadow::default();
    let mut f = fs.create("/sparse", sys.create("/sparse")).unwrap().value;
    // Write at an offset, leaving a hole; then overwrite part of the data.
    put(&mut sys, &mut fs, "/sparse", &mut f, 2 << 20, 1, 1 << 20);
    put(&mut sys, &mut fs, "/sparse", &mut f, 2 << 20, 2, 4096);
    let f = fs
        .open("/sparse", sys.open("/sparse").map(|t| t.value))
        .unwrap();
    for (offset, len) in [(0, 4096), (2 << 20, 8192)] {
        let got = sys.read(&f, offset, len).map(|t| t.value);
        fs.read("/sparse", offset, len, got);
    }
}

#[test]
fn checkpoint_rename_commit_pattern() {
    // The train-then-commit pattern from the LLM workflow: write to a temp
    // name, rename into place, reread.
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let mut fs = DfsShadow::default();
    fs.mkdir("/ckpt", sys.mkdir("/ckpt")).unwrap();
    let tmp = "/ckpt/step10.tmp";
    let mut f = fs.create(tmp, sys.create(tmp)).unwrap().value;
    put(&mut sys, &mut fs, tmp, &mut f, 0, 10, 2 << 20);

    // Rename via the dfs layer (the system API wraps lookup+rename).
    let mut s = ros2::dfs::DfsSession {
        fabric: &mut sys.fabric,
        cluster: &mut sys.cluster,
        client: sys.client.as_object(),
    };
    let (ckpt_dir, t) = sys.dfs.lookup(&mut s, SimTime::ZERO, "/ckpt").unwrap();
    let got = sys
        .dfs
        .rename(&mut s, t, &ckpt_dir, "step10.tmp", &ckpt_dir, "step10");
    fs.rename(tmp, "/ckpt/step10", got.map(drop));

    fs.check_files(|p| read_back(&mut sys, p));
    fs.open(tmp, sys.open(tmp).map(|t| t.value)).unwrap_err();
}

#[test]
fn many_files_across_striped_targets() {
    let mut sys = Ros2System::launch(Ros2Config {
        ssds: 4,
        ..Ros2Config::default()
    })
    .unwrap();
    let mut fs = DfsShadow::default();
    fs.mkdir("/shards", sys.mkdir("/shards")).unwrap();
    for i in 0..16 {
        let path = format!("/shards/s{i}");
        let mut f = fs.create(&path, sys.create(&path)).unwrap().value;
        put(&mut sys, &mut fs, &path, &mut f, 0, i, 2 << 20);
    }
    fs.readdir("/shards", sys.readdir("/shards").map(|t| t.value));
    fs.check_files(|p| read_back(&mut sys, p));
    // All four devices saw traffic (Sx striping by chunk dkey).
    let array = sys.cluster.engine_mut(0).bdevs_mut().array();
    for d in 0..4 {
        assert!(array.device(d).stats().bytes_written > 0, "device {d} idle");
    }
}

/// A snapshot reads the value as it stood when it was taken.
#[test]
fn epoch_snapshots_read_the_past() {
    use ros2::daos::{ClientOp, Epoch, FetchOp, ObjClass, ObjectId, UpdateOp, ValueKind};
    use ros2_testkit::{array_key, serial_op};
    let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
    let key = array_key(ObjectId::new(ObjClass::S1, 777), 0);
    let kind = ValueKind::Single;
    let put = |data| {
        let (key, data) = (key.clone(), Bytes::from_static(data));
        ClientOp::Update(UpdateOp { key, kind, data })
    };
    let get = |epoch| {
        let (key, len) = (key.clone(), 2);
        ClientOp::Fetch(FetchOp {
            key,
            kind,
            epoch,
            len,
        })
    };
    let run = |sys: &mut Ros2System, op| {
        let (client, fabric, cluster) = (sys.client.as_object(), &mut sys.fabric, &mut sys.cluster);
        serial_op(client, fabric, cluster, SimTime::ZERO, op)
    };
    run(&mut sys, put(b"v1")).into_update().unwrap();
    let snap = sys.cluster.snapshot("posix").unwrap();
    run(&mut sys, put(b"v2")).into_update().unwrap();
    assert_eq!(&run(&mut sys, get(snap)).into_fetch().unwrap().0[..], b"v1");
    assert_eq!(
        &run(&mut sys, get(Epoch::LATEST)).into_fetch().unwrap().0[..],
        b"v2"
    );
}
