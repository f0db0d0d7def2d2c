//! Multi-tenant isolation on the SmartNIC (§2.3): two tenants share the
//! DPU; tenant B steals tenant A's rkey and attempts one-sided access. The
//! protection-domain check stops it cold, kills the offending QP, and the
//! violation is visible in the NIC's counters. Scoped (expiring) rkeys and
//! revocation are demonstrated too.
//!
//! Run with: `cargo run --release --example multi_tenant_isolation`

use ros2::dpu::{QosLimits, TenantManager};
use ros2::fabric::FabricError;
use ros2::fabric::{Dir, Fabric, NodeSpec};
use ros2::hw::Transport;
use ros2::sim::{SimDuration, SimTime};
use ros2::verbs::{AccessFlags, MemoryDomain, NodeId, QpState, VerbsError};

fn main() {
    // A BlueField-3 and a storage server on the RDMA fabric.
    let mut fabric = Fabric::new(
        Transport::Rdma,
        vec![NodeSpec::bluefield3(), NodeSpec::storage_server()],
        77,
    );
    let dpu = NodeId(0);
    let storage = NodeId(1);

    // Tenant registration: dedicated PDs, QoS, short-lived scoped rkeys.
    let mut tenants = TenantManager::new(dpu);
    let pd_a = tenants.register(
        &mut fabric,
        "tenant-a",
        QosLimits::unlimited(),
        SimDuration::from_millis(500),
    );
    let pd_b = tenants.register(
        &mut fabric,
        "tenant-b",
        QosLimits::unlimited(),
        SimDuration::from_millis(500),
    );
    println!("registered tenant-a (pd {pd_a:?}) and tenant-b (pd {pd_b:?}) on the DPU");

    // Tenant A registers a staging buffer with a *scoped* rkey.
    let buf_a = fabric
        .rdma_mut(dpu)
        .alloc_buffer(1 << 20, MemoryDomain::DpuDram)
        .unwrap();
    let expiry = tenants.rkey_expiry(SimTime::ZERO, "tenant-a").unwrap();
    let (mr_a, rkey_a, _) = fabric
        .rdma_mut(dpu)
        .reg_mr(pd_a, buf_a, 1 << 20, AccessFlags::remote_rw(), expiry)
        .unwrap();
    fabric
        .rdma_mut(dpu)
        .write_local(buf_a, b"tenant-a secret weights")
        .unwrap();
    println!("tenant-a registered 1 MiB at {buf_a:#x} with scoped {rkey_a:?} (expires 500ms)");

    // Both tenants get their own connections to the storage server.
    let pd_srv = fabric.rdma_mut(storage).alloc_pd("daos-engine");
    let conn_a = fabric.connect(dpu, storage, pd_a, pd_srv).unwrap();
    let conn_b = fabric.connect(dpu, storage, pd_b, pd_srv).unwrap();

    // Legitimate use: the server reads tenant A's buffer through A's conn.
    let ok = fabric
        .rdma_read(SimTime::ZERO, conn_a, Dir::BtoA, rkey_a, buf_a, 23)
        .unwrap();
    println!(
        "legit server pull over tenant-a conn: {:?}",
        String::from_utf8_lossy(&ok.data.unwrap())
    );

    // ATTACK 1: tenant B leaks tenant A's rkey and replays it over its own
    // connection. The target-side QP belongs to pd_b; the MR to pd_a.
    let attack = fabric.rdma_read(
        SimTime::from_millis(1),
        conn_b,
        Dir::BtoA,
        rkey_a,
        buf_a,
        23,
    );
    match attack {
        Err(FabricError::Verbs(VerbsError::PdMismatch)) => {
            println!("ATTACK 1 (stolen rkey, cross-PD): DENIED with PdMismatch")
        }
        other => panic!("isolation hole! {other:?}"),
    }
    let qps = fabric.qps(conn_b, Dir::BtoA).unwrap();
    assert_eq!(fabric.node(dpu).rdma.qp_state(qps.1), Some(QpState::Error));
    println!("  -> tenant-b's QP transitioned to ERROR (as real RC hardware would)");

    // ATTACK 2: rkey probing (Pythia-style). 64-bit random keys never land.
    let mut denied = 0;
    for probe in 0..100u64 {
        let guess = ros2::verbs::RKey(0xDEAD_0000 + probe);
        if fabric
            .rdma_read(SimTime::from_millis(2), conn_a, Dir::BtoA, guess, buf_a, 8)
            .is_err()
        {
            denied += 1;
            // Reset the (victim's own) QP after each fault for the demo.
            let (_, dst_qp) = fabric.qps(conn_a, Dir::BtoA).unwrap();
            fabric.rdma_mut(dpu).reset_qp(dst_qp).unwrap();
            fabric
                .rdma_mut(dpu)
                .connect_qp(dst_qp, storage, dst_qp)
                .unwrap();
        }
    }
    println!("ATTACK 2 (rkey probing): {denied}/100 probes denied");

    // ATTACK 3: replay after expiry. The scoped rkey dies at t=500ms.
    let late = SimTime::from_millis(501);
    match fabric.rdma_read(late, conn_a, Dir::BtoA, rkey_a, buf_a, 8) {
        Err(FabricError::Verbs(VerbsError::RkeyExpired)) => {
            println!("ATTACK 3 (replay after scope): DENIED with RkeyExpired")
        }
        other => panic!("expiry hole! {other:?}"),
    }

    // And administrative revocation is instant.
    fabric.rdma_mut(dpu).revoke_rkey(mr_a).unwrap();
    println!("tenant-a's rkey revoked administratively");

    let v = fabric.node(dpu).rdma.violations();
    println!(
        "\nNIC violation counters: pd_mismatch={} invalid_rkey={} expired={} total={}",
        v.pd_mismatch,
        v.invalid_rkey,
        v.expired_rkey,
        v.total()
    );
    println!(
        "tenant-a's data was never readable by tenant-b; policy lives on the DPU, not the host."
    );
}
