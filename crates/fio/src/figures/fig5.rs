//! Fig. 5 (`fig5_dfs`): end-to-end DAOS/DFS through FIO — TCP vs RDMA,
//! client on the host CPU vs offloaded to the BlueField-3, 1 vs 4 NVMe
//! SSDs; 1 MiB throughput (a, b) and 4 KiB IOPS (c, d).

use ros2_hw::{ClientPlacement, Transport};
use ros2_nvme::DataMode;

use super::{paper_rate, paper_spec, Check, Claim};
use crate::{run_fio, RwMode, WorldSpec};

use ClientPlacement::{Dpu, Host};
use Transport::{Rdma, Tcp};

/// The drive-count axis.
pub const SSDS: [usize; 2] = [1, 4];
/// Jobs per cell.
const JOBS: usize = 16;
/// Bytes of each job's file.
const REGION: u64 = 256 << 20;
const MIB: u64 = 1 << 20;

/// A cell: (transport, client placement, SSDs, access pattern, block
/// size).
pub type Point = (Transport, ClientPlacement, usize, RwMode, u64);

/// One cell, 16 jobs against one engine: GiB/s at 1 MiB, K IOPS at 4 KiB.
pub fn cell((transport, placement, ssds, rw, bs): Point) -> f64 {
    let mut world = WorldSpec::single(placement)
        .transport(transport)
        .ssds(ssds)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .build_dfs();
    paper_rate(&run_fio(&mut world, &paper_spec(rw, bs, JOBS, REGION)), bs)
}

/// (a) Host TCP reaches "~5–6 GiB/s (1 SSD)".
const HOST_TCP_READ: Claim =
    Claim::new("5a host TCP read, 1 SSD (GiB/s)", 5.0, 6.5).paper(5.0, 6.0);
/// (a) Host TCP reaches "~10 GiB/s (4 SSDs, link-capped)".
const HOST_TCP_READ_4SSD: Claim = Claim::new("5a host TCP read, 4 SSDs (GiB/s)", 9.5, 11.0);
/// (c) Host TCP delivers "0.4–0.6M" 4 KiB IOPS.
const HOST_TCP_4K: Claim =
    Claim::new("5c host TCP randwrite, 1 SSD (K IOPS)", 350.0, 620.0).paper(400.0, 600.0);

/// The host TCP claims.
pub fn host_tcp(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    vec![
        (&HOST_TCP_READ, cell((Tcp, Host, 1, RwMode::Read, MIB))),
        (&HOST_TCP_READ_4SSD, cell((Tcp, Host, 4, RwMode::Read, MIB))),
        (&HOST_TCP_4K, cell((Tcp, Host, 1, RwMode::RandWrite, 4096))),
    ]
}

/// (a) "1 MiB reads cap at ~1.6–3.1 GiB/s" on the DPU over TCP (the
/// receive-path bottleneck).
const DPU_TCP_READ: Claim = Claim::new("5a DPU TCP read, 1 SSD (GiB/s)", 1.4, 3.3).paper(1.6, 3.1);
/// (a) "while writes with four SSDs can still approach ~10 GiB/s" (good
/// TX, weak RX).
const DPU_TCP_WRITE_4SSD: Claim = Claim::at_least("5a DPU TCP write, 4 SSDs (GiB/s)", 9.0);
/// (c) "the DPU tops out near ~0.18–0.23M IOPS" at 4 KiB over TCP.
const DPU_TCP_4K: Claim =
    Claim::new("5c DPU TCP randwrite, 1 SSD (K IOPS)", 150.0, 280.0).paper(180.0, 230.0);

/// The offloaded TCP claims.
pub fn dpu_tcp(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    vec![
        (&DPU_TCP_READ, cell((Tcp, Dpu, 1, RwMode::Read, MIB))),
        (&DPU_TCP_WRITE_4SSD, cell((Tcp, Dpu, 4, RwMode::Write, MIB))),
        (&DPU_TCP_4K, cell((Tcp, Dpu, 1, RwMode::RandWrite, 4096))),
    ]
}

/// (b) "at 1 MiB, the DPU matches the host for both one- and four-SSD
/// setups" over RDMA: within 5 %, on 1 and on 4 SSDs.
const RDMA_PARITY: [Claim; 2] = [
    Claim::at_most("5b RDMA read, 1 SSD: DPU vs host, relative gap", 0.05),
    Claim::at_most("5b RDMA read, 4 SSDs: DPU vs host, relative gap", 0.05),
];
/// (b) The offloaded RDMA client reaches the 4-SSD link-capped plateau.
const RDMA_DPU_4SSD: Claim = Claim::new("5b DPU RDMA read, 4 SSDs (GiB/s)", 10.0, 11.5);

/// The RDMA 1 MiB claims: RDMA erases the offload penalty.
pub fn rdma_1m(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    let [one, four] =
        SSDS.map(|ssds| [Host, Dpu].map(|p| cell((Rdma, p, ssds, RwMode::Read, MIB))));
    vec![
        (&RDMA_PARITY[0], (one[0] - one[1]).abs() / one[0]),
        (&RDMA_PARITY[1], (four[0] - four[1]).abs() / four[0]),
        (&RDMA_DPU_4SSD, four[1]),
    ]
}

/// (d) RDMA on the DPU "still trails the CPU host by roughly 20–40%" at
/// 4 KiB.
const RDMA_4K_GAP: Claim =
    Claim::new("5d RDMA randwrite, 1 SSD: 1 − DPU / host", 0.15, 0.45).paper(0.2, 0.4);
/// (c)/(d) "RDMA on the DPU improves markedly over its TCP results (often
/// 2x or more)".
const RDMA_OVER_TCP_4K: Claim = Claim::at_least("5d/5c DPU randwrite, 1 SSD: RDMA / TCP", 2.0);

/// The 4 KiB random-write claims on the offloaded client.
pub fn rdma_4k(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    let [host, dpu, dpu_tcp] = [(Rdma, Host), (Rdma, Dpu), (Tcp, Dpu)]
        .map(|(t, p)| cell((t, p, 1, RwMode::RandWrite, 4096)));
    vec![
        (&RDMA_4K_GAP, 1.0 - dpu / host),
        (&RDMA_OVER_TCP_4K, dpu / dpu_tcp),
    ]
}

/// Every claim of the figure, valued on `cell` ([`cell`] itself or a
/// lookup into a finished sweep).
pub fn claims(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    [
        host_tcp(&cell),
        dpu_tcp(&cell),
        rdma_1m(&cell),
        rdma_4k(&cell),
    ]
    .concat()
}
