//! Fig. 4 (`fig4_remote_spdk`): remote SPDK NVMe-oF over client × server
//! core counts, one exported SSD, TCP vs RDMA — 1 MiB throughput (a, b)
//! and 4 KiB IOPS (c, d).

use ros2_hw::Transport;
use ros2_nvme::DataMode;

use super::{paper_rate, paper_spec, Check, Claim};
use crate::{run_fio, RwMode, SpdkFioWorld};

/// The client-core and server-core axes.
pub const CORES: [usize; 5] = [1, 2, 4, 8, 16];
/// Bytes of each job's LBA region.
const REGION: u64 = 1 << 30;

/// A cell: (transport, access pattern, block size, client cores, server
/// cores).
pub type Point = (Transport, RwMode, u64, usize, usize);

/// One cell, one job per client core at QD 32: GiB/s at 1 MiB, K IOPS at
/// 4 KiB.
pub fn cell((transport, rw, bs, client_cores, server_cores): Point) -> f64 {
    let jobs = client_cores;
    let mut world = SpdkFioWorld::new(
        transport,
        client_cores,
        server_cores,
        jobs,
        REGION,
        DataMode::Null,
    );
    let spec = paper_spec(rw, bs, jobs, REGION).iodepth(32);
    paper_rate(&run_fio(&mut world, &spec), bs)
}

/// "The similarity between TCP and RDMA at 1 MiB indicates a media/network
/// ceiling with one SSD": at 4×4 cores the transports differ by under 10 %.
const TRANSPORT_AGNOSTIC: Claim =
    Claim::at_most("4a/4b read, 4×4 cores: TCP vs RDMA, relative gap", 0.1);
/// That 1 MiB ceiling is the single SSD's media rate.
const MEDIA_CEILING: Claim = Claim::new("4b RDMA read, 4×4 cores (GiB/s)", 5.0, 6.2);

/// The 1 MiB claims.
pub fn large_blocks(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    let [tcp, rdma] =
        [Transport::Tcp, Transport::Rdma].map(|t| cell((t, RwMode::Read, 1 << 20, 4, 4)));
    vec![
        (&TRANSPORT_AGNOSTIC, (tcp - rdma).abs() / rdma),
        (&MEDIA_CEILING, rdma),
    ]
}

/// (c)/(d) "RDMA delivers substantially higher IOPS": over 2.5× TCP at
/// 16×16 cores.
const RDMA_DOMINATES: Claim = Claim::at_least("4d/4c randread, 16×16 cores: RDMA / TCP", 2.5);
/// (d) RDMA "keeps scaling with cores": over 2.5× from 1×1 to 16×16.
const RDMA_SCALES: Claim = Claim::at_least("4d RDMA randread: 16×16 / 1×1 cores", 2.5);
/// (c) "TCP shows limited benefit from additional client/server cores":
/// under 2.5× from 1×1 to 16×16.
const TCP_LIMITED: Claim = Claim::at_most("4c TCP randread: 16×16 / 1×1 cores", 2.5);
/// RDMA wins at every core count, one core included.
const RDMA_WINS_AT_ONE_CORE: Claim = Claim::at_least("4d/4c randread, 1×1 cores: RDMA / TCP", 1.0);

/// The 4 KiB random-read claims.
pub fn small_blocks(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    let [tcp, rdma] = [Transport::Tcp, Transport::Rdma]
        .map(|t| [1, 16].map(|cores| cell((t, RwMode::RandRead, 4096, cores, cores))));
    vec![
        (&RDMA_DOMINATES, rdma[1] / tcp[1]),
        (&RDMA_SCALES, rdma[1] / rdma[0]),
        (&TCP_LIMITED, tcp[1] / tcp[0]),
        (&RDMA_WINS_AT_ONE_CORE, rdma[0] / tcp[0]),
    ]
}

/// Every claim of the figure, valued on `cell` ([`cell`] itself or a
/// lookup into a finished sweep).
pub fn claims(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    [large_blocks(&cell), small_blocks(&cell)].concat()
}
