//! The NVMe-over-Fabrics target and initiator (SPDK-style, user space,
//! polled), exercised by the paper's Fig. 4 remote benchmark.
//!
//! Wire behaviour follows the real protocol's data-flow shape:
//!
//! * **TCP**: command capsules and data travel inline over the socket
//!   (C2HData/H2CData PDUs) — every byte costs CPU on both ends.
//! * **RDMA**: capsules are small SENDs; READ data is *pushed* by the
//!   target with RDMA WRITE into client-registered memory, WRITE data is
//!   *pulled* by the target with RDMA READ — the client CPU never touches
//!   payload bytes.

use bytes::Bytes;
use ros2_fabric::{ConnId, Dir, Fabric, FabricError};
use ros2_hw::{CoreClass, Transport};
use ros2_nvme::NvmeError;
use ros2_sim::{ServerPool, SimDuration, SimTime};
use ros2_verbs::{AccessFlags, Expiry, MemAddr, MemoryDomain, NodeId, RKey, VerbsError};

use crate::bdev::BdevLayer;

/// NVMe-oF command opcodes (I/O queue subset).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NvmfOpcode {
    /// Read from a namespace.
    Read,
    /// Write to a namespace.
    Write,
}

/// Errors surfaced to the initiator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NvmfError {
    /// The fabric failed (includes verbs violations).
    Fabric(FabricError),
    /// The backing device failed.
    Nvme(NvmeError),
    /// The session's staging buffer is too small for the request.
    BufferTooSmall,
}

impl From<FabricError> for NvmfError {
    fn from(e: FabricError) -> Self {
        NvmfError::Fabric(e)
    }
}

/// One initiator↔target session (a qpair bound to one connection).
#[derive(Debug)]
pub struct NvmfSession {
    conn: ConnId,
    /// Client-side staging buffer (registered for RDMA transports).
    buf_addr: MemAddr,
    buf_len: u64,
    rkey: Option<RKey>,
    ops: u64,
}

impl NvmfSession {
    /// Operations issued on this session.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// The NVMe-oF target: polling reactors over a bdev layer.
#[derive(Debug)]
pub struct NvmfTarget {
    /// Reactor cores (the Fig. 4 "server cores" axis).
    reactors: ServerPool,
    /// Per-command target-side processing (polled, user space).
    per_cmd: SimDuration,
    class: CoreClass,
    commands: u64,
}

impl NvmfTarget {
    /// Creates a target with `cores` reactors on `class` silicon.
    pub fn new(cores: usize, class: CoreClass) -> Self {
        NvmfTarget {
            reactors: ServerPool::new(cores),
            per_cmd: SimDuration::from_nanos(900),
            class,
            commands: 0,
        }
    }

    /// Commands processed.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    fn process(&mut self, at: SimTime) -> SimTime {
        self.commands += 1;
        let cost = self.class.scale(self.per_cmd);
        self.reactors.submit(at, cost).finish
    }
}

/// The initiator: submission cores issuing commands over sessions.
#[derive(Debug)]
pub struct NvmfInitiator {
    /// Submission/completion cores (the Fig. 4 "client cores" axis).
    cores: ServerPool,
    per_submit: SimDuration,
    per_complete: SimDuration,
    class: CoreClass,
}

impl NvmfInitiator {
    /// Creates an initiator with `cores` polling cores on `class` silicon.
    pub fn new(cores: usize, class: CoreClass) -> Self {
        NvmfInitiator {
            cores: ServerPool::new(cores),
            per_submit: SimDuration::from_nanos(700),
            per_complete: SimDuration::from_nanos(500),
            class,
        }
    }
}

/// The assembled remote-storage stack: initiator node ↔ fabric ↔ target
/// node with its bdev layer. This is the Fig. 4 system under test.
pub struct NvmfStack {
    /// The shared fabric (owns both nodes' NICs and the switch pipes).
    pub fabric: Fabric,
    /// The initiator.
    pub initiator: NvmfInitiator,
    /// The target.
    pub target: NvmfTarget,
    /// The target's storage.
    pub bdevs: BdevLayer,
    client: NodeId,
    server: NodeId,
}

impl NvmfStack {
    /// Builds the stack. `client`/`server` identify nodes within `fabric`.
    pub fn new(
        fabric: Fabric,
        client: NodeId,
        server: NodeId,
        client_cores: usize,
        server_cores: usize,
        bdevs: BdevLayer,
    ) -> Self {
        let c_class = fabric.node(client).class();
        let s_class = fabric.node(server).class();
        NvmfStack {
            initiator: NvmfInitiator::new(client_cores, c_class),
            target: NvmfTarget::new(server_cores, s_class),
            fabric,
            bdevs,
            client,
            server,
        }
    }

    /// Opens a session (qpair) with a `buf_len`-byte client staging buffer.
    /// On RDMA the buffer is registered and its rkey conveyed to the target
    /// (the capability exchange the control plane performs in ROS2).
    pub fn open_session(&mut self, buf_len: u64) -> Result<NvmfSession, NvmfError> {
        let (pd_c, pd_s) = {
            let c = self.fabric.rdma_mut(self.client).alloc_pd("nvmf-host");
            let s = self.fabric.rdma_mut(self.server).alloc_pd("nvmf-tgt");
            (c, s)
        };
        let conn = self.fabric.connect(self.client, self.server, pd_c, pd_s)?;
        let buf_addr = self
            .fabric
            .rdma_mut(self.client)
            .alloc_buffer(buf_len, MemoryDomain::HostDram)
            .map_err(|e| NvmfError::Fabric(FabricError::Verbs(e)))?;
        let rkey = match self.fabric.transport() {
            Transport::Rdma => {
                let (_, rkey, _) = self
                    .fabric
                    .rdma_mut(self.client)
                    .reg_mr(
                        pd_c,
                        buf_addr,
                        buf_len,
                        AccessFlags::remote_rw(),
                        Expiry::Never,
                    )
                    .map_err(|e| NvmfError::Fabric(FabricError::Verbs(e)))?;
                Some(rkey)
            }
            Transport::Tcp => None,
        };
        Ok(NvmfSession {
            conn,
            buf_addr,
            buf_len,
            rkey,
            ops: 0,
        })
    }

    /// Issues a READ of `nlb` blocks at `slba` on bdev `bdev`; the data
    /// lands in the session's staging buffer. Returns the completion instant
    /// and the data.
    pub fn read(
        &mut self,
        now: SimTime,
        session: &mut NvmfSession,
        bdev: usize,
        slba: u64,
        nlb: u32,
    ) -> Result<(SimTime, Bytes), NvmfError> {
        let bytes = nlb as u64 * ros2_hw::LBA_SIZE;
        if bytes > session.buf_len {
            return Err(NvmfError::BufferTooSmall);
        }
        session.ops += 1;

        // Initiator submission (the completion-processing cost of the
        // previous op is amortized here; charging it at completion time
        // would reserve cores in the future and block earlier submissions).
        let sub = self.initiator.cores.submit(
            now,
            self.initiator
                .class
                .scale(self.initiator.per_submit + self.initiator.per_complete),
        );

        // Command capsule to the target (64 B).
        let capsule = self.fabric.send(
            sub.finish,
            session.conn,
            Dir::AtoB,
            Bytes::from(vec![0u8; 64]),
        )?;

        // Target reactor picks it up, drives the bdev.
        let picked = self.target.process(capsule.at);
        let media = self
            .bdevs
            .read(picked, bdev, slba, nlb)
            .map_err(NvmfError::Nvme)?;
        let data = media.data.expect("read returns data");

        // Data return.
        let (done_at, data) = match self.fabric.transport() {
            Transport::Rdma => {
                // Target pushes with RDMA WRITE into client memory, then a
                // tiny completion SEND.
                let rkey = session.rkey.expect("rdma session has rkey");
                let push = self.fabric.rdma_write(
                    media.at,
                    session.conn,
                    Dir::BtoA,
                    rkey,
                    session.buf_addr,
                    data,
                )?;
                let cqe = self.fabric.send(
                    push.at,
                    session.conn,
                    Dir::BtoA,
                    Bytes::from(vec![0u8; 16]),
                )?;
                let landed = self
                    .fabric
                    .rdma_mut(self.client)
                    .read_local(session.buf_addr, bytes as usize)
                    .map_err(|e| NvmfError::Fabric(FabricError::Verbs(e)))?;
                (cqe.at, landed)
            }
            Transport::Tcp => {
                // C2HData PDU carries the payload inline.
                let pdu = self.fabric.send(media.at, session.conn, Dir::BtoA, data)?;
                (pdu.at, pdu.data.expect("tcp pdu carries data"))
            }
        };

        // Initiator completion latency (CPU charged at next submission).
        let done = done_at + self.initiator.class.scale(self.initiator.per_complete);
        Ok((done, data))
    }

    /// Issues a WRITE of `data` at `slba` on bdev `bdev`.
    pub fn write(
        &mut self,
        now: SimTime,
        session: &mut NvmfSession,
        bdev: usize,
        slba: u64,
        data: Bytes,
    ) -> Result<SimTime, NvmfError> {
        let bytes = data.len() as u64;
        if bytes > session.buf_len {
            return Err(NvmfError::BufferTooSmall);
        }
        session.ops += 1;

        let sub = self.initiator.cores.submit(
            now,
            self.initiator
                .class
                .scale(self.initiator.per_submit + self.initiator.per_complete),
        );

        let arrival = match self.fabric.transport() {
            Transport::Rdma => {
                // Stage into client memory; capsule announces it; target
                // pulls with RDMA READ. The pull is initiated target-side
                // but the client CPU stays out of the byte path.
                let rkey = session.rkey.expect("rdma session has rkey");
                self.fabric
                    .rdma_mut(self.client)
                    .write_local(session.buf_addr, &data)
                    .map_err(|e| NvmfError::Fabric(FabricError::Verbs(e)))?;
                let capsule = self.fabric.send(
                    sub.finish,
                    session.conn,
                    Dir::AtoB,
                    Bytes::from(vec![0u8; 64]),
                )?;
                let picked = self.target.process(capsule.at);
                let pull = self.fabric.rdma_read(
                    picked,
                    session.conn,
                    Dir::BtoA,
                    rkey,
                    session.buf_addr,
                    bytes,
                )?;
                pull.at
            }
            Transport::Tcp => {
                // H2CData: capsule + inline payload.
                let pdu = self
                    .fabric
                    .send(sub.finish, session.conn, Dir::AtoB, data.clone())?;
                self.target.process(pdu.at)
            }
        };

        // Media write, then completion back to the client.
        let media = self
            .bdevs
            .write(arrival, bdev, slba, data)
            .map_err(NvmfError::Nvme)?;
        let cqe = self.fabric.send(
            media.at,
            session.conn,
            Dir::BtoA,
            Bytes::from(vec![0u8; 16]),
        )?;
        let done = cqe.at + self.initiator.class.scale(self.initiator.per_complete);
        Ok(done)
    }

    /// The client node id.
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// The server node id.
    pub fn server(&self) -> NodeId {
        self.server
    }
}

/// Re-export for error matching convenience.
pub type VerbsResult<T> = Result<T, VerbsError>;

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_fabric::NodeSpec;
    use ros2_hw::{gbps, CpuComplement, NicModel, NvmeModel};
    use ros2_nvme::{DataMode, NvmeArray};

    fn stack(transport: Transport, ccores: usize, scores: usize) -> NvmfStack {
        let spec = |name: &str, cores: usize| NodeSpec {
            name: name.into(),
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores,
            },
            nic: NicModel::connectx6(),
            port_rate: gbps(100),
            mem_budget: 1 << 30,
            dpu_tcp_rx: None,
        };
        let fabric = Fabric::new(
            transport,
            vec![spec("client", ccores), spec("server", scores)],
            11,
        );
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            1,
            DataMode::Stored,
        ));
        NvmfStack::new(fabric, NodeId(0), NodeId(1), ccores, scores, bdevs)
    }

    #[test]
    fn tcp_write_read_round_trip() {
        let mut s = stack(Transport::Tcp, 4, 4);
        let mut sess = s.open_session(1 << 20).unwrap();
        let data = Bytes::from(vec![0xCD; 8192]);
        let done = s
            .write(SimTime::ZERO, &mut sess, 0, 100, data.clone())
            .unwrap();
        let (_, back) = s.read(done, &mut sess, 0, 100, 2).unwrap();
        assert_eq!(back, data);
        assert_eq!(sess.ops(), 2);
    }

    #[test]
    fn rdma_write_read_round_trip() {
        let mut s = stack(Transport::Rdma, 4, 4);
        let mut sess = s.open_session(1 << 20).unwrap();
        let data = Bytes::from(vec![0xEF; 4096]);
        let done = s
            .write(SimTime::ZERO, &mut sess, 0, 7, data.clone())
            .unwrap();
        let (_, back) = s.read(done, &mut sess, 0, 7, 1).unwrap();
        assert_eq!(back, data);
        assert_eq!(s.target.commands(), 2);
    }

    #[test]
    fn rdma_beats_tcp_on_small_reads() {
        let mut tcp = stack(Transport::Tcp, 4, 4);
        let mut rdma = stack(Transport::Rdma, 4, 4);
        let mut st = tcp.open_session(1 << 20).unwrap();
        let mut sr = rdma.open_session(1 << 20).unwrap();
        let (t_tcp, _) = tcp.read(SimTime::ZERO, &mut st, 0, 0, 1).unwrap();
        let (t_rdma, _) = rdma.read(SimTime::ZERO, &mut sr, 0, 0, 1).unwrap();
        assert!(t_rdma < t_tcp, "rdma {t_rdma:?} !< tcp {t_tcp:?}");
    }

    #[test]
    fn buffer_too_small_is_rejected() {
        let mut s = stack(Transport::Tcp, 1, 1);
        let mut sess = s.open_session(4096).unwrap();
        assert_eq!(
            s.read(SimTime::ZERO, &mut sess, 0, 0, 2).unwrap_err(),
            NvmfError::BufferTooSmall
        );
    }

    #[test]
    fn out_of_range_propagates_nvme_error() {
        let mut s = stack(Transport::Tcp, 1, 1);
        let mut sess = s.open_session(1 << 20).unwrap();
        let last = 1600 * 1000 * 1000 * 1000 / ros2_hw::LBA_SIZE;
        match s.read(SimTime::ZERO, &mut sess, 0, last, 1).unwrap_err() {
            NvmfError::Nvme(NvmeError::OutOfRange) => {}
            e => panic!("unexpected {e:?}"),
        }
    }
}
