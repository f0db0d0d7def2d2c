//! # ros2-core — the ROS2 system
//!
//! The paper's primary contribution, assembled: an RDMA-first,
//! POSIX-compatible object storage deployment whose DAOS client runs on an
//! NVIDIA BlueField-3 SmartNIC, with a lightweight gRPC control plane
//! (session, namespace, capability exchange) split from a UCX/libfabric
//! data plane over TCP or RDMA, and the DAOS I/O engine unchanged on the
//! storage server.
//!
//! ## Quickstart
//!
//! ```
//! use bytes::Bytes;
//! use ros2_core::{Ros2Config, Ros2System};
//!
//! let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
//! sys.mkdir("/data").unwrap();
//! let mut file = sys.create("/data/hello.bin").unwrap().value;
//! sys.write(&mut file, 0, Bytes::from_static(b"rdma-first")).unwrap();
//! let read = sys.read(&file, 0, 10).unwrap();
//! assert_eq!(&read.value[..], b"rdma-first");
//! ```

#![warn(missing_docs)]

pub mod assembly;
pub mod fault;
pub mod system;

pub use assembly::{connect_client, fabric_and_cluster, ClientSetup, ClientStack};
pub use fault::{EngineStall, FaultCursor, FaultPlan, ScheduledCorruption, ScheduledKill};
pub use system::{
    ClusterConfig, Ros2Config, Ros2Error, Ros2System, SystemMetrics, Timed, CLIENT_NODE,
    STORAGE_NODE,
};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ros2_hw::{ClientPlacement, Transport};
    use ros2_verbs::MemoryDomain;

    #[test]
    fn launch_performs_control_handshake() {
        let sys = Ros2System::launch(Ros2Config::default()).unwrap();
        // Hello + PoolConnect + ContOpen + DfsMount = 4 control calls, and
        // the handshake consumed real control-plane time.
        assert_eq!(sys.metrics().control_calls, 4);
        assert!(sys.now() > ros2_sim::SimTime::ZERO);
    }

    #[test]
    fn file_round_trip_on_every_deployment() {
        for transport in [Transport::Tcp, Transport::Rdma] {
            for placement in [ClientPlacement::Host, ClientPlacement::Dpu] {
                let mut sys = Ros2System::launch(Ros2Config {
                    transport,
                    placement,
                    ..Ros2Config::default()
                })
                .unwrap();
                let mut f = sys.create("/ckpt.bin").unwrap().value;
                let data = Bytes::from(vec![0xA5; 3 << 20]);
                sys.write(&mut f, 0, data.clone()).unwrap();
                let back = sys.read(&f, 0, 3 << 20).unwrap().value;
                assert_eq!(back, data, "{transport:?}/{placement:?}");
            }
        }
    }

    #[test]
    fn namespace_operations_work() {
        let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
        sys.mkdir("/models").unwrap();
        sys.create("/models/a").unwrap();
        sys.create("/models/b").unwrap();
        let names = sys.readdir("/models").unwrap().value;
        assert_eq!(names, vec!["a", "b"]);
        let st = sys.stat("/models/a").unwrap().value;
        assert_eq!(st.size, 0);
        sys.unlink("/models/a").unwrap();
        assert_eq!(sys.readdir("/models").unwrap().value, vec!["b"]);
    }

    #[test]
    fn clock_advances_and_latencies_are_positive() {
        let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
        let t0 = sys.now();
        let mut f = sys.create("/f").unwrap().value;
        let w = sys
            .write(&mut f, 0, Bytes::from(vec![1u8; 1 << 20]))
            .unwrap();
        assert!(w.latency > ros2_sim::SimDuration::ZERO);
        assert!(sys.now() > t0);
    }

    #[test]
    fn gpu_direct_requires_rdma() {
        let err = Ros2System::launch(Ros2Config {
            transport: Transport::Tcp,
            buffer_domain: MemoryDomain::GpuHbm,
            ..Ros2Config::default()
        });
        assert!(matches!(err, Err(Ros2Error::Config(_))));
        // And works on RDMA.
        let sys = Ros2System::launch(Ros2Config {
            transport: Transport::Rdma,
            buffer_domain: MemoryDomain::GpuHbm,
            ..Ros2Config::default()
        });
        assert!(sys.is_ok());
    }

    #[test]
    fn inline_crypto_counts_bytes() {
        let mut sys = Ros2System::launch(Ros2Config {
            inline_service: ros2_dpu::InlineService::Crypto,
            ..Ros2Config::default()
        })
        .unwrap();
        let mut f = sys.create("/enc").unwrap().value;
        sys.write(&mut f, 0, Bytes::from(vec![7u8; 1 << 20]))
            .unwrap();
        sys.read(&f, 0, 1 << 20).unwrap();
        assert!(sys.metrics().inline_bytes >= 2 << 20);
    }

    #[test]
    fn qos_throttles_a_limited_tenant() {
        let mut sys = Ros2System::launch(Ros2Config {
            qos: ros2_dpu::QosLimits {
                ops_per_sec: 100,
                bytes_per_sec: 10 << 20,
                burst: (2, 1 << 20),
            },
            ..Ros2Config::default()
        })
        .unwrap();
        let mut f = sys.create("/throttled").unwrap().value;
        for i in 0..8 {
            sys.write(&mut f, i * 4096, Bytes::from(vec![0u8; 4096]))
                .unwrap();
        }
        let t = sys.tenants().tenant(&sys.config.tenant).unwrap();
        assert!(t.qos.throttled > 0, "rate limiter must have engaged");
    }

    #[test]
    fn split_paths() {
        let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
        assert!(sys.create("no-slash").is_err());
        assert!(sys.mkdir("/a").is_ok());
        assert!(sys.mkdir("/a/b").is_ok());
        assert!(sys.create("/a/b/c").is_ok());
        assert!(sys.open("/a/b/c").is_ok());
    }
}
