//! Per-tenant isolation on the DPU: dedicated protection domains, scoped
//! rkeys, and QoS rate limits — the "DPU-resident features such as
//! multi-tenant isolation" the paper's abstract motivates (§2.3, §5:
//! "dedicated QPs/PDs, per-tenant queues and rate limits").

use std::collections::HashMap;

use ros2_fabric::Fabric;
use ros2_sim::{QosLane, SimDuration, SimTime, Timed, Visit};
use ros2_verbs::{Expiry, NodeId, PdId};

// The bucket-pair admission mechanism was born here (PR 4) and now lives
// in the simulation kernel so background services pace through the same
// proven lane; re-exported to keep `ros2_dpu::QosLimits` paths working.
pub use ros2_sim::QosLimits;

/// One tenant's state on the DPU.
#[derive(Debug)]
pub struct TenantCtx {
    /// The tenant's protection domain on the DPU NIC.
    pub pd: PdId,
    /// The tenant's paced admission lane (buckets + counters).
    pub qos: QosLane,
    /// Default rkey validity window for this tenant's registrations.
    pub rkey_scope: SimDuration,
}

impl TenantCtx {
    fn fresh(pd: PdId, limits: QosLimits, rkey_scope: SimDuration) -> Self {
        TenantCtx {
            pd,
            qos: QosLane::new(limits),
            rkey_scope,
        }
    }
}

/// The DPU's tenant manager.
#[derive(Debug)]
pub struct TenantManager {
    node: NodeId,
    tenants: HashMap<String, TenantCtx>,
}

impl TenantManager {
    /// Creates a manager for the DPU at `node`.
    pub fn new(node: NodeId) -> Self {
        TenantManager {
            node,
            tenants: HashMap::new(),
        }
    }

    /// The DPU node this manager controls.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers a tenant: allocates its PD and installs its QoS buckets.
    /// `rkey_scope` bounds the lifetime of rkeys issued for its buffers.
    pub fn register(
        &mut self,
        fabric: &mut Fabric,
        tenant: impl Into<String>,
        limits: QosLimits,
        rkey_scope: SimDuration,
    ) -> PdId {
        let tenant = tenant.into();
        let pd = fabric.rdma_mut(self.node).alloc_pd(tenant.clone());
        self.tenants
            .insert(tenant, TenantCtx::fresh(pd, limits, rkey_scope));
        pd
    }

    /// Admits one I/O of `bytes` for `tenant`, returning the instant it may
    /// proceed (later than `now` when rate-limited).
    pub fn admit(&mut self, now: SimTime, tenant: &str, bytes: u64) -> Option<SimTime> {
        let ctx = self.tenants.get_mut(tenant)?;
        Some(ctx.qos.admit(now, bytes))
    }

    /// The expiry to stamp on a new registration for `tenant` at `now`.
    pub fn rkey_expiry(&self, now: SimTime, tenant: &str) -> Option<Expiry> {
        let ctx = self.tenants.get(tenant)?;
        Some(Expiry::At(now + ctx.rkey_scope))
    }

    /// The tenant's context.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantCtx> {
        self.tenants.get(tenant)
    }

    /// Number of registered tenants.
    pub fn count(&self) -> usize {
        self.tenants.len()
    }
}

impl Timed for TenantManager {
    /// Every tenant's admission lane (a reset rebuilds its buckets full at
    /// t=0 and zeroes its counters; PDs and rkey scopes are untouched).
    fn visit(&mut self, v: &mut dyn Visit) {
        self.tenants
            .values_mut()
            .for_each(|ctx| v.lane(&mut ctx.qos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_fabric::NodeSpec;
    use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, Transport};

    fn fabric() -> Fabric {
        Fabric::new(
            Transport::Rdma,
            vec![NodeSpec {
                name: "dpu".into(),
                cpu: CpuComplement {
                    class: CoreClass::DpuArm,
                    cores: 16,
                },
                nic: NicModel::connectx7(),
                port_rate: gbps(100),
                mem_budget: 1 << 30,
                dpu_tcp_rx: None,
            }],
            3,
        )
    }

    #[test]
    fn tenants_get_distinct_pds() {
        let mut f = fabric();
        let mut tm = TenantManager::new(NodeId(0));
        let a = tm.register(
            &mut f,
            "a",
            QosLimits::unlimited(),
            SimDuration::from_secs(5),
        );
        let b = tm.register(
            &mut f,
            "b",
            QosLimits::unlimited(),
            SimDuration::from_secs(5),
        );
        assert_ne!(a, b);
        assert_eq!(tm.count(), 2);
        assert_eq!(f.node(NodeId(0)).rdma.pd_tenant(a), Some("a"));
    }

    #[test]
    fn rate_limit_delays_excess_ops() {
        let mut f = fabric();
        let mut tm = TenantManager::new(NodeId(0));
        tm.register(
            &mut f,
            "limited",
            QosLimits {
                ops_per_sec: 1000,
                bytes_per_sec: 1 << 30,
                burst: (10, 1 << 20),
            },
            SimDuration::from_secs(5),
        );
        // Burst of 10 admitted instantly, the 11th waits ~1 ms.
        let mut grant = SimTime::ZERO;
        for _ in 0..11 {
            grant = tm.admit(SimTime::ZERO, "limited", 4096).unwrap();
        }
        assert!(grant >= SimTime::from_micros(900), "grant {grant}");
        assert_eq!(tm.tenant("limited").unwrap().qos.throttled, 1);
        assert_eq!(tm.tenant("limited").unwrap().qos.admitted.0, 11);
    }

    #[test]
    fn byte_limit_binds_for_large_io() {
        let mut f = fabric();
        let mut tm = TenantManager::new(NodeId(0));
        tm.register(
            &mut f,
            "bw",
            QosLimits {
                ops_per_sec: 1_000_000,
                bytes_per_sec: 1 << 20, // 1 MiB/s
                burst: (1 << 20, 1 << 20),
            },
            SimDuration::from_secs(5),
        );
        tm.admit(SimTime::ZERO, "bw", 1 << 20).unwrap(); // burst
        let g = tm.admit(SimTime::ZERO, "bw", 1 << 20).unwrap();
        assert!(g >= SimTime::from_millis(900), "grant {g}");
    }

    #[test]
    fn unknown_tenant_rejected() {
        let mut tm = TenantManager::new(NodeId(0));
        assert!(tm.admit(SimTime::ZERO, "ghost", 1).is_none());
        assert!(tm.rkey_expiry(SimTime::ZERO, "ghost").is_none());
    }

    #[test]
    fn rkey_scope_produces_expiring_registrations() {
        let mut f = fabric();
        let mut tm = TenantManager::new(NodeId(0));
        tm.register(
            &mut f,
            "t",
            QosLimits::unlimited(),
            SimDuration::from_millis(100),
        );
        let e = tm.rkey_expiry(SimTime::from_secs(1), "t").unwrap();
        assert_eq!(
            e,
            Expiry::At(SimTime::from_secs(1) + SimDuration::from_millis(100))
        );
    }
}
