//! The DPU-resident agent: the piece of ROS2 that actually lives on the
//! BlueField-3.
//!
//! The agent terminates the host's control channel (§3.2 "Host ↔ DPU: gRPC
//! control channel; no payload bytes traverse the host kernel in the fast
//! path"), manages the DPU DRAM staging-buffer pool where all data-plane
//! payloads land, and can interpose inline services — the crypto engine —
//! on the byte path without host involvement.

use ros2_ctl::{ControlChannel, ControlModel, ControlRequest, ControlResponse};
use ros2_hw::inline_crypto_cost;
use ros2_sim::{Counter, SimDuration, SimTime};
use ros2_verbs::NodeId;

use crate::error::DpuError;

/// Inline services the agent can interpose on payloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InlineService {
    /// Pass-through.
    None,
    /// AES-GCM on the DPU's crypto engine (encrypt on write, decrypt on
    /// read) — keys never leave the DPU.
    Crypto,
}

/// The BlueField-3 agent state.
pub struct DpuAgent {
    node: NodeId,
    /// Host-facing control channel (the only host↔DPU interface).
    pub control: ControlChannel,
    dram_budget: u64,
    dram_used: u64,
    /// Slice of `dram_used` carved out for the read cache (the rest is
    /// staging). One knob splits one physical pool — cache capacity always
    /// trades directly against staging headroom.
    cache_reserved: u64,
    service: InlineService,
    /// Payload bytes passed through inline services.
    pub serviced_bytes: Counter,
    /// Control calls forwarded for the host.
    pub control_calls: Counter,
    /// DRAM releases that exceeded the outstanding reservation (a
    /// double-free-style accounting bug in the caller; the pool saturates
    /// at zero rather than underflowing).
    pub over_releases: Counter,
}

impl DpuAgent {
    /// Creates an agent on the DPU at `node` with `dram_budget` bytes of
    /// staging DRAM (30 GiB on BlueField-3).
    pub fn new(node: NodeId, dram_budget: u64, control: ControlChannel) -> Self {
        DpuAgent {
            node,
            control,
            dram_budget,
            dram_used: 0,
            cache_reserved: 0,
            service: InlineService::None,
            serviced_bytes: Counter::new(),
            control_calls: Counter::new(),
            over_releases: Counter::new(),
        }
    }

    /// The DPU node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Selects the inline service applied to data-plane payloads.
    pub fn set_inline_service(&mut self, service: InlineService) {
        self.service = service;
    }

    /// The active inline service.
    pub fn inline_service(&self) -> InlineService {
        self.service
    }

    /// Reserves staging DRAM; fails with the shortfall context when the
    /// 30 GiB budget is exhausted.
    pub fn reserve_dram(&mut self, bytes: u64) -> Result<(), DpuError> {
        let free = self.dram_budget - self.dram_used;
        if bytes > free {
            return Err(DpuError::DramExhausted {
                requested: bytes,
                free,
            });
        }
        self.dram_used += bytes;
        Ok(())
    }

    /// Releases staging DRAM. Releasing more than is reserved saturates to
    /// an empty pool (and counts the mismatch) instead of underflowing.
    fn release_dram(&mut self, bytes: u64) {
        if bytes > self.dram_used {
            self.over_releases.inc();
        }
        self.dram_used = self.dram_used.saturating_sub(bytes);
    }

    /// Carves `bytes` of the DRAM pool out for the read cache — the
    /// staging/cache split knob. Fails like [`Self::reserve_dram`] when
    /// the budget cannot cover it; the carve shrinks staging headroom
    /// one-for-one.
    pub fn reserve_cache(&mut self, bytes: u64) -> Result<(), DpuError> {
        self.reserve_dram(bytes)?;
        self.cache_reserved += bytes;
        Ok(())
    }

    /// Returns the whole cache carve to the staging pool; reports how many
    /// bytes were released.
    pub fn release_cache(&mut self) -> u64 {
        let bytes = self.cache_reserved;
        self.cache_reserved = 0;
        self.release_dram(bytes);
        bytes
    }

    /// DRAM in use (staging reservations plus the cache carve).
    pub fn dram_used(&self) -> u64 {
        self.dram_used
    }

    /// The slice of [`Self::dram_used`] held by the read cache.
    pub fn cache_reserved(&self) -> u64 {
        self.cache_reserved
    }

    /// The slice of [`Self::dram_used`] held by staging buffers.
    pub fn staging_used(&self) -> u64 {
        self.dram_used - self.cache_reserved
    }

    /// The additional latency the inline service adds to `bytes` of
    /// payload (zero when pass-through). The crypto engine is fixed-
    /// function hardware, so this does not consume ARM cores.
    pub fn inline_cost(&mut self, bytes: u64) -> SimDuration {
        match self.service {
            InlineService::None => SimDuration::ZERO,
            InlineService::Crypto => {
                self.serviced_bytes.add(bytes);
                inline_crypto_cost(bytes)
            }
        }
    }

    /// Forwards a host control call through the agent, returning the
    /// completion instant and the response.
    pub fn host_call<F>(
        &mut self,
        now: SimTime,
        session: Option<u64>,
        req: ControlRequest,
        handler: F,
    ) -> (
        SimTime,
        Result<(u64, ControlResponse), ros2_ctl::ControlError>,
    )
    where
        F: FnOnce(&str, &ControlRequest) -> ControlResponse,
    {
        self.control_calls.inc();
        self.control.call(now, session, req, handler)
    }
}

/// A default gRPC-class control channel for host↔DPU traffic.
pub fn default_control(seed: u64) -> ControlChannel {
    ControlChannel::new(ControlModel::grpc_default(), ros2_sim::SimRng::new(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn agent() -> DpuAgent {
        let mut ctl = default_control(9);
        ctl.add_tenant("llm", Bytes::from_static(b"digest"));
        DpuAgent::new(NodeId(1), 30 << 30, ctl)
    }

    #[test]
    fn dram_budget_enforced() {
        let mut a = agent();
        a.reserve_dram(20 << 30).unwrap();
        assert_eq!(
            a.reserve_dram(20 << 30).unwrap_err(),
            DpuError::DramExhausted {
                requested: 20 << 30,
                free: 10 << 30,
            }
        );
        a.release_dram(15 << 30);
        assert!(a.reserve_dram(20 << 30).is_ok());
        assert_eq!(a.dram_used(), 25 << 30);
    }

    #[test]
    fn over_release_saturates_and_is_counted() {
        let mut a = agent();
        a.reserve_dram(1 << 20).unwrap();
        a.release_dram(2 << 20);
        assert_eq!(a.dram_used(), 0, "pool saturates at empty");
        assert_eq!(a.over_releases.get(), 1);
        // The full budget is usable again afterwards.
        assert!(a.reserve_dram(30 << 30).is_ok());
    }

    #[test]
    fn cache_carve_trades_against_staging() {
        let mut a = agent();
        a.reserve_dram(10 << 30).unwrap();
        a.reserve_cache(4 << 30).unwrap();
        assert_eq!(a.dram_used(), 14 << 30);
        assert_eq!(a.cache_reserved(), 4 << 30);
        assert_eq!(a.staging_used(), 10 << 30);
        // The carve shrinks staging headroom one-for-one.
        assert!(a.reserve_dram(17 << 30).is_err());
        assert_eq!(a.release_cache(), 4 << 30);
        assert_eq!(a.cache_reserved(), 0);
        assert!(a.reserve_dram(17 << 30).is_ok());
        assert_eq!(a.over_releases.get(), 0, "carve and release balance");
    }

    #[test]
    fn inline_crypto_costs_scale_with_bytes() {
        let mut a = agent();
        assert_eq!(a.inline_cost(1 << 20), SimDuration::ZERO);
        a.set_inline_service(InlineService::Crypto);
        let small = a.inline_cost(4096);
        let big = a.inline_cost(1 << 20);
        assert!(big > small);
        assert_eq!(a.serviced_bytes.get(), 4096 + (1 << 20));
        assert_eq!(a.inline_service(), InlineService::Crypto);
    }

    #[test]
    fn host_calls_route_through_control_channel() {
        let mut a = agent();
        let hello = ControlRequest::Hello {
            tenant: "llm".into(),
            auth: Bytes::from_static(b"digest"),
        };
        let (at, res) = a.host_call(SimTime::ZERO, None, hello, |_, _| ControlResponse::Ok);
        assert!(res.is_ok());
        assert!(at >= SimTime::from_micros(150), "gRPC-class latency");
        assert_eq!(a.control_calls.get(), 1);
    }
}
