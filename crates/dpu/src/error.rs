//! DPU-runtime error types.

use ros2_ctl::ControlError;
use ros2_daos::DaosError;

/// Failures raised by the DPU-resident runtime (agent + offloaded client).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DpuError {
    /// The staging-DRAM budget cannot cover the reservation.
    DramExhausted {
        /// Bytes the caller asked for.
        requested: u64,
        /// Bytes still available in the budget.
        free: u64,
    },
    /// A client must have at least one job.
    NoJobs,
    /// The host↔DPU control channel rejected a call.
    Control(ControlError),
    /// The underlying data-plane client failed.
    Daos(DaosError),
}

impl std::fmt::Display for DpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpuError::DramExhausted { requested, free } => write!(
                f,
                "DPU staging DRAM exhausted: requested {requested} B, {free} B free"
            ),
            DpuError::NoJobs => write!(f, "a DPU client needs at least one job"),
            DpuError::Control(e) => write!(f, "host control channel: {e:?}"),
            DpuError::Daos(e) => write!(f, "data-plane client: {e:?}"),
        }
    }
}

impl std::error::Error for DpuError {}

impl From<DaosError> for DpuError {
    fn from(e: DaosError) -> Self {
        DpuError::Daos(e)
    }
}

impl From<ControlError> for DpuError {
    fn from(e: ControlError) -> Self {
        DpuError::Control(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = DpuError::DramExhausted {
            requested: 4096,
            free: 128,
        };
        let msg = e.to_string();
        assert!(msg.contains("4096"), "{msg}");
        assert!(msg.contains("128"), "{msg}");
    }
}
