//! The io_uring-like asynchronous local I/O engine.
//!
//! One [`Ring`] per FIO job models the submission/completion queue pair the
//! job owns. A request flows through four stages, exactly the Linux
//! `io_uring` + block-layer path the paper's Fig. 3 baselines exercise:
//!
//! 1. **job core** — submission syscall share + per-byte DMA mapping (this
//!    serializes per job, bounding per-job IOPS);
//! 2. **shared block layer** — a single serialized stage shared by *all*
//!    jobs and devices (~1.6 µs/op). This is the "software/host-path limit"
//!    that caps local 4 KiB IOPS near 600 K regardless of drive count;
//! 3. **the NVMe device** — channel occupancy + access latency;
//! 4. **job core again** — CQE reap.
//!
//! The engine also performs adjacency detection, passing a sequential hint
//! to the device (read-ahead / write-combining), which differentiates
//! sequential from random 4 KiB behaviour.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use ros2_hw::{per_byte, HostPathModel};
use ros2_nvme::{NvmeArray, NvmeCmd, NvmeError};
use ros2_sim::{ServerPool, SimTime};

/// One I/O request as a job issues it.
#[derive(Clone, Debug)]
pub struct IoRequest {
    /// Target device index within the array.
    pub dev: usize,
    /// Write (true) or read (false).
    pub write: bool,
    /// Starting LBA.
    pub slba: u64,
    /// Blocks.
    pub nlb: u32,
    /// Payload for writes.
    pub data: Option<Bytes>,
}

/// A completed request.
#[derive(Clone, Debug)]
pub struct IoCompletion {
    /// Instant the job observes completion (after CQE reap).
    pub at: SimTime,
    /// Read data.
    pub data: Option<Bytes>,
}

/// Submission failures.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IoUringError {
    /// The job's submission queue is full.
    SqFull,
    /// The device rejected the command.
    Nvme(NvmeError),
}

/// Per-job ring state.
#[derive(Debug)]
struct Ring {
    /// The job's core: submission and reap serialize here.
    core: ServerPool,
    /// Completion times of outstanding requests (SQ depth accounting).
    outstanding: BinaryHeap<Reverse<SimTime>>,
    /// `(device, next_lba)` of the previous request, for adjacency hints.
    last: Option<(usize, u64)>,
    submitted: u64,
    completed: u64,
}

/// The engine: one ring per job over a shared block layer and NVMe array.
#[derive(Debug)]
pub struct IoUringEngine {
    model: HostPathModel,
    /// The kernel block layer: one serialized server shared by all rings.
    shared: ServerPool,
    rings: Vec<Ring>,
    sq_depth: usize,
}

impl IoUringEngine {
    /// Creates an engine with `jobs` rings of `sq_depth` entries each.
    pub fn new(model: HostPathModel, jobs: usize, sq_depth: usize) -> Self {
        assert!(jobs > 0 && sq_depth > 0);
        IoUringEngine {
            model,
            shared: ServerPool::new(1),
            rings: (0..jobs)
                .map(|_| Ring {
                    core: ServerPool::new(1),
                    outstanding: BinaryHeap::new(),
                    last: None,
                    submitted: 0,
                    completed: 0,
                })
                .collect(),
            sq_depth,
        }
    }

    /// Number of rings (jobs).
    pub fn jobs(&self) -> usize {
        self.rings.len()
    }

    /// The host-path model in use.
    pub fn model(&self) -> &HostPathModel {
        &self.model
    }

    /// Outstanding requests on `job`'s ring at `now`.
    pub fn inflight(&mut self, job: usize, now: SimTime) -> usize {
        let ring = &mut self.rings[job];
        while let Some(&Reverse(t)) = ring.outstanding.peek() {
            if t <= now {
                ring.outstanding.pop();
                ring.completed += 1;
            } else {
                break;
            }
        }
        ring.outstanding.len()
    }

    /// Submits `req` on `job`'s ring against `array` at `now`.
    pub fn submit(
        &mut self,
        now: SimTime,
        job: usize,
        array: &mut NvmeArray,
        req: IoRequest,
    ) -> Result<IoCompletion, IoUringError> {
        if self.inflight(job, now) >= self.sq_depth {
            return Err(IoUringError::SqFull);
        }
        let bytes = req.nlb as u64 * ros2_hw::LBA_SIZE;

        // Stage 1: job core — submission + DMA mapping. The CQE-reap cost
        // of the *previous* completion is charged here too: charging it at
        // completion time would reserve the core in the future and block
        // earlier submissions (time-calculator ordering hazard); amortizing
        // it onto the next submission is equivalent in a closed loop.
        let ring = &mut self.rings[job];
        let submit_cost = self.model.per_op_job
            + self.model.per_op_reap
            + per_byte(bytes, self.model.ps_per_byte);
        let g_core = ring.core.submit(now, submit_cost);

        // Stage 2: shared kernel block layer.
        let g_shared = self.shared.submit(g_core.finish, self.model.per_op_shared);

        // Adjacency detection for the sequential hint.
        let sequential = ring.last == Some((req.dev, req.slba));
        ring.last = Some((req.dev, req.slba + req.nlb as u64));

        // Stage 3: the device.
        let mut cmd = if req.write {
            let data = req.data.clone().unwrap_or_else(|| {
                // Writes without payload are disallowed by the device; give
                // the device a correctly sized zero buffer only when the
                // caller runs descriptor-style workloads.
                Bytes::from(vec![0u8; bytes as usize])
            });
            NvmeCmd::write(req.slba, data)
        } else {
            NvmeCmd::read(req.slba, req.nlb)
        };
        cmd.sequential = sequential;
        let dev_done = array
            .submit(req.dev, g_shared.finish, cmd)
            .map_err(IoUringError::Nvme)?;

        // Stage 4: CQE reap latency (its CPU time is charged with the next
        // submission — see stage 1).
        let done_at = dev_done.at + self.model.per_op_reap;

        let ring = &mut self.rings[job];
        ring.outstanding.push(Reverse(done_at));
        ring.submitted += 1;

        Ok(IoCompletion {
            at: done_at,
            data: dev_done.data,
        })
    }

    /// `(submitted, completed)` counters for `job` (completed advances as
    /// `inflight` observes the clock).
    pub fn counters(&self, job: usize) -> (u64, u64) {
        (self.rings[job].submitted, self.rings[job].completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_hw::{NvmeModel, LBA_SIZE};
    use ros2_nvme::DataMode;

    fn setup(jobs: usize) -> (IoUringEngine, NvmeArray) {
        (
            IoUringEngine::new(HostPathModel::iouring(), jobs, 32),
            NvmeArray::new(NvmeModel::enterprise_1600(), 1, DataMode::Stored),
        )
    }

    fn read4k(slba: u64) -> IoRequest {
        IoRequest {
            dev: 0,
            write: false,
            slba,
            nlb: 1,
            data: None,
        }
    }

    #[test]
    fn data_round_trips_through_engine() {
        let (mut eng, mut array) = setup(1);
        let payload = Bytes::from(vec![0x5A; LBA_SIZE as usize]);
        let w = eng
            .submit(
                SimTime::ZERO,
                0,
                &mut array,
                IoRequest {
                    dev: 0,
                    write: true,
                    slba: 3,
                    nlb: 1,
                    data: Some(payload.clone()),
                },
            )
            .unwrap();
        let r = eng.submit(w.at, 0, &mut array, read4k(3)).unwrap();
        assert_eq!(r.data.unwrap(), payload);
    }

    #[test]
    fn latency_composes_all_stages() {
        let (mut eng, mut array) = setup(1);
        let c = eng.submit(SimTime::ZERO, 0, &mut array, read4k(0)).unwrap();
        let m = HostPathModel::iouring();
        let dev = NvmeModel::enterprise_1600();
        let expected = m.per_op_job
            + m.per_op_reap // previous completion's reap, amortized at submit
            + per_byte(LBA_SIZE, m.ps_per_byte)
            + m.per_op_shared
            + dev.occupancy(LBA_SIZE, false)
            + dev.access(false)
            + m.per_op_reap; // this completion's reap latency
        assert_eq!(c.at, SimTime::ZERO + expected);
        // The whole 4 KiB random-read path sits near 90 us, giving the
        // ~80-90 K IOPS at 1 job x QD8 seen in Fig. 3b.
        let us = expected.as_micros();
        assert!((85..95).contains(&us), "4k path {us}us");
    }

    #[test]
    fn sequential_hint_lowers_latency() {
        let (mut eng, mut array) = setup(1);
        let c1 = eng
            .submit(SimTime::ZERO, 0, &mut array, read4k(10))
            .unwrap();
        // Adjacent to the previous request: gets the read-ahead latency.
        let c2 = eng.submit(c1.at, 0, &mut array, read4k(11)).unwrap();
        // Non-adjacent: full random access latency.
        let c3 = eng.submit(c2.at, 0, &mut array, read4k(500)).unwrap();
        let lat2 = c2.at.saturating_since(c1.at);
        let lat3 = c3.at.saturating_since(c2.at);
        assert!(lat2 < lat3, "seq {lat2} !< rand {lat3}");
    }

    #[test]
    fn sq_depth_is_enforced() {
        let (mut eng, mut array) = setup(1);
        for i in 0..32 {
            eng.submit(SimTime::ZERO, 0, &mut array, read4k(i * 8))
                .unwrap();
        }
        assert_eq!(
            eng.submit(SimTime::ZERO, 0, &mut array, read4k(0))
                .unwrap_err(),
            IoUringError::SqFull
        );
        // Once completions drain the ring reopens.
        assert!(eng
            .submit(SimTime::from_secs(1), 0, &mut array, read4k(0))
            .is_ok());
    }

    #[test]
    fn shared_stage_serializes_across_jobs() {
        let (mut eng, mut array) = setup(4);
        let mut completions = Vec::new();
        for job in 0..4 {
            completions.push(
                eng.submit(SimTime::ZERO, job, &mut array, read4k(job as u64 * 100))
                    .unwrap(),
            );
        }
        // Four jobs submitted simultaneously; the shared stage spaces device
        // submissions by at least per_op_shared, so completions spread.
        let mut ats: Vec<_> = completions.iter().map(|c| c.at).collect();
        ats.sort();
        let m = HostPathModel::iouring();
        for pair in ats.windows(2) {
            assert!(
                pair[1].saturating_since(pair[0]) + ros2_sim::SimDuration::from_nanos(1)
                    >= m.per_op_shared
            );
        }
    }

    #[test]
    fn per_byte_cost_scales_with_block_size() {
        let (mut eng, mut array) = setup(2);
        let small = eng.submit(SimTime::ZERO, 0, &mut array, read4k(0)).unwrap();
        let big = eng
            .submit(
                SimTime::ZERO,
                1,
                &mut array,
                IoRequest {
                    dev: 0,
                    write: false,
                    slba: 1000,
                    nlb: 256, // 1 MiB
                    data: None,
                },
            )
            .unwrap();
        assert!(big.at > small.at);
    }

    #[test]
    fn counters_track_lifecycle() {
        let (mut eng, mut array) = setup(1);
        let c = eng.submit(SimTime::ZERO, 0, &mut array, read4k(0)).unwrap();
        assert_eq!(eng.counters(0), (1, 0));
        assert_eq!(eng.inflight(0, c.at), 0);
        assert_eq!(eng.counters(0), (1, 1));
    }
}
