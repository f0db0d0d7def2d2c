//! A simulated NVMe SSD: functional contents plus the calibrated timing
//! model from [`ros2_hw::NvmeModel`].
//!
//! Commands are submitted with the current instant and return the completion
//! time immediately (the time-calculator idiom — see `ros2-sim`). The device
//! enforces its queue-depth limit, addresses in 4 KiB LBAs, and tracks
//! statistics, which a [`Timed::reset_timing`] keeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use ros2_hw::{NvmeModel, LBA_SIZE};
use ros2_sim::{ServerPool, SimDuration, SimTime, Timed, Visit};

use crate::backing::Backing;

/// NVMe command opcodes (the subset the I/O path uses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NvmeOpcode {
    /// Read `nlb` blocks from `slba`.
    Read,
    /// Write the attached payload at `slba`.
    Write,
    /// Flush volatile state (modelled as a fixed-latency barrier).
    Flush,
}

/// One NVMe command.
#[derive(Clone, Debug)]
pub struct NvmeCmd {
    /// Operation.
    pub opcode: NvmeOpcode,
    /// Starting LBA.
    pub slba: u64,
    /// Number of logical blocks.
    pub nlb: u32,
    /// Payload for writes (`nlb * LBA_SIZE` bytes).
    pub data: Option<Bytes>,
    /// Sequential-access hint (set by submitters that detect adjacency);
    /// grants the controller's read-ahead / write-combining latency.
    pub sequential: bool,
}

impl NvmeCmd {
    /// A read of `nlb` blocks at `slba`.
    pub fn read(slba: u64, nlb: u32) -> Self {
        NvmeCmd {
            opcode: NvmeOpcode::Read,
            slba,
            nlb,
            data: None,
            sequential: false,
        }
    }

    /// A write of `data` (must be LBA-aligned in length) at `slba`.
    pub fn write(slba: u64, data: Bytes) -> Self {
        let nlb = (data.len() as u64 / LBA_SIZE) as u32;
        NvmeCmd {
            opcode: NvmeOpcode::Write,
            slba,
            nlb,
            data: Some(data),
            sequential: false,
        }
    }

    /// A flush barrier.
    pub fn flush() -> Self {
        NvmeCmd {
            opcode: NvmeOpcode::Flush,
            slba: 0,
            nlb: 0,
            data: None,
            sequential: false,
        }
    }

    /// Payload size in bytes.
    pub fn bytes(&self) -> u64 {
        self.nlb as u64 * LBA_SIZE
    }
}

/// Why a command was rejected at submission.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NvmeError {
    /// The LBA range falls outside the namespace.
    OutOfRange,
    /// The device queue is full (more than `max_qd` outstanding).
    QueueFull,
    /// A write's payload length disagrees with `nlb`.
    BadPayload,
}

/// A completed command: when it finishes and what it returned.
#[derive(Clone, Debug)]
pub struct NvmeCompletion {
    /// Completion instant.
    pub at: SimTime,
    /// Data for reads.
    pub data: Option<Bytes>,
}

/// Aggregated device statistics.
#[derive(Clone, Debug, Default)]
pub struct NvmeStats {
    /// Bytes read from media.
    pub bytes_read: u64,
    /// Bytes written to media.
    pub bytes_written: u64,
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Flush commands.
    pub flushes: u64,
    /// Commands rejected with `QueueFull`.
    pub queue_full_rejections: u64,
}

/// A simulated NVMe SSD.
#[derive(Debug)]
pub struct NvmeDevice {
    model: NvmeModel,
    backing: Backing,
    channels: ServerPool,
    /// Completion times of outstanding commands (for QD accounting).
    outstanding: BinaryHeap<Reverse<SimTime>>,
    stats: NvmeStats,
}

impl NvmeDevice {
    /// Creates a device with the given timing model and backing mode.
    pub fn new(model: NvmeModel, backing: Backing) -> Self {
        let channels = ServerPool::new(model.channels);
        NvmeDevice {
            model,
            backing,
            channels,
            outstanding: BinaryHeap::new(),
            stats: NvmeStats::default(),
        }
    }

    /// The device's timing model.
    pub fn model(&self) -> &NvmeModel {
        &self.model
    }

    /// Device statistics so far.
    pub fn stats(&self) -> &NvmeStats {
        &self.stats
    }

    /// Number of commands still in flight at `now`.
    pub fn inflight(&mut self, now: SimTime) -> usize {
        while let Some(&Reverse(t)) = self.outstanding.peek() {
            if t <= now {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        self.outstanding.len()
    }

    /// Submits a command at `now`; returns its completion.
    ///
    /// The returned completion carries the finish instant computed from the
    /// channel-occupancy model; the caller schedules its own continuation.
    pub fn submit(&mut self, now: SimTime, cmd: NvmeCmd) -> Result<NvmeCompletion, NvmeError> {
        if self.inflight(now) >= self.model.max_qd {
            self.stats.queue_full_rejections += 1;
            return Err(NvmeError::QueueFull);
        }
        let end_lba = cmd.slba + cmd.nlb as u64;
        if end_lba > self.model.lba_count() {
            return Err(NvmeError::OutOfRange);
        }

        let completion = match cmd.opcode {
            NvmeOpcode::Read => {
                let bytes = cmd.bytes();
                let grant = self
                    .channels
                    .submit(now, self.model.occupancy(bytes, false));
                let at = grant.finish + self.model.access_hinted(false, cmd.sequential);
                let data = self.backing.read(cmd.slba * LBA_SIZE, bytes as usize);
                self.stats.bytes_read += bytes;
                self.stats.reads += 1;
                NvmeCompletion {
                    at,
                    data: Some(data),
                }
            }
            NvmeOpcode::Write => {
                let data = cmd.data.as_ref().ok_or(NvmeError::BadPayload)?;
                if data.len() as u64 != cmd.bytes() {
                    return Err(NvmeError::BadPayload);
                }
                let bytes = cmd.bytes();
                let grant = self.channels.submit(now, self.model.occupancy(bytes, true));
                let at = grant.finish + self.model.access_hinted(true, cmd.sequential);
                self.backing.write_bytes(cmd.slba * LBA_SIZE, data);
                self.stats.bytes_written += bytes;
                self.stats.writes += 1;
                NvmeCompletion { at, data: None }
            }
            NvmeOpcode::Flush => {
                // A flush is a barrier: it completes once every channel has
                // drained, plus a small controller round trip.
                let at = self.channels.drain_time(now) + SimDuration::from_micros(5);
                self.stats.flushes += 1;
                NvmeCompletion { at, data: None }
            }
        };
        self.outstanding.push(Reverse(completion.at));
        Ok(completion)
    }

    /// Direct functional access for tests and preconditioning (bypasses
    /// timing entirely).
    pub fn backing_mut(&mut self) -> &mut Backing {
        &mut self.backing
    }

    /// Whether stored range `[offset, offset+len)` holds the per-chunk
    /// CRCs `expected` names (see [`Backing::verify_chunks`]) — no timing
    /// charged (callers model CPU cost).
    pub fn verify_chunks<I>(&mut self, offset: u64, len: u64, expected: I) -> bool
    where
        I: ExactSizeIterator<Item = u32>,
    {
        self.backing.verify_chunks(offset, len, expected)
    }

    /// Seeds the backing store's chunk-CRC cache for a just-written range
    /// (writers that checksummed the payload anyway hand the CRCs down so
    /// the store's first verify never rescans).
    pub fn seed_crc_cache<I>(&mut self, offset: u64, crcs: I)
    where
        I: ExactSizeIterator<Item = u32>,
    {
        self.backing.seed_crc_cache(offset, crcs);
    }
}

impl Timed for NvmeDevice {
    /// The channel pool, the backing store's counters, and the in-flight
    /// accounting; a reset keeps contents and [`NvmeStats`].
    fn visit(&mut self, v: &mut dyn Visit) {
        v.pool(&mut self.channels);
        v.data_plane(self.backing.data_plane_stats());
        v.rewind(&mut || self.outstanding.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvmeDevice {
        NvmeDevice::new(NvmeModel::enterprise_1600(), Backing::stored())
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = dev();
        let payload = Bytes::from(vec![0xAB; LBA_SIZE as usize * 2]);
        let w = d
            .submit(SimTime::ZERO, NvmeCmd::write(10, payload.clone()))
            .unwrap();
        let r = d.submit(w.at, NvmeCmd::read(10, 2)).unwrap();
        assert_eq!(r.data.unwrap(), payload);
        assert!(r.at > w.at);
    }

    #[test]
    fn read_latency_matches_model_at_low_qd() {
        let mut d = dev();
        let c = d.submit(SimTime::ZERO, NvmeCmd::read(0, 1)).unwrap();
        let expect = d.model().occupancy(LBA_SIZE, false) + d.model().access(false);
        assert_eq!(c.at, SimTime::ZERO + expect);
    }

    #[test]
    fn bandwidth_ceiling_emerges_under_load() {
        let mut d = dev();
        // 256 x 1 MiB reads at t=0: aggregate rate must approach read_bw.
        let n = 256u64;
        let mb = 1 << 20;
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let c = d
                .submit(SimTime::ZERO, NvmeCmd::read(i * 256, 256))
                .unwrap();
            last = last.max(c.at);
        }
        let rate = (n * mb) as f64 / last.as_secs_f64();
        let target = d.model().read_bw as f64;
        assert!(
            (rate - target).abs() / target < 0.05,
            "rate {:.2} GiB/s vs target {:.2} GiB/s",
            rate / (1u64 << 30) as f64,
            target / (1u64 << 30) as f64
        );
    }

    #[test]
    fn queue_full_rejects_beyond_max_qd() {
        let mut d = dev();
        let qd = d.model().max_qd;
        for i in 0..qd {
            d.submit(SimTime::ZERO, NvmeCmd::read(i as u64, 1)).unwrap();
        }
        let err = d.submit(SimTime::ZERO, NvmeCmd::read(0, 1)).unwrap_err();
        assert_eq!(err, NvmeError::QueueFull);
        assert_eq!(d.stats().queue_full_rejections, 1);
        // After completions drain, submission works again.
        let later = SimTime::from_secs(10);
        assert!(d.submit(later, NvmeCmd::read(0, 1)).is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dev();
        let last = d.model().lba_count();
        assert_eq!(
            d.submit(SimTime::ZERO, NvmeCmd::read(last, 1)).unwrap_err(),
            NvmeError::OutOfRange
        );
        assert!(d.submit(SimTime::ZERO, NvmeCmd::read(last - 1, 1)).is_ok());
    }

    #[test]
    fn bad_payload_rejected() {
        let mut d = dev();
        let cmd = NvmeCmd {
            opcode: NvmeOpcode::Write,
            slba: 0,
            nlb: 2,
            data: Some(Bytes::from(vec![0u8; 100])),
            sequential: false,
        };
        assert_eq!(
            d.submit(SimTime::ZERO, cmd).unwrap_err(),
            NvmeError::BadPayload
        );
    }

    #[test]
    fn flush_waits_for_channel_drain() {
        let mut d = dev();
        let w = d
            .submit(
                SimTime::ZERO,
                NvmeCmd::write(0, Bytes::from(vec![1u8; 1 << 20])),
            )
            .unwrap();
        let f = d.submit(SimTime::ZERO, NvmeCmd::flush()).unwrap();
        assert!(f.at + d.model().access(true) >= w.at);
        assert_eq!(d.stats().flushes, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dev();
        d.submit(SimTime::ZERO, NvmeCmd::read(0, 4)).unwrap();
        d.submit(
            SimTime::ZERO,
            NvmeCmd::write(0, Bytes::from(vec![0u8; LBA_SIZE as usize])),
        )
        .unwrap();
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().bytes_read, 4 * LBA_SIZE);
        assert_eq!(d.stats().bytes_written, LBA_SIZE);
    }

    #[test]
    fn inflight_prunes_completed() {
        let mut d = dev();
        let c = d.submit(SimTime::ZERO, NvmeCmd::read(0, 1)).unwrap();
        assert_eq!(d.inflight(SimTime::ZERO), 1);
        assert_eq!(d.inflight(c.at), 0);
    }
}
