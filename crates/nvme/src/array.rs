//! Multi-SSD arrays: the paper's 1- and 4-drive storage configurations.

use bytes::Bytes;
use ros2_hw::{NvmeModel, LBA_SIZE};
use ros2_sim::{SimTime, Timed, Visit};

use crate::backing::Backing;
use crate::device::{NvmeCmd, NvmeCompletion, NvmeDevice, NvmeError, NvmeStats};

/// How the array is created: every drive stored, or every drive null.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DataMode {
    /// Zero-copy extent store, read-your-writes fidelity
    /// ([`Backing::stored`]): correctness tests and examples.
    Stored,
    /// Zero contents, no retention, near-free reads ([`Backing::null`]):
    /// the throughput sweeps, where timing matters and content does not.
    Null,
}

/// A JBOD of identical simulated NVMe devices.
#[derive(Debug)]
pub struct NvmeArray {
    devices: Vec<NvmeDevice>,
}

impl NvmeArray {
    /// Creates `n` devices from `model`, each backed per `mode`.
    pub fn new(model: NvmeModel, n: usize, mode: DataMode) -> Self {
        assert!(n > 0, "empty array");
        let devices = (0..n)
            .map(|_| {
                let backing = match mode {
                    DataMode::Stored => Backing::stored(),
                    DataMode::Null => Backing::null(),
                };
                NvmeDevice::new(model.clone(), backing)
            })
            .collect();
        NvmeArray { devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the array has no devices (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Submits to device `dev`.
    pub fn submit(
        &mut self,
        dev: usize,
        now: SimTime,
        cmd: NvmeCmd,
    ) -> Result<NvmeCompletion, NvmeError> {
        self.devices[dev].submit(now, cmd)
    }

    /// A read on device `dev`.
    pub fn read(
        &mut self,
        dev: usize,
        now: SimTime,
        slba: u64,
        nlb: u32,
    ) -> Result<NvmeCompletion, NvmeError> {
        self.submit(dev, now, NvmeCmd::read(slba, nlb))
    }

    /// A write on device `dev`.
    pub fn write(
        &mut self,
        dev: usize,
        now: SimTime,
        slba: u64,
        data: Bytes,
    ) -> Result<NvmeCompletion, NvmeError> {
        self.submit(dev, now, NvmeCmd::write(slba, data))
    }

    /// Immutable device access.
    pub fn device(&self, dev: usize) -> &NvmeDevice {
        &self.devices[dev]
    }

    /// Mutable device access.
    pub fn device_mut(&mut self, dev: usize) -> &mut NvmeDevice {
        &mut self.devices[dev]
    }

    /// Sums stats across the array.
    pub fn total_stats(&self) -> NvmeStats {
        let mut t = NvmeStats::default();
        for d in &self.devices {
            let s = d.stats();
            t.bytes_read += s.bytes_read;
            t.bytes_written += s.bytes_written;
            t.reads += s.reads;
            t.writes += s.writes;
            t.flushes += s.flushes;
            t.queue_full_rejections += s.queue_full_rejections;
        }
        t
    }

    /// Total LBAs per device (uniform by construction).
    pub fn lba_count_per_device(&self) -> u64 {
        self.devices[0].model().lba_count()
    }

    /// Total array capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.model().lba_count() * LBA_SIZE)
            .sum()
    }
}

impl Timed for NvmeArray {
    /// Every device.
    fn visit(&mut self, v: &mut dyn Visit) {
        self.devices.visit(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_are_independent() {
        let mut a = NvmeArray::new(NvmeModel::enterprise_1600(), 2, DataMode::Stored);
        let data = Bytes::from(vec![5u8; LBA_SIZE as usize]);
        a.write(0, SimTime::ZERO, 7, data.clone()).unwrap();
        let r0 = a.read(0, SimTime::from_secs(1), 7, 1).unwrap();
        let r1 = a.read(1, SimTime::from_secs(1), 7, 1).unwrap();
        assert_eq!(r0.data.unwrap(), data);
        assert!(r1.data.unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn array_bandwidth_scales_with_drives() {
        // The Fig. 3c effect: 4 drives give ~4x the large-block rate.
        let rate = |drives: usize| {
            let mut a = NvmeArray::new(NvmeModel::enterprise_1600(), drives, DataMode::Null);
            let per_dev = 64u64;
            let mut last = SimTime::ZERO;
            for d in 0..drives {
                for i in 0..per_dev {
                    let c = a.read(d, SimTime::ZERO, i * 256, 256).unwrap();
                    last = last.max(c.at);
                }
            }
            (drives as u64 * per_dev * (1 << 20)) as f64 / last.as_secs_f64()
        };
        let r1 = rate(1);
        let r4 = rate(4);
        let scale = r4 / r1;
        assert!((3.8..4.2).contains(&scale), "scaling {scale}");
    }

    #[test]
    fn total_stats_aggregate() {
        let mut a = NvmeArray::new(NvmeModel::enterprise_1600(), 3, DataMode::Null);
        for d in 0..3 {
            a.read(d, SimTime::ZERO, 0, 1).unwrap();
        }
        let t = a.total_stats();
        assert_eq!(t.reads, 3);
        assert_eq!(t.bytes_read, 3 * LBA_SIZE);
    }

    #[test]
    fn capacity_is_summed() {
        let a = NvmeArray::new(NvmeModel::enterprise_1600(), 4, DataMode::Null);
        assert_eq!(
            a.capacity(),
            4 * 1600 * 1000 * 1000 * 1000 / LBA_SIZE * LBA_SIZE
        );
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }
}
