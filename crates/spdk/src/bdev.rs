//! The SPDK block-device (bdev) layer: named block devices over the
//! simulated NVMe array, with the thin user-space submission cost SPDK's
//! polled-mode driver actually has (no kernel, no interrupts).

use bytes::Bytes;
use ros2_hw::LBA_SIZE;
use ros2_nvme::{NvmeArray, NvmeCmd, NvmeCompletion, NvmeDevice, NvmeError};
use ros2_sim::{SimDuration, SimTime, Timed, Visit};

/// A named bdev exposing one NVMe namespace.
#[derive(Clone, Debug)]
pub struct BdevDesc {
    /// bdev name (e.g. "Nvme0n1").
    pub name: String,
    /// Index of the backing device in the array.
    pub dev: usize,
}

/// The bdev layer: a registry of named devices over one array.
#[derive(Debug)]
pub struct BdevLayer {
    array: NvmeArray,
    bdevs: Vec<BdevDesc>,
    /// Per-command submission cost of the polled-mode driver.
    submit_cost: SimDuration,
}

impl BdevLayer {
    /// Wraps `array`, exposing each device as `Nvme{i}n1`.
    pub fn new(array: NvmeArray) -> Self {
        let bdevs = (0..array.len())
            .map(|i| BdevDesc {
                name: format!("Nvme{i}n1"),
                dev: i,
            })
            .collect();
        BdevLayer {
            array,
            bdevs,
            // SPDK's PMD submission path is ~400 ns per command.
            submit_cost: SimDuration::from_nanos(400),
        }
    }

    /// Number of bdevs.
    pub fn count(&self) -> usize {
        self.bdevs.len()
    }

    /// Looks up a bdev by name.
    #[cfg(test)]
    fn by_name(&self, name: &str) -> Option<&BdevDesc> {
        self.bdevs.iter().find(|b| b.name == name)
    }

    /// The descriptor for bdev `idx`.
    pub fn desc(&self, idx: usize) -> &BdevDesc {
        &self.bdevs[idx]
    }

    /// Reads `nlb` blocks from bdev `idx` at `slba`.
    pub fn read(
        &mut self,
        now: SimTime,
        idx: usize,
        slba: u64,
        nlb: u32,
    ) -> Result<NvmeCompletion, NvmeError> {
        let dev = self.bdevs[idx].dev;
        self.array
            .submit(dev, now + self.submit_cost, NvmeCmd::read(slba, nlb))
    }

    /// Writes `data` to bdev `idx` at `slba`.
    pub fn write(
        &mut self,
        now: SimTime,
        idx: usize,
        slba: u64,
        data: Bytes,
    ) -> Result<NvmeCompletion, NvmeError> {
        debug_assert_eq!(data.len() as u64 % LBA_SIZE, 0);
        let dev = self.bdevs[idx].dev;
        self.array
            .submit(dev, now + self.submit_cost, NvmeCmd::write(slba, data))
    }

    /// Immutable array access.
    pub fn array(&self) -> &NvmeArray {
        &self.array
    }

    /// A single-device handle onto bdev `idx` (a VOS target's slice of the
    /// layer).
    pub fn shard(&mut self, idx: usize) -> ShardBdev<'_> {
        let dev = self.bdevs[idx].dev;
        ShardBdev {
            dev: self.array.device_mut(dev),
            submit_cost: self.submit_cost,
        }
    }
}

impl Timed for BdevLayer {
    /// The backing array.
    fn visit(&mut self, v: &mut dyn Visit) {
        self.array.visit(v);
    }
}

/// One device's slice of the bdev layer: the submission interface a single
/// VOS target owns. Holding a `ShardBdev` borrows exactly one device.
#[derive(Debug)]
pub struct ShardBdev<'a> {
    dev: &'a mut NvmeDevice,
    submit_cost: SimDuration,
}

impl ShardBdev<'_> {
    /// Reads `nlb` blocks at `slba` from this shard's device.
    pub fn read(&mut self, now: SimTime, slba: u64, nlb: u32) -> Result<NvmeCompletion, NvmeError> {
        self.dev
            .submit(now + self.submit_cost, NvmeCmd::read(slba, nlb))
    }

    /// Writes `data` at `slba` on this shard's device.
    pub fn write(
        &mut self,
        now: SimTime,
        slba: u64,
        data: Bytes,
    ) -> Result<NvmeCompletion, NvmeError> {
        debug_assert_eq!(data.len() as u64 % LBA_SIZE, 0);
        self.dev
            .submit(now + self.submit_cost, NvmeCmd::write(slba, data))
    }

    /// Whether stored bytes `[byte_offset, byte_offset+len)` hold the
    /// per-chunk CRCs `expected` names — compared with the backing store's
    /// cached chunk CRCs, no media timing.
    pub fn verify_chunks<I>(&mut self, byte_offset: u64, len: u64, expected: I) -> bool
    where
        I: ExactSizeIterator<Item = u32>,
    {
        self.dev.verify_chunks(byte_offset, len, expected)
    }

    /// Seeds the backing store's chunk-CRC cache for a just-written range.
    pub fn seed_crc_cache<I>(&mut self, byte_offset: u64, crcs: I)
    where
        I: ExactSizeIterator<Item = u32>,
    {
        self.dev.seed_crc_cache(byte_offset, crcs);
    }

    /// Direct device access (corruption injection in tests).
    pub fn device_mut(&mut self) -> &mut NvmeDevice {
        self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_hw::NvmeModel;
    use ros2_nvme::DataMode;

    fn layer(n: usize) -> BdevLayer {
        BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            n,
            DataMode::Stored,
        ))
    }

    #[test]
    fn names_follow_spdk_convention() {
        let l = layer(4);
        assert_eq!(l.count(), 4);
        assert_eq!(l.desc(0).name, "Nvme0n1");
        assert!(l.by_name("Nvme3n1").is_some());
        assert!(l.by_name("Nvme4n1").is_none());
    }

    #[test]
    fn read_write_round_trip() {
        let mut l = layer(1);
        let data = Bytes::from(vec![3u8; LBA_SIZE as usize]);
        let w = l.write(SimTime::ZERO, 0, 9, data.clone()).unwrap();
        let r = l.read(w.at, 0, 9, 1).unwrap();
        assert_eq!(r.data.unwrap(), data);
    }

    #[test]
    fn submission_cost_is_added() {
        let mut l = layer(1);
        let c = l.read(SimTime::ZERO, 0, 0, 1).unwrap();
        let raw = {
            let m = NvmeModel::enterprise_1600();
            m.occupancy(LBA_SIZE, false) + m.access(false)
        };
        assert_eq!(c.at, SimTime::ZERO + SimDuration::from_nanos(400) + raw);
    }
}
