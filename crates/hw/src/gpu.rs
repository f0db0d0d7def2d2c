//! NVIDIA data-center GPU generations (paper Table 1) and the §2.1 LLM
//! ingest-rate model `B_node ≈ G · r · s`.
//!
//! Table 1 motivates the whole system: HBM bandwidth grew ~11× from P100 to
//! B200, so storage must deliver multi-GiB/s per node with heavy small-I/O
//! pressure. The `table1_gpu` bench binary reprints the table and evaluates
//! the ingest model for representative training configurations.

/// One row of Table 1 (representative server configurations).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Microarchitecture.
    pub architecture: &'static str,
    /// On-package memory size, GB.
    pub memory_gb: u32,
    /// Memory technology.
    pub memory_kind: &'static str,
    /// Memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// NVLink generation.
    pub nvlink_gen: u8,
    /// Per-GPU NVLink bandwidth, GB/s.
    pub nvlink_gbs: f64,
    /// FP16 tensor throughput, TFLOPS.
    pub fp16_tflops: f64,
    /// FP8 tensor throughput, TFLOPS (`None` before Hopper).
    pub fp8_tflops: Option<f64>,
    /// FP4 tensor throughput, TFLOPS (`None` before Blackwell).
    pub fp4_tflops: Option<f64>,
}

/// The six generations of Table 1, P100 through B200.
pub const TABLE1: [GpuSpec; 6] = [
    GpuSpec {
        name: "P100",
        architecture: "Pascal",
        memory_gb: 16,
        memory_kind: "HBM2",
        mem_bw_gbs: 732.0,
        nvlink_gen: 1,
        nvlink_gbs: 80.0,
        fp16_tflops: 21.2,
        fp8_tflops: None,
        fp4_tflops: None,
    },
    GpuSpec {
        name: "V100",
        architecture: "Volta",
        memory_gb: 32,
        memory_kind: "HBM2",
        mem_bw_gbs: 1134.0,
        nvlink_gen: 2,
        nvlink_gbs: 300.0,
        fp16_tflops: 130.0, // Tensor-core FP16/FP32-accumulate figure
        fp8_tflops: None,
        fp4_tflops: None,
    },
    GpuSpec {
        name: "A100",
        architecture: "Ampere",
        memory_gb: 80,
        memory_kind: "HBM2e",
        mem_bw_gbs: 2000.0,
        nvlink_gen: 3,
        nvlink_gbs: 600.0,
        fp16_tflops: 624.0,
        fp8_tflops: None,
        fp4_tflops: None,
    },
    GpuSpec {
        name: "H100",
        architecture: "Hopper",
        memory_gb: 80,
        memory_kind: "HBM3",
        mem_bw_gbs: 3350.0,
        nvlink_gen: 4,
        nvlink_gbs: 900.0,
        fp16_tflops: 2000.0,
        fp8_tflops: Some(4000.0),
        fp4_tflops: None,
    },
    GpuSpec {
        name: "H200",
        architecture: "Hopper",
        memory_gb: 141,
        memory_kind: "HBM3e",
        mem_bw_gbs: 4800.0,
        nvlink_gen: 4,
        nvlink_gbs: 900.0,
        fp16_tflops: 2000.0,
        fp8_tflops: Some(4000.0),
        fp4_tflops: None,
    },
    GpuSpec {
        name: "B200",
        architecture: "Blackwell",
        memory_gb: 186,
        memory_kind: "HBM3e",
        mem_bw_gbs: 8000.0,
        nvlink_gen: 5,
        nvlink_gbs: 1800.0,
        fp16_tflops: 5000.0,
        fp8_tflops: Some(10000.0),
        fp4_tflops: Some(20000.0),
    },
];

/// Looks up a generation by name (case-insensitive).
pub fn gpu_by_name(name: &str) -> Option<&'static GpuSpec> {
    TABLE1.iter().find(|g| g.name.eq_ignore_ascii_case(name))
}

/// The §2.1 ingest model: sustained bytes/second a node's storage path must
/// deliver.
///
/// `B_node ≈ G · r · s` with `G` GPUs per node, `r` samples (or tokens) per
/// second per GPU, and `s` average bytes fetched per sample after
/// compression.
#[derive(Copy, Clone, Debug)]
pub struct IngestModel {
    /// GPUs per node (`G`).
    pub gpus_per_node: u32,
    /// Per-GPU sample rate, samples/s (`r`).
    pub samples_per_gpu_per_sec: f64,
    /// Average bytes fetched per sample after compression (`s`).
    pub bytes_per_sample: u64,
}

impl IngestModel {
    /// Required sustained ingest rate for the node, bytes/second.
    fn required_bytes_per_sec(&self) -> f64 {
        self.gpus_per_node as f64 * self.samples_per_gpu_per_sec * self.bytes_per_sample as f64
    }

    /// Required rate in GiB/s.
    pub fn required_gib_per_sec(&self) -> f64 {
        self.required_bytes_per_sec() / (1u64 << 30) as f64
    }

    /// Small-I/O pressure estimate: random read operations per second if
    /// each sample is one object fetch (shuffled dataloader).
    pub fn required_iops(&self) -> f64 {
        self.gpus_per_node as f64 * self.samples_per_gpu_per_sec
    }

    /// A conservative 8×GPU LLM pre-training node: 2 k samples/s/GPU of
    /// ~256 KiB multimodal-tokenized records.
    pub fn llm_pretraining_node() -> Self {
        IngestModel {
            gpus_per_node: 8,
            samples_per_gpu_per_sec: 2_000.0,
            bytes_per_sample: 256 * 1024,
        }
    }
}

/// The four LLM lifecycle phases of Fig. 1 and their storage requirements.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LlmPhase {
    /// Ingest & filter: high throughput, large capacity.
    DataPreparation,
    /// Collaboration workspace: POSIX-compatible, sharable, reliable.
    ModelDevelopment,
    /// Dataset & checkpoints: high throughput, low latency.
    ModelTraining,
    /// Deployment: high concurrency, high throughput.
    ModelInference,
}

impl LlmPhase {
    /// All phases in pipeline order.
    pub const ALL: [LlmPhase; 4] = [
        LlmPhase::DataPreparation,
        LlmPhase::ModelDevelopment,
        LlmPhase::ModelTraining,
        LlmPhase::ModelInference,
    ];

    /// The headline storage requirements the paper lists for this phase.
    pub fn requirements(self) -> &'static [&'static str] {
        match self {
            LlmPhase::DataPreparation => &["high throughput", "large capacity"],
            LlmPhase::ModelDevelopment => &["POSIX compatible", "sharable", "high reliability"],
            LlmPhase::ModelTraining => &["high throughput", "low latency"],
            LlmPhase::ModelInference => &["high concurrency", "high throughput"],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_generations_in_order() {
        let names: Vec<_> = TABLE1.iter().map(|g| g.name).collect();
        assert_eq!(names, ["P100", "V100", "A100", "H100", "H200", "B200"]);
    }

    #[test]
    fn memory_bandwidth_grows_monotonically() {
        for pair in TABLE1.windows(2) {
            assert!(pair[1].mem_bw_gbs > pair[0].mem_bw_gbs);
            assert!(pair[1].nvlink_gen >= pair[0].nvlink_gen);
        }
        // The paper's headline: ~11x from P100 to B200.
        let ratio = TABLE1[5].mem_bw_gbs / TABLE1[0].mem_bw_gbs;
        assert!((10.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fp8_fp4_appear_at_right_generations() {
        assert!(gpu_by_name("A100").unwrap().fp8_tflops.is_none());
        assert!(gpu_by_name("H100").unwrap().fp8_tflops.is_some());
        assert!(gpu_by_name("H200").unwrap().fp4_tflops.is_none());
        assert!(gpu_by_name("B200").unwrap().fp4_tflops.is_some());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(gpu_by_name("b200").unwrap().name, "B200");
        assert!(gpu_by_name("GTX1080").is_none());
    }

    #[test]
    fn ingest_model_yields_multi_gib_per_node() {
        // "Even conservative choices yield multi-GiB/s per node" (§2.1).
        let m = IngestModel::llm_pretraining_node();
        assert!(m.required_gib_per_sec() > 2.0);
        assert!(m.required_iops() >= 16_000.0);
    }

    #[test]
    fn ingest_model_is_linear_in_g_r_s() {
        let base = IngestModel {
            gpus_per_node: 1,
            samples_per_gpu_per_sec: 100.0,
            bytes_per_sample: 1000,
        };
        let double = IngestModel {
            gpus_per_node: 2,
            ..base
        };
        assert_eq!(
            double.required_bytes_per_sec(),
            2.0 * base.required_bytes_per_sec()
        );
    }

    #[test]
    fn phases_cover_figure_1() {
        assert_eq!(LlmPhase::ALL.len(), 4);
        assert!(LlmPhase::ModelDevelopment
            .requirements()
            .contains(&"POSIX compatible"));
    }
}
