//! GPU architecture descriptions (paper Table IV).

use serde::{Deserialize, Serialize};

/// Micro-architecture family. The timing model differentiates Kepler and
/// Maxwell along the axes the paper calls out: SMEM capacity, maximum active
/// blocks per multiprocessor, and register-spill destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuGeneration {
    /// Kepler (GK110): 48 KiB SMEM/SMX, 16 block slots, spills to L1.
    Kepler,
    /// Maxwell (GM107): 64 KiB SMEM/SMM, 32 block slots, spills to L2
    /// (higher spill penalty), lower instruction latencies.
    Maxwell,
}

/// Floating-point precision a workload is evaluated in.
///
/// The paper reports Kepler results in double precision and GTX 750 Ti
/// results in single precision "to avoid the effect of abnormal machine
/// balance" (Maxwell consumer parts have 1/32-rate FP64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FpPrecision {
    /// 4-byte elements.
    Single,
    /// 8-byte elements.
    Double,
}

impl FpPrecision {
    /// Size in bytes of one element at this precision.
    pub const fn bytes(self) -> usize {
        match self {
            FpPrecision::Single => 4,
            FpPrecision::Double => 8,
        }
    }
}

/// Architectural description of one GPU, mirroring Table IV of the paper
/// plus the latency/throughput parameters needed by the timing simulator.
///
/// All capacity fields are per-multiprocessor (SMX in Kepler terms, SMM in
/// Maxwell terms; the paper and this crate say "SMX" for both).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"K20X"`.
    pub name: String,
    /// Micro-architecture family.
    pub generation: GpuGeneration,
    /// Number of multiprocessors.
    pub smx_count: u32,
    /// Register file per SMX in bytes (Table IV: 64 KiB → 65536).
    /// Registers are 4 bytes, so this is `registers_per_smx() * 4`.
    pub register_file_bytes: u32,
    /// Maximum shared memory per SMX in bytes (48 KiB Kepler, 64 KiB Maxwell).
    pub smem_per_smx: u32,
    /// Maximum registers addressable by a single thread (255 on both).
    pub max_regs_per_thread: u32,
    /// Maximum resident threads per SMX (2048 on both).
    pub max_threads_per_smx: u32,
    /// Maximum resident blocks per SMX (16 Kepler, 32 Maxwell).
    pub max_blocks_per_smx: u32,
    /// Threads per warp (32).
    pub warp_size: u32,
    /// Number of SMEM banks (32) with 8-byte access granularity on Kepler.
    pub smem_banks: u32,
    /// SMEM bank width in bytes (8 on Kepler in 8-byte mode, 4 on Maxwell).
    pub smem_bank_bytes: u32,
    /// Theoretical peak throughput in GFLOPS at the precision the device is
    /// evaluated at (Kepler DP, GTX 750 Ti SP), per Table IV (in TFLOPS
    /// there; stored here as GFLOPS).
    pub peak_gflops: f64,
    /// Sustained GMEM bandwidth in GB/s (STREAM-measured per Table IV).
    pub gmem_bw_gbps: f64,
    /// Aggregate SMEM bandwidth in GB/s. The paper notes SMEM bandwidth is
    /// "an order of magnitude higher" than GMEM.
    pub smem_bw_gbps: f64,
    /// Mean GMEM access latency in nanoseconds (used by the latency-hiding
    /// model: enough warps must be in flight to cover this).
    pub gmem_latency_ns: f64,
    /// Kernel launch overhead in microseconds (host-side driver cost that
    /// fusion amortizes).
    pub launch_overhead_us: f64,
    /// Cost of one `__syncthreads()` barrier per block, in nanoseconds.
    pub barrier_ns: f64,
    /// Number of warps one SMX can have in flight issuing memory requests
    /// needed to saturate bandwidth (latency-hiding knee point).
    pub warps_to_saturate: f64,
    /// Capacity of the read-only (texture/`__ldg`) cache per SMX in bytes
    /// (48 KiB on Kepler; Maxwell folds L1 into it, §IV).
    pub readonly_cache_bytes: u32,
    /// Allow the planner to stage clean pivots through the read-only cache
    /// when SMEM capacity would otherwise reject a fusion (§II-C's
    /// suggested relaxation). Off by default: the paper's main evaluation
    /// does not use it.
    pub use_readonly_cache: bool,
}

impl GpuSpec {
    /// Nvidia Tesla K20X (Kepler GK110): 14 SMX, 48 KiB SMEM, 202 GB/s
    /// STREAM, 1.31 DP TFLOPS — Table IV.
    pub fn k20x() -> Self {
        GpuSpec {
            name: "K20X".into(),
            generation: GpuGeneration::Kepler,
            smx_count: 14,
            register_file_bytes: 64 * 1024 * 4,
            smem_per_smx: 48 * 1024,
            max_regs_per_thread: 255,
            max_threads_per_smx: 2048,
            max_blocks_per_smx: 16,
            warp_size: 32,
            smem_banks: 32,
            smem_bank_bytes: 8,
            peak_gflops: 1310.0,
            gmem_bw_gbps: 202.0,
            smem_bw_gbps: 2000.0,
            gmem_latency_ns: 450.0,
            launch_overhead_us: 2.0,
            barrier_ns: 60.0,
            warps_to_saturate: 30.0,
            readonly_cache_bytes: 48 * 1024,
            use_readonly_cache: false,
        }
    }

    /// Nvidia Tesla K40 (Kepler GK110B): 15 SMX, 214 GB/s, 1.43 DP TFLOPS.
    pub fn k40() -> Self {
        GpuSpec {
            name: "K40".into(),
            smx_count: 15,
            peak_gflops: 1430.0,
            gmem_bw_gbps: 214.0,
            ..Self::k20x()
        }
    }

    /// Nvidia GTX 750 Ti (Maxwell GM107): 5 SMM, 64 KiB SMEM, 69 GB/s,
    /// 1.38 SP TFLOPS. Evaluated in single precision in the paper.
    pub fn gtx750ti() -> Self {
        GpuSpec {
            name: "GTX750Ti".into(),
            generation: GpuGeneration::Maxwell,
            smx_count: 5,
            register_file_bytes: 64 * 1024 * 4,
            smem_per_smx: 64 * 1024,
            max_regs_per_thread: 255,
            max_threads_per_smx: 2048,
            max_blocks_per_smx: 32,
            warp_size: 32,
            smem_banks: 32,
            smem_bank_bytes: 4,
            peak_gflops: 1380.0,
            gmem_bw_gbps: 69.0,
            smem_bw_gbps: 1100.0,
            gmem_latency_ns: 380.0,
            launch_overhead_us: 2.0,
            barrier_ns: 45.0,
            warps_to_saturate: 24.0,
            readonly_cache_bytes: 24 * 1024,
            use_readonly_cache: false,
        }
    }

    /// Look up one of the paper's three evaluation devices by its CLI /
    /// wire-protocol name (case-insensitive): `"k20x"`, `"k40"`, or
    /// `"gtx750ti"`. `None` for anything else.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "k20x" => Some(Self::k20x()),
            "k40" => Some(Self::k40()),
            "gtx750ti" => Some(Self::gtx750ti()),
            _ => None,
        }
    }

    /// Hypothetical Kepler-class device with `smem_kib` KiB of SMEM per SMX,
    /// used by the §VI-E2 what-if study (128 KiB → 1.56x, 256 KiB → 1.65x
    /// projected SCALE-LES improvement in the paper).
    pub fn hypothetical_smem(smem_kib: u32) -> Self {
        GpuSpec {
            name: format!("K20X-SMEM{smem_kib}K"),
            smem_per_smx: smem_kib * 1024,
            ..Self::k20x()
        }
    }

    /// Total registers (4-byte words) per SMX.
    pub fn registers_per_smx(&self) -> u32 {
        self.register_file_bytes / 4
    }

    /// Maximum resident warps per SMX.
    pub fn max_warps_per_smx(&self) -> u32 {
        self.max_threads_per_smx / self.warp_size
    }

    /// The precision the device is conventionally evaluated at in the paper.
    pub fn default_precision(&self) -> FpPrecision {
        match self.generation {
            GpuGeneration::Kepler => FpPrecision::Double,
            GpuGeneration::Maxwell => FpPrecision::Single,
        }
    }

    /// Fraction of latency hidden with `active_warps` warps in flight per
    /// SMX: a saturating curve that reaches ~1 at [`GpuSpec::warps_to_saturate`].
    ///
    /// This is the mechanism by which occupancy loss translates into lost
    /// effective bandwidth — the effect the paper's proposed model captures
    /// and the Roofline model misses.
    pub fn latency_hiding_factor(&self, active_warps: f64) -> f64 {
        if active_warps <= 0.0 {
            return 0.0;
        }
        let x = active_warps / self.warps_to_saturate;
        // Smooth exponential knee: rises steeply, ~0.89 at the saturation
        // point, asymptotically 1.0 with a full complement of warps.
        1.0 - (-2.2 * x).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_k20x_matches_paper() {
        let g = GpuSpec::k20x();
        assert_eq!(g.smx_count, 14);
        assert_eq!(g.smem_per_smx, 48 * 1024);
        assert_eq!(g.registers_per_smx(), 64 * 1024);
        assert_eq!(g.max_regs_per_thread, 255);
        assert!((g.peak_gflops - 1310.0).abs() < 1e-9);
        assert!((g.gmem_bw_gbps - 202.0).abs() < 1e-9);
        assert_eq!(g.default_precision(), FpPrecision::Double);
    }

    #[test]
    fn table4_k40_matches_paper() {
        let g = GpuSpec::k40();
        assert_eq!(g.smx_count, 15);
        assert!((g.gmem_bw_gbps - 214.0).abs() < 1e-9);
        assert!((g.peak_gflops - 1430.0).abs() < 1e-9);
        // K40 otherwise inherits K20X resources.
        assert_eq!(g.smem_per_smx, 48 * 1024);
    }

    #[test]
    fn table4_maxwell_matches_paper() {
        let g = GpuSpec::gtx750ti();
        assert_eq!(g.smx_count, 5);
        assert_eq!(g.smem_per_smx, 64 * 1024);
        assert_eq!(g.max_blocks_per_smx, 32);
        assert_eq!(g.default_precision(), FpPrecision::Single);
        assert!((g.gmem_bw_gbps - 69.0).abs() < 1e-9);
    }

    #[test]
    fn hypothetical_smem_variants() {
        let g = GpuSpec::hypothetical_smem(128);
        assert_eq!(g.smem_per_smx, 128 * 1024);
        assert_eq!(g.smx_count, 14); // still a K20X otherwise
        assert_eq!(GpuSpec::hypothetical_smem(256).smem_per_smx, 256 * 1024);
    }

    #[test]
    fn latency_hiding_is_monotone_and_saturating() {
        let g = GpuSpec::k20x();
        let mut prev = 0.0;
        for w in 1..=64 {
            let f = g.latency_hiding_factor(w as f64);
            assert!(f >= prev - 1e-12, "non-monotone at {w} warps");
            assert!(f <= 1.0 + 1e-12);
            prev = f;
        }
        // Near saturation with the full complement of warps.
        assert!(g.latency_hiding_factor(64.0) > 0.8);
        // Severely degraded with almost no concurrency.
        assert!(g.latency_hiding_factor(2.0) < 0.35);
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(FpPrecision::Single.bytes(), 4);
        assert_eq!(FpPrecision::Double.bytes(), 8);
    }

    #[test]
    fn warp_counts() {
        assert_eq!(GpuSpec::k20x().max_warps_per_smx(), 64);
    }
}
