//! Kernel metadata extraction (Table III of the paper).
//!
//! The paper's models are *codeless*: during search they may consult only
//! the metadata extracted once per original kernel (plus device constants,
//! Table IV). [`ProgramInfo::extract`] plays the role of the paper's
//! ROSE-based static analysis plus profiler measurements: structural
//! quantities come from the IR, "measured" runtimes and register counts
//! come from the `kfuse-sim` substrate standing in for real hardware.

use crate::util::vec_bytes;
use kfuse_gpu::{occupancy, FpPrecision, GpuSpec, LaunchConfig};
use kfuse_ir::{analysis, stencil, ArrayId, KernelId, Program};
use kfuse_sim::{estimate_registers, simulate_kernel};
use serde::{Deserialize, Serialize};

/// Per-array usage facts inside one kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrayUse {
    /// The array.
    pub array: ArrayId,
    /// `ThrLD(x)`: threads per block touching the same element.
    pub thread_load: u32,
    /// `Flop(x)`: FLOPs (whole grid, one invocation) in statements whose
    /// expression reads `x`.
    pub flops: u64,
    /// FLOPs in statements *writing* `x` (used to cost redundant halo
    /// computation when `x` becomes a produced pivot).
    pub write_flops: u64,
    /// Maximum horizontal stencil radius over reads of `x`.
    pub read_radius: u8,
    /// Kernel reads `x`.
    pub reads: bool,
    /// Kernel writes `x`.
    pub writes: bool,
    /// GMEM elements loaded for `x` (one invocation, measured).
    pub load_elems: u64,
    /// GMEM elements stored to `x` (one invocation, measured).
    pub store_elems: u64,
}

/// Metadata of one original kernel (Table III).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelMeta {
    /// Kernel id.
    pub id: KernelId,
    /// Kernel name.
    pub name: String,
    /// `Blocks_SMX`: active blocks per SMX of the original kernel.
    pub blocks_smx: u32,
    /// `T_B`: active threads per block.
    pub active_threads: u32,
    /// `Thr`: threads per block.
    pub threads: u32,
    /// `B`: blocks in the grid.
    pub blocks: u32,
    /// `R_T`: registers per thread (profiler-measured stand-in).
    pub regs_per_thread: u32,
    /// `R_Adr`: registers for indices and addresses.
    pub regs_addr: u32,
    /// Live stencil-operand registers of the widest statement
    /// (`ceil(RegFac · loads)`, profiler-measured stand-in).
    pub live_regs: u32,
    /// `Fl`: FLOPs per invocation (whole grid, incl. any halo compute the
    /// original kernel already does).
    pub flops: u64,
    /// Per-array usage, sorted by array id (`ThrLD`, `Flop`, `ShrLst`
    /// derive from this).
    pub uses: Vec<ArrayUse>,
    /// `Hal`: halo region of a thread block in bytes at the kernel's
    /// widest read radius.
    pub halo_bytes: u64,
    /// Measured runtime `P(K)` in seconds (simulator stand-in).
    pub runtime_s: f64,
    /// Measured effective bandwidth in bytes/s (traffic / runtime).
    pub effective_bw: f64,
    /// Total GMEM elements moved per invocation.
    pub traffic_elems: u64,
}

impl KernelMeta {
    /// Usage entry for `a`, if the kernel touches it.
    pub fn use_of(&self, a: ArrayId) -> Option<&ArrayUse> {
        self.uses
            .binary_search_by_key(&a, |u| u.array)
            .ok()
            .map(|i| &self.uses[i])
    }

    /// Arrays this kernel reads.
    pub fn reads(&self) -> impl Iterator<Item = ArrayId> + '_ {
        self.uses.iter().filter(|u| u.reads).map(|u| u.array)
    }

    /// Arrays this kernel writes.
    pub fn writes(&self) -> impl Iterator<Item = ArrayId> + '_ {
        self.uses.iter().filter(|u| u.writes).map(|u| u.array)
    }
}

/// Everything the search and the codeless models are allowed to see.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramInfo {
    /// Program name.
    pub name: String,
    /// Device description.
    pub gpu: GpuSpec,
    /// Evaluation precision.
    pub precision: FpPrecision,
    /// Block tile width.
    pub block_x: u32,
    /// Block tile height.
    pub block_y: u32,
    /// Threads per block (`Thr`).
    pub threads: u32,
    /// Blocks per grid (`B`).
    pub blocks: u32,
    /// Vertical levels.
    pub nz: u32,
    /// Total grid sites.
    pub sites: u64,
    /// Number of declared arrays (after relaxation).
    pub n_arrays: usize,
    /// Per-kernel metadata in invocation order.
    pub kernels: Vec<KernelMeta>,
    /// Host-sync epoch per kernel (kernels in different epochs are
    /// separated by a host synchronization and can never fuse, §II-C).
    pub epochs: Vec<u32>,
    /// CUDA stream per kernel (§II-C; kernels in different streams may run
    /// concurrently and are never fused together).
    pub streams: Vec<u32>,
}

impl ProgramInfo {
    /// Extract all metadata for `p` on `gpu` at `precision`.
    pub fn extract(p: &Program, gpu: &GpuSpec, precision: FpPrecision) -> Self {
        let (blocks, threads) = p.launch_dims();
        let elem = precision.bytes() as u64;
        // Whole-grid multiplier of a per-site FLOP count.
        let per_site = |flops: u64| {
            flops
                * u64::from(blocks)
                * u64::from(p.launch.threads_per_block())
                * u64::from(p.grid.nz)
        };
        let mut loaded: Vec<ArrayId> = Vec::new();
        let kernels = p
            .kernels
            .iter()
            .map(|k| {
                let timing = simulate_kernel(gpu, p, k, precision);
                // Every per-array fact below comes from this one map of
                // the kernel's reads and one walk over its statements.
                let reads = k.reads();
                let mut arrays: Vec<ArrayId> = reads.keys().copied().collect();
                arrays.extend(k.statements().map(|st| st.target));
                arrays.sort_unstable();
                arrays.dedup();
                let slot = |a: ArrayId| arrays.binary_search(&a).expect("a touched array");

                // Per array: FLOPs of the statements reading it, FLOPs of
                // the statements writing it, whether any writes it.
                let mut read_flops = vec![0u64; arrays.len()];
                let mut write_flops = vec![0u64; arrays.len()];
                let mut written = vec![false; arrays.len()];
                let mut widest_statement = 0usize;
                for st in k.statements() {
                    let flops = st.expr.flops();
                    write_flops[slot(st.target)] += flops;
                    written[slot(st.target)] = true;
                    loaded.clear();
                    st.expr.for_each_load(&mut |a, _| loaded.push(a));
                    widest_statement = widest_statement.max(loaded.len());
                    loaded.sort_unstable();
                    loaded.dedup();
                    for &a in &loaded {
                        read_flops[slot(a)] += flops;
                    }
                }

                let mut max_radius = 0u8;
                let uses: Vec<ArrayUse> = arrays
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| {
                        let traffic = timing.traffic.per_array.get(&a);
                        let offsets = reads.get(&a).map_or(&[][..], Vec::as_slice);
                        let read_radius = stencil::max_radius(offsets.iter().copied());
                        max_radius = max_radius.max(read_radius);
                        ArrayUse {
                            array: a,
                            thread_load: stencil::horizontal_footprint(offsets.iter().copied())
                                .len() as u32,
                            flops: per_site(read_flops[i]),
                            write_flops: per_site(write_flops[i]),
                            read_radius,
                            reads: !offsets.is_empty(),
                            writes: written[i],
                            load_elems: traffic.map_or(0, |t| t.load_elems),
                            store_elems: traffic.map_or(0, |t| t.store_elems),
                        }
                    })
                    .collect();

                let halo_bytes = analysis::halo_area(p, u32::from(max_radius)) * elem;
                let regs = estimate_registers(p, k);
                let smem = analysis::smem_bytes_per_block(p, k, elem);
                let launch = LaunchConfig::new(blocks, threads);
                let occ = occupancy(gpu, &launch, regs.min(gpu.max_regs_per_thread), smem as u32);
                let traffic_elems = timing.traffic.elems();
                let bytes = timing.traffic.bytes(elem);
                KernelMeta {
                    id: k.id,
                    name: k.name.clone(),
                    blocks_smx: occ.active_blocks_per_smx,
                    active_threads: threads,
                    threads,
                    blocks,
                    regs_per_thread: regs,
                    regs_addr: 2 * arrays.len() as u32,
                    live_regs: (crate::spec::REG_FAC * widest_statement as f64).ceil() as u32,
                    flops: timing.flops,
                    uses,
                    halo_bytes,
                    runtime_s: timing.time_s,
                    effective_bw: if timing.time_s > 0.0 && timing.time_s.is_finite() {
                        bytes as f64 / timing.time_s
                    } else {
                        0.0
                    },
                    traffic_elems,
                }
            })
            .collect();

        ProgramInfo {
            name: p.name.clone(),
            gpu: gpu.clone(),
            precision,
            block_x: p.launch.block_x,
            block_y: p.launch.block_y,
            threads,
            blocks,
            nz: p.grid.nz,
            sites: p.grid.sites(),
            n_arrays: p.arrays.len(),
            kernels,
            epochs: p.epochs(),
            streams: (0..p.kernels.len())
                .map(|i| p.stream_of(kfuse_ir::KernelId(i as u32)))
                .collect(),
        }
    }

    /// Metadata of kernel `k`.
    pub fn meta(&self, k: KernelId) -> &KernelMeta {
        &self.kernels[k.index()]
    }

    /// Heap bytes the metadata owns: names, kernel table, per-kernel use
    /// lists, epoch and stream labels.
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.gpu.name.capacity()
            + vec_bytes(&self.kernels)
            + self
                .kernels
                .iter()
                .map(|k| k.name.capacity() + vec_bytes(&k.uses))
                .sum::<usize>()
            + vec_bytes(&self.epochs)
            + vec_bytes(&self.streams)
    }

    /// Sum of measured runtimes over a group — the *original sum*
    /// `F^Σ` of Table II.
    pub fn original_sum(&self, group: &[KernelId]) -> f64 {
        group.iter().map(|&k| self.meta(k).runtime_s).sum()
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u64 {
        self.precision.bytes() as u64
    }

    /// Tile area including `halo` rings (sites per k-level per block).
    pub fn tile_area(&self, halo: u32) -> u64 {
        (u64::from(self.block_x) + 2 * u64::from(halo))
            * (u64::from(self.block_y) + 2 * u64::from(halo))
    }

    /// Halo ring area for `halo` layers (sites per k-level per block).
    pub fn halo_area(&self, halo: u32) -> u64 {
        self.tile_area(halo) - self.tile_area(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::Expr;

    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::load(a, Offset::new(-1, 0, 0)))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(b) * Expr::lit(2.0) + Expr::at(a))
            .build();
        pb.build()
    }

    fn info() -> ProgramInfo {
        ProgramInfo::extract(&program(), &GpuSpec::k20x(), FpPrecision::Double)
    }

    #[test]
    fn table3_fields_are_populated() {
        let info = info();
        assert_eq!(info.kernels.len(), 2);
        let m = &info.kernels[0];
        assert_eq!(m.threads, 128);
        assert_eq!(m.blocks, 4 * 16);
        assert!(m.blocks_smx >= 1);
        assert!(m.regs_per_thread > 0);
        assert!(m.flops > 0);
        assert!(m.runtime_s > 0.0 && m.runtime_s.is_finite());
        assert!(m.effective_bw > 0.0);
    }

    #[test]
    fn array_uses_capture_intents_and_thread_load() {
        let info = info();
        let m = &info.kernels[0];
        let ua = m.use_of(ArrayId(0)).unwrap();
        assert!(ua.reads && !ua.writes);
        assert_eq!(ua.thread_load, 2);
        assert_eq!(ua.read_radius, 1);
        let ub = m.use_of(ArrayId(1)).unwrap();
        assert!(!ub.reads && ub.writes);
        assert!(ub.store_elems > 0);
        assert!(ub.write_flops > 0);
    }

    #[test]
    fn original_sum_adds_member_runtimes() {
        let info = info();
        let s = info.original_sum(&[KernelId(0), KernelId(1)]);
        let expect = info.kernels[0].runtime_s + info.kernels[1].runtime_s;
        assert!((s - expect).abs() < 1e-18);
    }

    #[test]
    fn halo_bytes_match_radius() {
        let info = info();
        // k0 reads at radius 1: Hal = ((bx+2)(by+2) - bx·by) · 8 bytes.
        let expected = ((34 * 6) - (32 * 4)) * 8;
        assert_eq!(info.kernels[0].halo_bytes, expected);
        // k1 is pointwise: no halo.
        assert_eq!(info.kernels[1].halo_bytes, 0);
    }

    #[test]
    fn reads_writes_iterators() {
        let info = info();
        let m = &info.kernels[1];
        let reads: Vec<ArrayId> = m.reads().collect();
        let writes: Vec<ArrayId> = m.writes().collect();
        assert_eq!(reads, vec![ArrayId(0), ArrayId(1)]);
        assert_eq!(writes, vec![ArrayId(2)]);
    }
}
