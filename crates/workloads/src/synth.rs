//! Parameterized synthetic stencil-program generator.
//!
//! Produces deterministic (seeded) programs whose structural statistics —
//! sharing-set cardinality, thread load, dependency (kinship) depth,
//! expandable-array multiplicity — match requested targets. All original
//! kernels are emitted "rigorously optimized" in the paper's sense: any
//! array with thread load > 1 carries an SMEM staging directive, as the
//! hand-tuned SCALE-LES kernels did (§VI-B2).

use kfuse_ir::builder::ProgramBuilder;
use kfuse_ir::kernel::{Staging, StagingMedium};
use kfuse_ir::stencil::Offset;
use kfuse_ir::{ArrayId, Expr, Program};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for the generator. Field names follow Table V.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Program name.
    pub name: String,
    /// Number of kernels.
    pub kernels: usize,
    /// Number of data arrays.
    pub arrays: usize,
    /// Arrays written by more than one kernel ("data copies" — the
    /// expandable read-write arrays of §II-B1c).
    pub data_copies: usize,
    /// Target sharing-set cardinality for hub arrays.
    pub sharing_set: usize,
    /// Average thread load (stencil footprint size) of shared reads.
    pub thread_load: usize,
    /// Dependency chain window: kernel *i* may consume outputs of kernels
    /// `i-kinship..i` (controls degree-of-kinship depth).
    pub kinship: usize,
    /// Grid extents.
    pub grid: [u32; 3],
    /// Block tile.
    pub block: (u32, u32),
    /// Probability that a kernel consumes a recent output (dependency
    /// density).
    pub dep_prob: f64,
    /// Reads per kernel (before the dependency read).
    pub reads_per_kernel: usize,
    /// Probability that an *array* is accessed pointwise (thread load 1)
    /// by every reader rather than through a stencil — pointwise sharing
    /// is register-reusable but does not qualify for the SMEM-driven
    /// Table I bound.
    pub pointwise_prob: f64,
    /// Insert a host synchronization point every this many kernels
    /// (`None` = fully device-resident program). Models PCIe transfers /
    /// CPU-side phases (e.g. HOMME's boundary exchange) that fusion can
    /// never cross.
    pub sync_interval: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            name: "synth".into(),
            kernels: 20,
            arrays: 40,
            data_copies: 4,
            sharing_set: 4,
            thread_load: 8,
            kinship: 3,
            grid: [256, 128, 16],
            block: (32, 4),
            dep_prob: 0.5,
            reads_per_kernel: 3,
            pointwise_prob: 0.3,
            sync_interval: None,
            seed: 0,
        }
    }
}

/// Ordered horizontal neighborhood; the first `t` entries give a stencil
/// footprint with thread load exactly `t`.
pub fn footprint(t: usize) -> Vec<Offset> {
    const ORDER: [(i8, i8); 13] = [
        (0, 0),
        (-1, 0),
        (1, 0),
        (0, -1),
        (0, 1),
        (-1, -1),
        (1, 1),
        (-1, 1),
        (1, -1),
        (-2, 0),
        (2, 0),
        (0, -2),
        (0, 2),
    ];
    ORDER
        .iter()
        .take(t.clamp(1, ORDER.len()))
        .map(|&(di, dj)| Offset::new(di, dj, 0))
        .collect()
}

/// The scaling-study workload: the fixed configuration the search tests,
/// the `kfuse-e2e` benchmark and the observability examples use for
/// their 20–100-kernel synthetic programs. One shared definition so
/// `kfuse example synth60`, the tests, and the docs all talk about the
/// same program.
pub fn scaling(kernels: usize) -> Program {
    generate(&SynthConfig {
        name: format!("scale_{kernels}"),
        kernels,
        arrays: kernels * 2,
        data_copies: 2,
        sharing_set: 3,
        thread_load: 4,
        kinship: 3,
        grid: [64, 16, 2],
        block: (32, 4),
        dep_prob: 0.5,
        reads_per_kernel: 2,
        pointwise_prob: 0.3,
        sync_interval: None,
        seed: 0xBEEF + kernels as u64,
    })
}

/// Configuration for the clustered large-program generator
/// ([`generate_clustered`]): `regions` weakly-coupled clusters of
/// `kernels_per_region` kernels each, with dense intra-region sharing
/// (per-region hub arrays + dependency chains) and a tunable fraction of
/// kernels that also consume an output of the previous region.
#[derive(Debug, Clone)]
pub struct ClusteredConfig {
    /// Program name.
    pub name: String,
    /// Total kernel count (the last region may be smaller than
    /// `kernels_per_region` when this is not a multiple of it).
    pub kernels: usize,
    /// Kernels per region.
    pub kernels_per_region: usize,
    /// Probability that a kernel also reads an output produced by the
    /// previous region (cross-cut sharing the partitioner must sever and
    /// the stitching pass may recover).
    pub coupling: f64,
    /// Widely-shared stencil input arrays per region.
    pub hubs_per_region: usize,
    /// Thread load (stencil footprint) of hub reads.
    pub thread_load: usize,
    /// Grid extents.
    pub grid: [u32; 3],
    /// Block tile.
    pub block: (u32, u32),
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusteredConfig {
    fn default() -> Self {
        ClusteredConfig {
            name: "clustered".into(),
            kernels: 1000,
            kernels_per_region: 40,
            coupling: 0.15,
            hubs_per_region: 3,
            thread_load: 4,
            grid: [64, 16, 2],
            block: (32, 4),
            seed: 0,
        }
    }
}

/// The scaled workload for the hierarchical-planning study:
/// `regions × kernels_per_region` kernels with realistic intra-region
/// sharing density and `coupling` cross-region sharing, deterministic in
/// the region shape (seed derives from the kernel count).
pub fn clustered(regions: usize, kernels_per_region: usize, coupling: f64) -> Program {
    let kernels = regions * kernels_per_region;
    generate_clustered(&ClusteredConfig {
        name: format!("clustered_{kernels}"),
        kernels,
        kernels_per_region,
        coupling,
        seed: 0xC10C + kernels as u64,
        ..ClusteredConfig::default()
    })
}

/// Generate a clustered program from `cfg`. O(kernels) work and memory:
/// sharing sets stay region-local (bounded cardinality), so graph
/// construction over the result is near-linear too.
pub fn generate_clustered(cfg: &ClusteredConfig) -> Program {
    assert!(cfg.kernels >= 2, "need at least two kernels");
    assert!(
        cfg.kernels_per_region >= 2,
        "regions need at least 2 kernels"
    );
    let kpr = cfg.kernels_per_region;
    let hubs_n = cfg.hubs_per_region.max(1);
    let n_regions = cfg.kernels.div_ceil(kpr);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC1_05_7E_12);
    let mut pb = ProgramBuilder::new(cfg.name.clone(), cfg.grid);
    pb.launch(cfg.block.0, cfg.block.1);

    // Per-region hub arrays, then one output array per kernel. Declaring
    // region-by-region keeps array ids clustered like the kernels.
    let mut hubs: Vec<Vec<ArrayId>> = Vec::with_capacity(n_regions);
    let mut outs: Vec<ArrayId> = Vec::with_capacity(cfg.kernels);
    for r in 0..n_regions {
        hubs.push((0..hubs_n).map(|h| pb.array(format!("H{r}_{h}"))).collect());
        let lo = r * kpr;
        let hi = (lo + kpr).min(cfg.kernels);
        for i in lo..hi {
            outs.push(pb.array(format!("O{i}")));
        }
    }

    for ki in 0..cfg.kernels {
        let r = ki / kpr;
        let li = ki % kpr; // region-local index
        let mut reads: Vec<(ArrayId, usize)> = Vec::new();

        // Hub reads: one rotating primary (stencil), sometimes a second.
        let region_hubs = &hubs[r];
        reads.push((
            region_hubs[li % hubs_n],
            jitter_load(cfg.thread_load, &mut rng),
        ));
        if hubs_n > 1 && rng.gen_bool(0.4) {
            let h = region_hubs[(li + 1) % hubs_n];
            if !reads.iter().any(|(a, _)| *a == h) {
                reads.push((h, 1));
            }
        }

        // Intra-region dependency chain: consume a recent local output.
        if li > 0 && rng.gen_bool(0.6) {
            let back = 1 + rng.gen_range(0..li.min(3));
            let a = outs[ki - back];
            if !reads.iter().any(|(x, _)| *x == a) {
                reads.push((a, 1));
            }
        }

        // Cross-region coupling: read one of the previous region's last
        // outputs (these arrays' sharing sets then cross the region cut).
        if r > 0 && rng.gen_bool(cfg.coupling) {
            let prev_hi = r * kpr; // first kernel of this region
            let back = 1 + rng.gen_range(0..4.min(prev_hi));
            let a = outs[prev_hi - back];
            if !reads.iter().any(|(x, _)| *x == a) {
                reads.push((a, 1));
            }
        }

        let mut expr: Option<Expr> = None;
        for (ri, &(a, t)) in reads.iter().enumerate() {
            let mut term: Option<Expr> = None;
            for (oi, &o) in footprint(t).iter().enumerate() {
                let load = Expr::load(a, o);
                let scaled = if oi % 3 == 2 {
                    load * Expr::lit(0.5 + oi as f64 * 0.125)
                } else {
                    load
                };
                term = Some(match term {
                    None => scaled,
                    Some(t) => t + scaled,
                });
            }
            let term = term.expect("footprint is non-empty");
            let term = if ri % 2 == 1 {
                term * Expr::lit(1.0 / (ri as f64 + 2.0))
            } else {
                term
            };
            expr = Some(match expr {
                None => term,
                Some(e) => e + term,
            });
        }
        pb.kernel(format!("r{r}k{li}"))
            .write(outs[ki], expr.expect("every kernel reads something"))
            .build();
    }

    let mut p = pb.build();
    // "Rigorously optimized" originals, as in [`generate`]: SMEM staging
    // for every wide read.
    for k in &mut p.kernels {
        let reads = k.reads();
        let mut staging = Vec::new();
        for &a in reads.keys() {
            if k.thread_load(a) > 1 {
                staging.push(Staging {
                    array: a,
                    halo: 0,
                    medium: StagingMedium::Smem,
                });
            }
        }
        staging.sort_unstable_by_key(|s| s.array);
        k.staging = staging;
    }

    debug_assert!(p.validate().is_ok());
    p
}

/// Generate a program from `cfg`.
pub fn generate(cfg: &SynthConfig) -> Program {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED_5EED);
    let mut pb = ProgramBuilder::new(cfg.name.clone(), cfg.grid);
    pb.launch(cfg.block.0, cfg.block.1);

    let arrays: Vec<ArrayId> = (0..cfg.arrays).map(|i| pb.array(format!("D{i}"))).collect();
    // Access mode is a property of the array: coefficient-like fields are
    // read pointwise everywhere, field-like arrays through stencils.
    let pointwise: Vec<bool> = (0..cfg.arrays)
        .map(|_| rng.gen_bool(cfg.pointwise_prob))
        .collect();

    // Partition the array pool: hubs (widely shared inputs), private
    // inputs (read by one or two kernels), flow arrays (produced and
    // consumed along dependency chains), outputs.
    let n_hubs = (cfg.arrays / 5).max(1);
    let hubs = &arrays[..n_hubs];
    let rest = &arrays[n_hubs..];
    let n_inputs = (rest.len() / 4).max(1);
    let inputs = &rest[..n_inputs];
    let rest = &rest[n_inputs..];
    let n_flow = (rest.len() / 2).max(1);
    let flow = &rest[..n_flow];
    let outs = &rest[n_flow..];

    // Remaining share budget per hub: how many more kernels may read it.
    let mut hub_budget: Vec<usize> = hubs.iter().map(|_| cfg.sharing_set).collect();
    // Arrays with values produced by some earlier kernel, newest last.
    let mut produced: Vec<(usize, ArrayId)> = Vec::new(); // (kernel idx, array)
                                                          // Writers per array (to bound expandable multiplicity).
    let mut writers: Vec<usize> = vec![0; cfg.arrays];
    let mut copies_made = 0usize;

    struct KernelDraft {
        name: String,
        reads: Vec<(ArrayId, usize)>, // (array, thread load)
        write: ArrayId,
    }
    let mut drafts: Vec<KernelDraft> = Vec::with_capacity(cfg.kernels);

    for ki in 0..cfg.kernels {
        let mut reads: Vec<(ArrayId, usize)> = Vec::new();

        // Hub reads draw down per-hub sharing budgets; once a hub's
        // budget is exhausted the read is redirected to the low-share
        // private-input pool, so the requested sharing-set cardinality is
        // actually realized.
        let hub_reads = rng.gen_range(1..=cfg.reads_per_kernel.max(1));
        for r in 0..hub_reads {
            let avail: Vec<usize> = hub_budget
                .iter()
                .enumerate()
                .filter(|(_, &b)| b > 0)
                .map(|(i, _)| i)
                .collect();
            let array = if r == 0 {
                // Primary read: a sliding-window hub, so runs of
                // `sharing_set` consecutive kernels share one stencil
                // field — sharing is temporally clustered the way solver
                // phases cluster around their working set.
                let hi = (ki / cfg.sharing_set.max(1)) % hubs.len();
                hubs[hi]
            } else if !avail.is_empty() && rng.gen_bool(0.5) {
                let hi = avail[rng.gen_range(0..avail.len())];
                hub_budget[hi] = hub_budget[hi].saturating_sub(1);
                hubs[hi]
            } else {
                inputs[(ki * cfg.reads_per_kernel + r) % inputs.len()]
            };
            let t = if pointwise[array.index()] {
                1
            } else {
                jitter_load(cfg.thread_load, &mut rng)
            };
            if !reads.iter().any(|(a, _)| *a == array) {
                reads.push((array, t));
            }
        }

        // Dependency read: consume a recent output within the kinship
        // window (creates the precedence structure the search must respect).
        if rng.gen_bool(cfg.dep_prob) {
            let lo = ki.saturating_sub(cfg.kinship);
            let recents: Vec<ArrayId> = produced
                .iter()
                .filter(|(k, _)| *k >= lo)
                .map(|(_, a)| *a)
                .collect();
            if let Some(&a) = pick(&recents, &mut rng) {
                if !reads.iter().any(|(x, _)| *x == a) {
                    // Consuming at a radius makes the fusion complex.
                    let t = if !pointwise[a.index()] && rng.gen_bool(0.5) {
                        jitter_load(cfg.thread_load.min(5), &mut rng)
                    } else {
                        1
                    };
                    reads.push((a, t));
                }
            }
        }

        // Write target: flow array (feeds later kernels) or fresh output.
        // A bounded number of arrays get a second writer (expandable).
        let write = if copies_made < cfg.data_copies && ki > 2 && rng.gen_bool(0.3) {
            // Re-write an already-written flow array.
            let candidates: Vec<ArrayId> = flow
                .iter()
                .copied()
                .filter(|a| writers[a.index()] == 1 && !reads.iter().any(|(x, _)| x == a))
                .collect();
            match pick(&candidates, &mut rng) {
                Some(&a) => {
                    copies_made += 1;
                    a
                }
                None => fresh_target(flow, outs, &writers, &mut rng),
            }
        } else {
            fresh_target(flow, outs, &writers, &mut rng)
        };
        writers[write.index()] += 1;
        produced.push((ki, write));

        drafts.push(KernelDraft {
            name: format!("k{ki}"),
            reads,
            write,
        });
    }

    // Emit kernels (with host sync points at the configured cadence).
    for (ki, d) in drafts.iter().enumerate() {
        if let Some(interval) = cfg.sync_interval {
            if ki > 0 && ki % interval.max(1) == 0 {
                pb.host_sync();
            }
        }
        let _ = ki;
        let mut expr: Option<Expr> = None;
        for (ri, &(a, t)) in d.reads.iter().enumerate() {
            let offs = footprint(t);
            let mut term: Option<Expr> = None;
            for (oi, &o) in offs.iter().enumerate() {
                let load = Expr::load(a, o);
                let scaled = if oi % 3 == 2 {
                    load * Expr::lit(0.5 + oi as f64 * 0.125)
                } else {
                    load
                };
                term = Some(match term {
                    None => scaled,
                    Some(t) => t + scaled,
                });
            }
            let term = term.expect("footprint is non-empty");
            let term = if ri % 2 == 1 {
                term * Expr::lit(1.0 / (ri as f64 + 2.0))
            } else {
                term
            };
            expr = Some(match expr {
                None => term,
                Some(e) => e + term,
            });
        }
        let expr = expr.unwrap_or_else(|| Expr::lit(1.0));
        pb.kernel(d.name.clone()).write(d.write, expr).build();
    }

    let mut p = pb.build();

    // "Rigorously optimized" originals: SMEM staging for thread load > 1.
    for k in &mut p.kernels {
        let reads = k.reads();
        let mut staging = Vec::new();
        for &a in reads.keys() {
            if k.thread_load(a) > 1 {
                staging.push(Staging {
                    array: a,
                    halo: 0,
                    medium: StagingMedium::Smem,
                });
            }
        }
        k.staging = staging;
    }

    debug_assert!(p.validate().is_ok());
    p
}

fn jitter_load(target: usize, rng: &mut SmallRng) -> usize {
    let t = target as i64 + rng.gen_range(-1i64..=1);
    t.clamp(1, 13) as usize
}

fn pick<'a, T>(v: &'a [T], rng: &mut SmallRng) -> Option<&'a T> {
    if v.is_empty() {
        None
    } else {
        Some(&v[rng.gen_range(0..v.len())])
    }
}

fn fresh_target(
    flow: &[ArrayId],
    outs: &[ArrayId],
    writers: &[usize],
    rng: &mut SmallRng,
) -> ArrayId {
    // Prefer an unwritten flow array, then an unwritten output, then any.
    let unwritten_flow: Vec<ArrayId> = flow
        .iter()
        .copied()
        .filter(|a| writers[a.index()] == 0)
        .collect();
    if let Some(&a) = pick(&unwritten_flow, rng) {
        return a;
    }
    let unwritten_out: Vec<ArrayId> = outs
        .iter()
        .copied()
        .filter(|a| writers[a.index()] == 0)
        .collect();
    if let Some(&a) = pick(&unwritten_out, rng) {
        return a;
    }
    *pick(outs, rng)
        .or_else(|| pick(flow, rng))
        .expect("array pools non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::depgraph::{DependencyGraph, TouchClass};

    #[test]
    fn generated_program_is_valid_and_sized_right() {
        let cfg = SynthConfig {
            kernels: 30,
            arrays: 60,
            ..SynthConfig::default()
        };
        let p = generate(&cfg);
        assert!(p.validate().is_ok());
        assert_eq!(p.kernels.len(), 30);
        assert_eq!(p.arrays.len(), 60);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = SynthConfig {
            seed: 1,
            ..SynthConfig::default()
        };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn sharing_sets_exist_with_requested_cardinality() {
        let cfg = SynthConfig {
            kernels: 40,
            arrays: 40,
            sharing_set: 6,
            ..SynthConfig::default()
        };
        let p = generate(&cfg);
        let dep = DependencyGraph::build(&p);
        let max_sharing = (0..p.arrays.len())
            .map(|a| dep.sharing_set(ArrayId(a as u32)).len())
            .max()
            .unwrap();
        assert!(
            max_sharing >= 4,
            "expected hub arrays with wide sharing, max {max_sharing}"
        );
    }

    #[test]
    fn data_copies_produce_expandable_arrays() {
        let cfg = SynthConfig {
            kernels: 40,
            data_copies: 6,
            ..SynthConfig::default()
        };
        let p = generate(&cfg);
        let dep = DependencyGraph::build(&p);
        let expandable = dep
            .classes
            .iter()
            .filter(|&&c| c == TouchClass::ExpandableReadWrite)
            .count();
        assert!(expandable >= 1, "generator must create expandable arrays");
    }

    #[test]
    fn thread_load_tracks_target() {
        let cfg = SynthConfig {
            thread_load: 8,
            ..SynthConfig::default()
        };
        let p = generate(&cfg);
        let mut max_load = 0;
        for k in &p.kernels {
            for &a in k.reads().keys() {
                max_load = max_load.max(k.thread_load(a));
            }
        }
        assert!((7..=9).contains(&max_load), "max thread load {max_load}");
    }

    #[test]
    fn originals_stage_wide_reads() {
        let p = generate(&SynthConfig::default());
        for k in &p.kernels {
            for &a in k.reads().keys() {
                if k.thread_load(a) > 1 {
                    assert!(
                        k.staging.iter().any(|s| s.array == a),
                        "kernel {} must stage wide-read array {a}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn clustered_has_requested_size_and_is_deterministic() {
        let p = clustered(5, 20, 0.2);
        assert_eq!(p.kernels.len(), 100);
        assert!(p.validate().is_ok());
        assert_eq!(p, clustered(5, 20, 0.2));
        // Non-multiple totals truncate the last region.
        let q = generate_clustered(&ClusteredConfig {
            kernels: 50,
            kernels_per_region: 40,
            ..ClusteredConfig::default()
        });
        assert_eq!(q.kernels.len(), 50);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn clustered_sharing_crosses_region_cuts() {
        let p = clustered(4, 25, 0.5);
        let dep = DependencyGraph::build(&p);
        let region_of = |k: usize| k / 25;
        let mut cross = 0;
        for a in 0..p.arrays.len() {
            let s = dep.sharing_set(ArrayId(a as u32));
            if s.len() >= 2
                && s.iter()
                    .any(|k| region_of(k.index()) != region_of(s[0].index()))
            {
                cross += 1;
            }
        }
        assert!(cross >= 1, "coupling must create cross-region sharing sets");
        // Intra-region sharing stays dense: hubs reach several readers.
        let max_sharing = (0..p.arrays.len())
            .map(|a| dep.sharing_set(ArrayId(a as u32)).len())
            .max()
            .unwrap();
        assert!(max_sharing >= 4, "hub sharing too thin: {max_sharing}");
    }

    #[test]
    fn footprint_sizes() {
        assert_eq!(footprint(1).len(), 1);
        assert_eq!(footprint(8).len(), 8);
        assert_eq!(footprint(13).len(), 13);
        assert_eq!(footprint(99).len(), 13); // clamped
                                             // Footprints are distinct positions → thread load == size.
        let f = footprint(12);
        let mut pairs: Vec<_> = f.iter().map(|o| (o.di, o.dj)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 12);
    }
}
