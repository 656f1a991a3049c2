//! Fusion Efficiency (Eqs. 11–12) and reducible-traffic analysis (Table I).

use crate::metadata::ProgramInfo;
use crate::plan::FusionPlan;
use kfuse_ir::KernelId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Ideal GMEM bytes of a fused group under the Table I assumptions: reuse
/// through SMEM of *shared stencil inputs* only. An input array read by
/// ≥2 members, at least one of them with thread load > 1 (more than one
/// thread per block touching the same element — the paper's stated
/// qualification), is fetched once; every other load and every store
/// survives. Produced-array forwarding and halo-compute side effects are
/// deliberately out of scope: this is the paper's static traffic bound,
/// not the fusion planner's projection.
pub fn ideal_fused_bytes(info: &ProgramInfo, group: &[KernelId]) -> u64 {
    let mut members = group.to_vec();
    members.sort_unstable(); // invocation order
    let metas: Vec<_> = members.iter().map(|&k| info.meta(k)).collect();
    let mut arrays: BTreeSet<kfuse_ir::ArrayId> = BTreeSet::new();
    for m in &metas {
        for u in &m.uses {
            arrays.insert(u.array);
        }
    }
    let mut elems = 0u64;
    for a in arrays {
        let uses: Vec<(usize, &crate::metadata::ArrayUse)> = metas
            .iter()
            .enumerate()
            .filter_map(|(mi, m)| m.use_of(a).map(|u| (mi, u)))
            .collect();
        elems += uses.iter().map(|(_, u)| u.store_elems).sum::<u64>();
        let first_writer = uses
            .iter()
            .filter(|(_, u)| u.writes)
            .map(|(mi, _)| *mi)
            .min();
        // Readers of the pre-group value (before any in-group rewrite)
        // share one SMEM fetch; reads of the in-group value (produced-array
        // forwarding) are out of the Table I bound's scope.
        let (early, late): (Vec<_>, Vec<_>) = uses
            .iter()
            .filter(|(_, u)| u.reads)
            .partition(|(mi, _)| first_writer.is_none_or(|w| *mi <= w));
        let smem_reusable = early.iter().any(|(_, u)| u.thread_load > 1);
        if early.len() >= 2 && smem_reusable {
            elems += early.iter().map(|(_, u)| u.load_elems).min().unwrap_or(0);
        } else {
            elems += early.iter().map(|(_, u)| u.load_elems).sum::<u64>();
        }
        elems += late.iter().map(|(_, u)| u.load_elems).sum::<u64>();
    }
    elems * info.elem_bytes()
}

/// Fusion efficiency of one new kernel (Eq. 12): the ratio of memory
/// reduction to runtime reduction — the traffic ratio is Eq. 11's
/// theoretical gain. 1.0 means runtime shrank exactly as much as the
/// traffic; the paper observes 87–96%.
///
/// * `fused_elems` / `fused_time_s` — measured traffic (LD+ST elements)
///   and runtime of the new kernel;
/// * `orig_elems` / `orig_time_s` — summed over the fused originals.
pub fn fusion_efficiency(
    fused_elems: u64,
    fused_time_s: f64,
    orig_elems: u64,
    orig_time_s: f64,
) -> f64 {
    let mem_ratio = fused_elems as f64 / orig_elems.max(1) as f64;
    let time_ratio = fused_time_s / orig_time_s.max(f64::MIN_POSITIVE);
    mem_ratio / time_ratio
}

/// Result of the reducible-traffic analysis for one program (Table I).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReducibleTraffic {
    /// Total GMEM bytes of the original program.
    pub original_bytes: u64,
    /// Bytes under the maximal order-respecting fusion.
    pub max_fused_bytes: u64,
    /// The maximal plan used for the bound.
    pub plan: FusionPlan,
}

impl ReducibleTraffic {
    /// Fraction of GMEM traffic that fusion could remove (Table I's
    /// "Reducible Global Memory Traffic" column).
    pub fn fraction(&self) -> f64 {
        1.0 - self.max_fused_bytes as f64 / self.original_bytes.max(1) as f64
    }
}

/// Compute the upper bound on traffic reduction (Table I): the maximal
/// fusion "that does not invalidate the order-of-execution", with reuse
/// constrained by the architecture the arrays would be reused *through* —
/// on-chip memory. Greedily merges the sharing set of every shared array
/// (widest first), completing groups under path closure, as long as the
/// structural constraints (1.3, 1.5, 1.6, 1.7) hold and the plan's
/// condensation stays acyclic. Profitability (1.1) is deliberately
/// ignored: this is a traffic bound, not a performance claim.
pub fn reducible_traffic(ctx: &crate::plan::PlanContext) -> ReducibleTraffic {
    let info = &ctx.info;
    let n = info.kernels.len();
    let mut group_of: Vec<usize> = (0..n).collect();
    let mut groups: Vec<Vec<KernelId>> = (0..n).map(|i| vec![KernelId(i as u32)]).collect();

    // Arrays by sharing-set width, widest first.
    let mut sharing: Vec<(usize, Vec<usize>)> = Vec::new();
    {
        let mut per_array: std::collections::BTreeMap<kfuse_ir::ArrayId, Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut smem_reusable: std::collections::BTreeSet<kfuse_ir::ArrayId> =
            std::collections::BTreeSet::new();
        for m in &info.kernels {
            for u in &m.uses {
                if u.thread_load > 1 {
                    smem_reusable.insert(u.array);
                }
            }
        }
        for (ki, m) in info.kernels.iter().enumerate() {
            for u in &m.uses {
                per_array.entry(u.array).or_default().push(ki);
            }
        }
        for (a, ks) in per_array {
            // Table I's stated assumption: fusion is driven by arrays with
            // more than one thread per block accessing the same element
            // (i.e. arrays reusable through SMEM).
            if ks.len() >= 2 && smem_reusable.contains(&a) {
                sharing.push((ks.len(), ks));
            }
        }
        sharing.sort_by_key(|e| std::cmp::Reverse(e.0));
    }

    let current_plan = |groups: &Vec<Vec<KernelId>>| {
        FusionPlan::new(groups.iter().filter(|g| !g.is_empty()).cloned().collect())
    };

    let mut scratch = crate::batch::BatchScratch::new();
    for (_, members) in &sharing {
        for w in members.windows(2) {
            let (ga, gb) = (group_of[w[0]], group_of[w[1]]);
            if ga == gb {
                continue;
            }
            // Candidate merge, completed under path closure.
            let mut merged: Vec<KernelId> = groups[ga]
                .iter()
                .chain(groups[gb].iter())
                .copied()
                .collect();
            let mut absorbed = vec![ga, gb];
            let mut ok = false;
            for _ in 0..n {
                match ctx.check_group_with(&merged, 0, &mut scratch) {
                    Ok(_) => {
                        ok = true;
                        break;
                    }
                    Err(crate::plan::PlanError::PathClosure { violator, .. }) => {
                        let gv = group_of[violator.index()];
                        if absorbed.contains(&gv) {
                            break;
                        }
                        merged.extend(groups[gv].iter().copied());
                        absorbed.push(gv);
                    }
                    Err(_) => break,
                }
            }
            if !ok {
                continue;
            }
            // Apply tentatively and verify the condensation stays acyclic.
            let saved = groups.clone();
            let target = *absorbed.iter().min().unwrap();
            for &g in &absorbed {
                groups[g].clear();
            }
            merged.sort_unstable();
            groups[target] = merged.clone();
            if crate::fuse::condensation_order(&current_plan(&groups), &ctx.exec).is_err() {
                groups = saved;
                continue;
            }
            for k in &merged {
                group_of[k.index()] = target;
            }
        }
    }

    let plan = current_plan(&groups);
    let elem = info.elem_bytes();
    let original_bytes: u64 = info.kernels.iter().map(|k| k.traffic_elems * elem).sum();
    let max_fused_bytes: u64 = plan
        .groups
        .iter()
        .map(|g| {
            if g.len() == 1 {
                info.meta(g[0]).traffic_elems * elem
            } else {
                ideal_fused_bytes(info, g)
            }
        })
        .sum();

    ReducibleTraffic {
        original_bytes,
        max_fused_bytes,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::{Expr, Program};

    #[test]
    fn fe_is_one_when_time_tracks_traffic() {
        // Traffic halves, runtime halves → FE = 1.
        assert!((fusion_efficiency(50, 0.5, 100, 1.0) - 1.0).abs() < 1e-12);
        // Runtime shrinks less than traffic → FE < 1.
        assert!(fusion_efficiency(50, 0.6, 100, 1.0) < 1.0);
        // Typical paper range check: 60% traffic, 65% time → ~0.92.
        let fe = fusion_efficiency(60, 0.65, 100, 1.0);
        assert!(fe > 0.87 && fe < 0.96);
    }

    /// Three kernels sharing A heavily; one isolated kernel.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
        let a = pb.array("A");
        let [b, c, d, e, x] = pb.arrays(["B", "C", "D", "E", "X"]);
        // Stencil reads of A (thread load 2) qualify for the SMEM bound.
        let sten = |a| Expr::at(a) + Expr::load(a, kfuse_ir::Offset::new(-1, 0, 0));
        pb.kernel("k0").write(b, sten(a) + Expr::lit(1.0)).build();
        pb.kernel("k1").write(c, sten(a) * Expr::lit(2.0)).build();
        pb.kernel("k2").write(d, sten(a) - Expr::lit(3.0)).build();
        pb.kernel("k3").write(x, Expr::at(e)).build();
        pb.build()
    }

    #[test]
    fn reducible_traffic_is_positive_and_below_one() {
        let p = program();
        let (_, ctx) = crate::pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let r = reducible_traffic(&ctx);
        let f = r.fraction();
        assert!(f > 0.0, "sharing A three times must be reducible");
        assert!(f < 1.0);
        // A fetched once per kernel originally (staged originals load the
        // tile once); fused once → 2 of ~3 loads + 4 stores saved.
        assert!(f > 0.15 && f < 0.45, "fraction {f}");
        // The isolated kernel stays alone.
        assert!(r.plan.groups.iter().any(|g| g.len() == 1));
        assert!(r.plan.groups.iter().any(|g| g.len() == 3));
    }

    #[test]
    fn no_sharing_means_nothing_reducible() {
        let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        pb.kernel("k0").write(b, Expr::at(a)).build();
        pb.kernel("k1").write(d, Expr::at(c)).build();
        let p = pb.build();
        let (_, ctx) = crate::pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        // Note: k0 and k1 share no arrays at all.
        let r = reducible_traffic(&ctx);
        assert_eq!(r.fraction(), 0.0);
    }
}
