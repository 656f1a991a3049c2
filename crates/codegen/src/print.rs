//! CUDA C pretty-printer over the structured [`GpuModule`] IR.
//!
//! Rendering is a pure function of the module: staging resolution,
//! barrier placement, and name resolution all happened in
//! `crate::module::build_module`, so this file only decides *text*.
//! The output is pinned byte-for-byte against digests of what the
//! historical direct emitter printed, by golden tests over every
//! built-in workload and both option sets.
//!
//! The one piece of logic that lives here is *site rendering*: the same
//! resolved access prints differently at the thread's own interior site
//! vs. a specialized-warp halo site (register hits fall back to GMEM,
//! tile hits become guarded in-tile/GMEM ternaries), mirroring how the
//! historical emitter threaded its `Site` parameter.

use crate::module::{
    Access, AccessKind, CExpr, ComputeStmt, GpuModule, KernelModule, LaunchStep, StageDecl, Stmt,
};
use kfuse_ir::{Offset, StagingMedium};
use std::fmt::Write;

/// Where the printed expression is being evaluated.
#[derive(Clone, Copy)]
enum Site<'a> {
    /// The thread's own site: local (tx, ty), global (i, j), level `k`.
    Interior,
    /// A halo site handled by a specialized warp: local/global
    /// coordinate variable names.
    Halo {
        lx: &'a str,
        ly: &'a str,
        gi: &'a str,
        gj: &'a str,
    },
}

fn element_type(m: &GpuModule) -> &'static str {
    if m.double_precision {
        "double"
    } else {
        "float"
    }
}

fn offset_index(base: &str, d: i8, extent: &str) -> String {
    match d.cmp(&0) {
        std::cmp::Ordering::Equal => format!("CLAMPI({base}, {extent})"),
        _ => format!("CLAMPI({base} + ({d}), {extent})"),
    }
}

fn gmem_load(m: &GpuModule, a: kfuse_ir::ArrayId, o: Offset, site: Site) -> String {
    let (i, j) = match site {
        Site::Interior => ("i".to_string(), "j".to_string()),
        Site::Halo { gi, gj, .. } => (gi.to_string(), gj.to_string()),
    };
    let ix = offset_index(&i, o.di, "NX");
    let jx = offset_index(&j, o.dj, "NY");
    let kx = offset_index("k", o.dk, "NZ");
    format!("{}[IDX3({ix}, {jx}, {kx})]", m.array_name(a))
}

fn smem_at(name: &str, lx: &str, ly: &str) -> String {
    format!("s_{name}[{ly}][{lx}]")
}

/// Render a tile access guarded by an in-tile test against the GMEM
/// fallback, at a halo-warp site.
fn halo_tile_access(m: &GpuModule, st: &StageDecl, acc: &Access, site: Site) -> String {
    let Site::Halo { lx, ly, .. } = site else {
        unreachable!("halo_tile_access requires a halo site");
    };
    let o = acc.offset;
    let h = st.halo;
    let nlx = format!("{lx} + {}", o.di);
    let nly = format!("{ly} + {}", o.dj);
    let in_tile = format!(
        "({lx} + {dx} >= 0 && {lx} + {dx} < BX + 2*{h} && \
         {ly} + {dy} >= 0 && {ly} + {dy} < BY + 2*{h})",
        dx = o.di,
        dy = o.dj,
        h = h
    );
    format!(
        "({in_tile} ? {} : {})",
        smem_at(&st.name, &nlx, &nly),
        gmem_load(m, acc.array, o, site)
    )
}

fn access(m: &GpuModule, k: &KernelModule, acc: &Access, site: Site) -> String {
    let o = acc.offset;
    match acc.kind {
        AccessKind::Gmem => gmem_load(m, acc.array, o, site),
        AccessKind::Ldg => format!("__ldg(&{})", gmem_load(m, acc.array, o, site)),
        AccessKind::Reg { stage } => match site {
            // Register staging only caches the thread's own center value;
            // halo warps evaluate at foreign sites and must go to GMEM.
            Site::Interior => format!("r_{}", k.stages[stage].name),
            Site::Halo { .. } => gmem_load(m, acc.array, o, site),
        },
        AccessKind::Tile { stage } => {
            let st = &k.stages[stage];
            match site {
                Site::Interior => {
                    let lx = format!("tx + {}", st.halo + i32::from(o.di));
                    let ly = format!("ty + {}", st.halo + i32::from(o.dj));
                    smem_at(&st.name, &lx, &ly)
                }
                Site::Halo { .. } => halo_tile_access(m, st, acc, site),
            }
        }
        AccessKind::TileEdge { stage } => {
            let st = &k.stages[stage];
            match site {
                Site::Interior => {
                    // Listing 7 pattern: boundary threads read GMEM.
                    let h = st.halo;
                    let lx = format!("tx + {}", h + i32::from(o.di));
                    let ly = format!("ty + {}", h + i32::from(o.dj));
                    let in_tile = format!(
                        "(tx + {dx} >= -{h} && tx + {dx} < BX + {h} && \
                         ty + {dy} >= -{h} && ty + {dy} < BY + {h})",
                        dx = o.di,
                        dy = o.dj,
                        h = h
                    );
                    format!(
                        "({in_tile} ? {} : {})",
                        smem_at(&st.name, &lx, &ly),
                        gmem_load(m, acc.array, o, site)
                    )
                }
                Site::Halo { .. } => halo_tile_access(m, st, acc, site),
            }
        }
    }
}

fn expr(m: &GpuModule, k: &KernelModule, e: &CExpr, site: Site) -> String {
    match e {
        CExpr::Access(a) => access(m, k, a, site),
        CExpr::Const(c) => {
            if m.double_precision {
                format!("{c:?}")
            } else {
                format!("{c:?}f")
            }
        }
        CExpr::Bin { op, lhs, rhs } => {
            use kfuse_ir::BinOp::*;
            let l = expr(m, k, lhs, site);
            let r = expr(m, k, rhs, site);
            match op {
                Add => format!("({l} + {r})"),
                Sub => format!("({l} - {r})"),
                Mul => format!("({l} * {r})"),
                Div => format!("({l} / {r})"),
                Min => format!("fmin({l}, {r})"),
                Max => format!("fmax({l}, {r})"),
            }
        }
    }
}

fn print_compute(s: &mut String, m: &GpuModule, k: &KernelModule, c: &ComputeStmt, indent: &str) {
    let ty = element_type(m);
    let v = &c.value;
    let rhs = expr(m, k, &c.expr, Site::Interior);
    let _ = writeln!(s, "{indent}    {{");
    let _ = writeln!(s, "{indent}      const {ty} {v} = {rhs};");
    if let Some(si) = c.tile_store {
        let st = &k.stages[si];
        let (tname, h) = (&st.name, st.halo);
        let _ = writeln!(s, "{indent}      s_{tname}[ty + {h}][tx + {h}] = {v};");
    }
    if let Some(si) = c.reg_store {
        let _ = writeln!(s, "{indent}      r_{} = {v};", k.stages[si].name);
    }
    if let Some(gs) = c.global_store {
        let tname = m.array_name(gs.array);
        if gs.guarded {
            let _ = writeln!(
                s,
                "{indent}      if (i < NX && j < NY) {tname}[IDX3(i, j, k)] = {v};"
            );
        } else {
            let _ = writeln!(s, "{indent}      {tname}[IDX3(i, j, k)] = {v};");
        }
    }
    if c.halo_recompute {
        if let Some(si) = c.tile_store {
            let st = &k.stages[si];
            let (tname, h) = (&st.name, st.halo);
            // Specialized warps recompute the halo ring (generalized
            // Listing 6).
            let halo_rhs = expr(
                m,
                k,
                &c.expr,
                Site::Halo {
                    lx: "hlx",
                    ly: "hly",
                    gi: "hgi",
                    gj: "hgj",
                },
            );
            let _ = writeln!(
                s,
                "{indent}      // specialized warps: recompute halo ring of s_{tname}"
            );
            let _ = writeln!(
                s,
                "{indent}      for (int t = tid; t < (BX + 2*{h}) * (BY + 2*{h}); t += BX * BY) {{"
            );
            let _ = writeln!(s, "{indent}        const int hlx = t % (BX + 2*{h});");
            let _ = writeln!(s, "{indent}        const int hly = t / (BX + 2*{h});");
            let _ = writeln!(
                s,
                "{indent}        if (hlx >= {h} && hlx < BX + {h} && hly >= {h} && hly < BY + {h}) continue;"
            );
            let _ = writeln!(
                s,
                "{indent}        const int hgi = CLAMPI(blockIdx.x * BX + hlx - {h}, NX);"
            );
            let _ = writeln!(
                s,
                "{indent}        const int hgj = CLAMPI(blockIdx.y * BY + hly - {h}, NY);"
            );
            let _ = writeln!(s, "{indent}        s_{tname}[hly][hlx] = {halo_rhs};");
            let _ = writeln!(s, "{indent}      }}");
        }
    }
    let _ = writeln!(s, "{indent}    }}");
}

fn print_stmts(s: &mut String, m: &GpuModule, k: &KernelModule, stmts: &[Stmt], indent: &str) {
    for stmt in stmts {
        match stmt {
            Stmt::SegmentMark { source } => {
                // Segment provenance: source ids refer to the pre-fusion
                // program, which is not in scope here; emit the id (the
                // fused kernel's name lists the member names).
                let _ = writeln!(
                    s,
                    "{indent}    // ---- segment from original kernel {source} ----"
                );
            }
            Stmt::Barrier { .. } => {
                let _ = writeln!(s, "{indent}    __syncthreads();");
            }
            Stmt::CoopFill { stage } => {
                let st = &k.stages[*stage];
                let (name, h) = (&st.name, st.halo);
                let _ = writeln!(s, "{indent}    // cooperative fill of s_{name} (halo {h})");
                let _ = writeln!(
                    s,
                    "{indent}    for (int t = tid; t < (BX + 2*{h}) * (BY + 2*{h}); t += BX * BY) {{"
                );
                let _ = writeln!(s, "{indent}      const int lx = t % (BX + 2*{h});");
                let _ = writeln!(s, "{indent}      const int ly = t / (BX + 2*{h});");
                let _ = writeln!(
                    s,
                    "{indent}      const int gi = CLAMPI(blockIdx.x * BX + lx - {h}, NX);"
                );
                let _ = writeln!(
                    s,
                    "{indent}      const int gj = CLAMPI(blockIdx.y * BY + ly - {h}, NY);"
                );
                let _ = writeln!(
                    s,
                    "{indent}      s_{name}[ly][lx] = {name}[IDX3(gi, gj, k)];"
                );
                let _ = writeln!(s, "{indent}    }}");
            }
            Stmt::Compute(c) => print_compute(s, m, k, c, indent),
            Stmt::ThreadIf { cond, body } => {
                let _ = writeln!(s, "{indent}    if ({cond}) {{");
                let deeper = format!("{indent}  ");
                print_stmts(s, m, k, body, &deeper);
                let _ = writeln!(s, "{indent}    }}");
            }
        }
    }
}

/// Print one kernel of the module as CUDA C.
pub fn print_kernel(m: &GpuModule, k: &KernelModule) -> String {
    let ty = element_type(m);
    let mut s = String::new();

    // Signature: written arrays mutable, read-only arrays const.
    let params: Vec<String> = k
        .params
        .iter()
        .map(|p| {
            if !p.constant {
                format!("{ty}* {}", p.name)
            } else if m.restrict {
                format!("const {ty}* __restrict__ {}", p.name)
            } else {
                format!("const {ty}* {}", p.name)
            }
        })
        .collect();
    let _ = writeln!(
        s,
        "// {} segment(s), {} barrier(s)",
        k.segment_count(),
        k.planned_barrier_count()
    );
    let _ = writeln!(s, "__global__ void {}({}) {{", k.name, params.join(", "));
    let _ = writeln!(s, "  const int tx = threadIdx.x, ty = threadIdx.y;");
    let _ = writeln!(s, "  const int i = blockIdx.x * BX + tx;");
    let _ = writeln!(s, "  const int j = blockIdx.y * BY + ty;");
    let _ = writeln!(s, "  const int tid = ty * BX + tx;");
    let _ = writeln!(s, "  (void)tid;");

    // SMEM tiles (one padding column against bank conflicts, Eq. 7) and
    // register staging.
    for st in &k.stages {
        let name = &st.name;
        match st.medium {
            StagingMedium::Smem => {
                let h = st.halo;
                if st.padded {
                    let _ = writeln!(s, "  __shared__ {ty} s_{name}[BY + 2*{h}][BX + 2*{h} + 1];");
                } else {
                    let _ = writeln!(s, "  __shared__ {ty} s_{name}[BY + 2*{h}][BX + 2*{h}];");
                }
            }
            StagingMedium::Register => {
                let _ = writeln!(s, "  {ty} r_{name} = ({ty})0;");
            }
            StagingMedium::ReadOnlyCache => {
                let _ = writeln!(s, "  // {name} routed through the read-only cache (__ldg)");
            }
        }
    }

    let _ = writeln!(s, "  for (int k = 0; k < NZ; ++k) {{");
    print_stmts(&mut s, m, k, &k.body, "");
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

/// Print the module header: index macros and grid/block constants.
fn print_header(m: &GpuModule) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// Generated by kfuse-codegen — program `{}`",
        m.program_name
    );
    let _ = writeln!(
        s,
        "// Grid {}x{}x{}, block {}x{}, {} precision",
        m.grid[0],
        m.grid[1],
        m.grid[2],
        m.block.0,
        m.block.1,
        if m.double_precision {
            "double"
        } else {
            "single"
        }
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "#define NX {}", m.grid[0]);
    let _ = writeln!(s, "#define NY {}", m.grid[1]);
    let _ = writeln!(s, "#define NZ {}", m.grid[2]);
    let _ = writeln!(s, "#define BX {}", m.block.0);
    let _ = writeln!(s, "#define BY {}", m.block.1);
    let _ = writeln!(s, "#define IDX3(i, j, k) ((((k) * NY + (j)) * NX) + (i))");
    let _ = writeln!(
        s,
        "#define CLAMPI(v, n) ((v) < 0 ? 0 : ((v) >= (n) ? (n) - 1 : (v)))"
    );
    s
}

/// Print the whole module: header, every kernel, and the host-side
/// launch sequence comment (including host sync points).
pub fn print_module(m: &GpuModule) -> String {
    let mut s = print_header(m);
    let _ = writeln!(s);
    for k in &m.kernels {
        s.push_str(&print_kernel(m, k));
        let _ = writeln!(s);
    }
    let _ = writeln!(s, "// Host launch sequence:");
    for step in &m.launch {
        match step {
            LaunchStep::HostSync => {
                let _ = writeln!(s, "//   <host synchronization>");
            }
            LaunchStep::Kernel(ki) => {
                let _ = writeln!(
                    s,
                    "//   {}<<<dim3((NX+BX-1)/BX, (NY+BY-1)/BY), dim3(BX, BY)>>>(...);",
                    m.kernels[*ki].name
                );
            }
        }
    }
    s
}
