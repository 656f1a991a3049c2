//! Ergonomic builders for programs and kernels.

use crate::{
    array::{ArrayDecl, ArrayId, GridDims},
    expr::Expr,
    kernel::{Kernel, KernelId, Statement},
    program::{LaunchConfig, Program},
};

/// Builds a [`Program`] incrementally.
///
/// ```
/// use kfuse_ir::{builder::ProgramBuilder, expr::Expr, stencil::Offset};
/// let mut pb = ProgramBuilder::new("p", [32, 32, 8]);
/// let a = pb.array("A");
/// let b = pb.array("B");
/// pb.kernel("copy").write(b, Expr::at(a)).build();
/// let p = pb.build();
/// p.validate().unwrap();
/// ```
pub struct ProgramBuilder {
    name: String,
    grid: GridDims,
    launch: LaunchConfig,
    arrays: Vec<ArrayDecl>,
    kernels: Vec<Kernel>,
    host_syncs: Vec<u32>,
    streams: Vec<u32>,
    current_stream: u32,
}

impl ProgramBuilder {
    /// Start a program over `grid` with the default 32×4 block tile.
    pub fn new(name: impl Into<String>, grid: impl Into<GridDims>) -> Self {
        ProgramBuilder {
            name: name.into(),
            grid: grid.into(),
            launch: LaunchConfig::default(),
            arrays: Vec::new(),
            kernels: Vec::new(),
            host_syncs: Vec::new(),
            streams: Vec::new(),
            current_stream: 0,
        }
    }

    /// Override the thread-block tile.
    pub fn launch(&mut self, block_x: u32, block_y: u32) -> &mut Self {
        self.launch = LaunchConfig::new(block_x, block_y);
        self
    }

    /// Declare a data array and return its id.
    pub fn array(&mut self, name: impl Into<String>) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            id,
            name: name.into(),
            redundant_copy_of: None,
        });
        id
    }

    /// Declare several arrays at once.
    pub fn arrays<const N: usize>(&mut self, names: [&str; N]) -> [ArrayId; N] {
        names.map(|n| self.array(n))
    }

    /// Issue subsequent kernels into CUDA stream `id` (§II-C).
    pub fn stream(&mut self, id: u32) -> &mut Self {
        self.current_stream = id;
        self
    }

    /// Insert a host synchronization point before the next kernel (PCIe
    /// transfer or CPU-side work; kernels across it can never fuse).
    pub fn host_sync(&mut self) -> &mut Self {
        let next = self.kernels.len() as u32;
        if !self.host_syncs.contains(&next) && next > 0 {
            self.host_syncs.push(next);
        }
        self
    }

    /// Start building a kernel. Statements are added with
    /// [`KernelBuilder::write`]; call [`KernelBuilder::build`] to commit.
    pub fn kernel(&mut self, name: impl Into<String>) -> KernelBuilder<'_> {
        KernelBuilder {
            pb: self,
            name: name.into(),
            statements: Vec::new(),
        }
    }

    /// Finish; the result is structurally valid by construction but callers
    /// may still run [`Program::validate`] after further transformation.
    pub fn build(self) -> Program {
        Program {
            name: self.name,
            grid: self.grid,
            launch: self.launch,
            arrays: self.arrays,
            kernels: self.kernels,
            host_syncs: self.host_syncs,
            streams: self.streams,
        }
    }

    /// Number of arrays declared so far.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }
}

/// Builds one kernel inside a [`ProgramBuilder`].
pub struct KernelBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    name: String,
    statements: Vec<Statement>,
}

impl KernelBuilder<'_> {
    /// Append `target[i,j,k] = expr`.
    pub fn write(mut self, target: ArrayId, expr: Expr) -> Self {
        self.statements.push(Statement { target, expr });
        self
    }

    /// Commit the kernel to the program and return its id.
    pub fn build(self) -> KernelId {
        let id = KernelId(self.pb.kernels.len() as u32);
        self.pb
            .kernels
            .push(Kernel::single(id, self.name, self.statements));
        self.pb.streams.push(self.pb.current_stream);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::Offset;

    #[test]
    fn builds_sequential_ids() {
        let mut pb = ProgramBuilder::new("p", [32, 16, 4]);
        let [a, b, c] = pb.arrays(["A", "B", "C"]);
        assert_eq!((a, b, c), (ArrayId(0), ArrayId(1), ArrayId(2)));
        let k0 = pb.kernel("k0").write(b, Expr::at(a)).build();
        let k1 = pb
            .kernel("k1")
            .write(c, Expr::load(b, Offset::new(1, 0, 0)))
            .build();
        assert_eq!((k0, k1), (KernelId(0), KernelId(1)));
        let p = pb.build();
        assert!(p.validate().is_ok());
        assert_eq!(p.kernels[1].name, "k1");
    }

    #[test]
    fn launch_override() {
        let mut pb = ProgramBuilder::new("p", [64, 64, 4]);
        pb.launch(16, 16);
        let a = pb.array("A");
        let b = pb.array("B");
        pb.kernel("k").write(b, Expr::at(a)).build();
        let p = pb.build();
        assert_eq!(p.launch.threads_per_block(), 256);
        assert_eq!(p.blocks(), 16);
    }
}
