//! Stencil expressions.

use crate::{array::ArrayId, stencil::Offset};
use serde::{Deserialize, Serialize};
use std::ops;

/// Binary arithmetic operators. Each application counts as one FLOP, the
/// convention the paper's `Fl` / `Flop(x)` metadata (Table III) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Elementwise minimum (e.g. the flux limiter in Fig. 3 kernel C).
    Min,
    /// Elementwise maximum.
    Max,
}

impl BinOp {
    /// Apply the operator to two values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

/// A pure stencil expression evaluated at every grid site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Load `array[i+di, j+dj, k+dk]`.
    Load {
        /// Source array.
        array: ArrayId,
        /// Stencil offset from the thread's site.
        offset: Offset,
    },
    /// A scalar constant (e.g. the time-step `dtr` in Fig. 3).
    Const(f64),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Load `array` at `offset`.
    pub fn load(array: ArrayId, offset: Offset) -> Expr {
        Expr::Load { array, offset }
    }

    /// Load `array` at the thread's own site.
    pub fn at(array: ArrayId) -> Expr {
        Expr::load(array, Offset::ZERO)
    }

    /// A scalar constant.
    pub fn lit(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Combine with a binary operator.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Elementwise minimum.
    pub fn min(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Min, self, rhs)
    }

    /// Elementwise maximum.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Max, self, rhs)
    }

    /// Number of floating-point operations per grid site.
    pub fn flops(&self) -> u64 {
        match self {
            Expr::Load { .. } | Expr::Const(_) => 0,
            Expr::Bin { lhs, rhs, .. } => 1 + lhs.flops() + rhs.flops(),
        }
    }

    /// Visit every load in the expression.
    pub fn for_each_load(&self, f: &mut impl FnMut(ArrayId, Offset)) {
        match self {
            Expr::Load { array, offset } => f(*array, *offset),
            Expr::Const(_) => {}
            Expr::Bin { lhs, rhs, .. } => {
                lhs.for_each_load(f);
                rhs.for_each_load(f);
            }
        }
    }

    /// All loads `(array, offset)` in the expression, in syntactic order
    /// (duplicates preserved — useful for access counting).
    pub fn loads(&self) -> Vec<(ArrayId, Offset)> {
        let mut v = Vec::new();
        self.for_each_load(&mut |a, o| v.push((a, o)));
        v
    }

    /// Visit the array of every load in place, in syntactic order: a
    /// rename that keeps the tree (the relaxation's) allocates nothing.
    pub fn for_each_array_mut(&mut self, f: &mut impl FnMut(&mut ArrayId)) {
        match self {
            Expr::Load { array, .. } => f(array),
            Expr::Const(_) => {}
            Expr::Bin { lhs, rhs, .. } => {
                lhs.for_each_array_mut(f);
                rhs.for_each_array_mut(f);
            }
        }
    }

    /// Rewrite every load through `f` into a new expression (used where
    /// the original must survive: sub-program extraction).
    pub fn map_arrays(&self, f: &impl Fn(ArrayId) -> ArrayId) -> Expr {
        match self {
            Expr::Load { array, offset } => Expr::Load {
                array: f(*array),
                offset: *offset,
            },
            Expr::Const(c) => Expr::Const(*c),
            Expr::Bin { op, lhs, rhs } => Expr::Bin {
                op: *op,
                lhs: Box::new(lhs.map_arrays(f)),
                rhs: Box::new(rhs.map_arrays(f)),
            },
        }
    }
}

impl ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}

impl ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}

impl ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}

impl ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> ArrayId {
        ArrayId(0)
    }

    #[test]
    fn flop_counting() {
        let e = Expr::at(a()) + Expr::at(a()) * Expr::lit(2.0);
        assert_eq!(e.flops(), 2);
        assert_eq!(Expr::lit(1.0).flops(), 0);
        assert_eq!(Expr::at(a()).flops(), 0);
    }

    #[test]
    fn loads_preserve_duplicates() {
        let e = Expr::at(a()) + Expr::at(a());
        assert_eq!(e.loads().len(), 2);
    }

    #[test]
    fn operators_apply_correctly() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn map_arrays_rewrites_loads() {
        let e = Expr::at(ArrayId(0)) + Expr::at(ArrayId(1));
        let m = e.map_arrays(&|id| if id == ArrayId(0) { ArrayId(9) } else { id });
        let loads = m.loads();
        assert_eq!(loads[0].0, ArrayId(9));
        assert_eq!(loads[1].0, ArrayId(1));
    }

    #[test]
    fn for_each_array_mut_renames_in_place_like_map_arrays() {
        let mut e = Expr::at(ArrayId(0)) * Expr::lit(2.0) + Expr::at(ArrayId(1));
        let rename = |id: ArrayId| if id == ArrayId(0) { ArrayId(9) } else { id };
        let mapped = e.map_arrays(&rename);
        e.for_each_array_mut(&mut |a| *a = rename(*a));
        assert_eq!(e, mapped);
    }

    #[test]
    fn min_max_builders() {
        let e = Expr::at(a()).min(Expr::lit(0.0)).max(Expr::lit(-1.0));
        assert_eq!(e.flops(), 2);
    }
}
