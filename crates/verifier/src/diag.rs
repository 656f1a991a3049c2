//! Structured diagnostics: codes, severities, spans, and rendering.
//!
//! Every violation the verifier can detect carries a stable `KF####` code
//! so tests (and downstream tooling) can assert on the *kind* of problem
//! rather than on message text. The code space is split by layer:
//!
//! * `KF00xx` — plan-level constraint system (Fig. 4). `KF0001`–`KF0007`
//!   map one-to-one onto constraints 1.1–1.7; `KF0008`–`KF0010` cover the
//!   §II-C practical restrictions (host syncs, streams) and inter-group
//!   ordering.
//! * `KF01xx` — IR-level hazards on (fused) kernels and the expandable
//!   read-write renaming of `relax.rs`.
//! * `KF02xx` — lint findings on generated CUDA text.
//! * `KF03xx` — semantic analyses over the structured GPU module IR
//!   (`kfuse_codegen::module`): barrier-interval shared-memory races
//!   (`KF0301`–`KF0303`), barrier divergence (`KF0304`), and symbolic
//!   bounds (`KF0305`–`KF0306`). These subsume the text-level `KF02xx`
//!   checks: `KF0201→KF0306`, `KF0202/KF0203→KF0301`,
//!   `KF0204/KF0205→KF0305`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory: the artifact is believed correct but fragile or slow
    /// (e.g. a missing bank-conflict padding column).
    Warning,
    /// The plan / kernel / CUDA text is wrong and must not ship.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where a finding points. All fields are optional so one span type serves
/// plan-, kernel- and text-level diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Group index within the plan under verification.
    pub group: Option<usize>,
    /// Kernel id (`KernelId.0`) the finding anchors to.
    pub kernel: Option<u32>,
    /// 1-based line number in linted CUDA text.
    pub line: Option<usize>,
}

impl Span {
    /// Span pointing at a plan group.
    pub fn group(group: usize) -> Self {
        Span {
            group: Some(group),
            ..Span::default()
        }
    }

    /// Span pointing at a kernel.
    pub fn kernel(kernel: u32) -> Self {
        Span {
            kernel: Some(kernel),
            ..Span::default()
        }
    }

    /// Span pointing at a kernel inside a specific group.
    pub fn group_kernel(group: usize, kernel: u32) -> Self {
        Span {
            group: Some(group),
            kernel: Some(kernel),
            line: None,
        }
    }

    /// Span pointing at a line of CUDA text.
    pub fn line(line: usize) -> Self {
        Span {
            line: Some(line),
            ..Span::default()
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(g) = self.group {
            parts.push(format!("group {g}"));
        }
        if let Some(k) = self.kernel {
            parts.push(format!("K{k}"));
        }
        if let Some(l) = self.line {
            parts.push(format!("line {l}"));
        }
        if parts.is_empty() {
            write!(f, "plan")
        } else {
            write!(f, "{}", parts.join(", "))
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable `KF####` code (see the module docs for the code space).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// What the finding points at.
    pub span: Span,
    /// What is wrong, with concrete numbers where available.
    pub explanation: String,
    /// How to make it go away.
    pub suggestion: String,
}

impl Diagnostic {
    /// Build an error diagnostic.
    pub fn error(
        code: &'static str,
        span: Span,
        explanation: impl Into<String>,
        suggestion: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            explanation: explanation.into(),
            suggestion: suggestion.into(),
        }
    }

    /// Build a warning diagnostic.
    pub fn warning(
        code: &'static str,
        span: Span,
        explanation: impl Into<String>,
        suggestion: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span,
            explanation: explanation.into(),
            suggestion: suggestion.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] {}\n  fix: {}",
            self.code, self.severity, self.span, self.explanation, self.suggestion
        )
    }
}

/// A batch of diagnostics from one verification run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Report {
    /// All findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Wrap a list of diagnostics.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True when no *error* was found (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// True when nothing at all was found.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True if any finding carries `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Merge another report into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Deterministic ordering: by code, then span (group, kernel, line),
    /// then severity and explanation. Renderings of a sorted report are
    /// diffable across runs regardless of check scheduling.
    pub fn sorted(mut self) -> Report {
        self.diagnostics.sort_by(|a, b| {
            (
                a.code,
                a.span.group,
                a.span.kernel,
                a.span.line,
                a.severity,
                &a.explanation,
            )
                .cmp(&(
                    b.code,
                    b.span.group,
                    b.span.kernel,
                    b.span.line,
                    b.severity,
                    &b.explanation,
                ))
        });
        self
    }

    /// Human-readable rendering, one finding per paragraph plus a summary
    /// line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// JSON rendering of the diagnostics array.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(&self.diagnostics).unwrap_or_else(|_| "[]".into())
    }
}

// --- Plan-level codes (constraint system, Fig. 4) --------------------------

/// 1.1: the fused kernel is projected no faster than its original sum.
pub const KF_UNPROFITABLE: &str = "KF0001";
/// 1.2: a kernel is covered by no group (the plan is not an exact cover).
pub const KF_KERNEL_MISSING: &str = "KF0002";
/// 1.3: an outside kernel lies on an exec-order path between two members.
pub const KF_PATH_CLOSURE: &str = "KF0003";
/// 1.4: a kernel is covered twice, or a group names an unknown kernel.
pub const KF_KERNEL_DUPLICATED: &str = "KF0004";
/// 1.5: group members with zero degree of kinship.
pub const KF_KINSHIP: &str = "KF0005";
/// 1.6: SMEM demand (with Eq. 7 bank-conflict padding) exceeds the SMX.
pub const KF_SMEM_OVERFLOW: &str = "KF0006";
/// 1.7: projected registers per thread (Eq. 6) exceed the hardware limit.
pub const KF_REG_OVERFLOW: &str = "KF0007";
/// §II-C: group members lie on opposite sides of a host synchronization.
pub const KF_SYNC_SPLIT: &str = "KF0008";
/// §II-C: group members issue into different CUDA streams.
pub const KF_STREAM_SPLIT: &str = "KF0009";
/// The plan's group condensation has a cycle (no valid launch order).
pub const KF_CONDENSATION_CYCLE: &str = "KF0010";

// --- IR-level hazard codes -------------------------------------------------

/// A later segment reads an SMEM tile an earlier segment wrote with no
/// `__syncthreads()` in between (RAW race across threads).
pub const KF_MISSING_BARRIER: &str = "KF0101";
/// A segment reads, at a neighbor offset, a value produced by an earlier
/// segment of the same kernel that is not staged on-chip (block-mode
/// incoherent: the neighbor's value only exists in its producing thread).
pub const KF_UNSTAGED_PRODUCED_READ: &str = "KF0102";
/// A later segment overwrites an SMEM tile an earlier segment still reads
/// from, with no barrier in between (WAR race across threads).
pub const KF_WAR_NO_BARRIER: &str = "KF0103";
/// A redundant copy introduced by `relax.rs` is read although no producer
/// wrote it first (the copy is not dominated by its producer).
pub const KF_COPY_NOT_DOMINATED: &str = "KF0104";
/// A redundant copy is written by more than one kernel — generations of
/// the expandable array have overlapping live ranges.
pub const KF_COPY_LIVE_RANGE_OVERLAP: &str = "KF0105";
/// A staged array is read at a radius its staging halo does not cover, or
/// at a neighbor offset out of a register (registers hold one site).
pub const KF_INSUFFICIENT_HALO: &str = "KF0106";
/// An array staged through the read-only cache is written by the kernel
/// (the RO cache is not coherent with writes).
pub const KF_RO_CACHE_WRITTEN: &str = "KF0107";

// --- CUDA text lint codes --------------------------------------------------

/// A `__shared__` tile is declared without the bank-conflict padding
/// column (`+ 1` on the fastest dimension, Eq. 7).
pub const KF_LINT_NO_PADDING: &str = "KF0201";
/// A cooperative SMEM fill is not followed by `__syncthreads()` before the
/// first compute segment.
pub const KF_LINT_FILL_NO_BARRIER: &str = "KF0202";
/// A store to an SMEM tile is followed by a neighbor read of the same tile
/// in a later segment with no `__syncthreads()` in between.
pub const KF_LINT_STORE_READ_NO_BARRIER: &str = "KF0203";
/// A global-memory store is not bounds-guarded (`if (i < NX && j < NY)`).
pub const KF_LINT_UNGUARDED_STORE: &str = "KF0204";
/// An SMEM access uses a constant offset outside the tile's declared halo
/// region.
pub const KF_LINT_SMEM_OOB: &str = "KF0205";

// --- Module-IR analysis codes ----------------------------------------------

/// Barrier-interval race: a statement may read tile cells another thread
/// wrote earlier in the same barrier interval (RAW across threads;
/// structural counterpart of `KF0202`/`KF0203`).
pub const KF_RACE_WRITE_READ: &str = "KF0301";
/// Barrier-interval race: two statements in the same interval may write
/// the same tile cell from different threads (WAW).
pub const KF_RACE_WRITE_WRITE: &str = "KF0302";
/// Barrier-interval hazard: a statement may write tile cells another
/// thread still reads later in the same interval (WAR; mirrors the
/// IR-level `KF0103`).
pub const KF_RACE_READ_WRITE: &str = "KF0303";
/// A `__syncthreads()` is reachable under thread-dependent control flow:
/// divergent threads skip the barrier and the block deadlocks or races.
pub const KF_BARRIER_DIVERGENCE: &str = "KF0304";
/// Symbolic bounds: a tile or global access is not provably in-bounds
/// under interval analysis of its affine index (structural counterpart
/// of `KF0204`/`KF0205`).
pub const KF_BOUNDS_UNPROVEN: &str = "KF0305";
/// A shared tile is declared without the Eq. 7 anti-bank-conflict
/// padding column (structural counterpart of `KF0201`).
pub const KF_TILE_UNPADDED: &str = "KF0306";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let d = Diagnostic::error(
            KF_PATH_CLOSURE,
            Span::group_kernel(2, 5),
            "K5 is sandwiched",
            "include K5 in the group",
        );
        let s = d.to_string();
        assert!(s.contains("KF0003"));
        assert!(s.contains("error"));
        assert!(s.contains("group 2"));
        assert!(s.contains("K5"));
        assert!(s.contains("fix:"));
    }

    #[test]
    fn report_counts_and_json() {
        let mut r = Report::default();
        assert!(r.is_clean() && r.is_empty());
        r.diagnostics.push(Diagnostic::warning(
            KF_LINT_NO_PADDING,
            Span::line(3),
            "no padding",
            "add + 1",
        ));
        assert!(r.is_clean() && !r.is_empty());
        r.diagnostics.push(Diagnostic::error(
            KF_SMEM_OVERFLOW,
            Span::group(0),
            "too big",
            "split",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_code(KF_SMEM_OVERFLOW));
        assert!(!r.has_code(KF_KINSHIP));
        let json = r.render_json();
        assert!(json.contains("KF0201") && json.contains("KF0006"));
        let human = r.render_human();
        assert!(human.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
    }
}
