//! Criterion bench: template-based generation runtime — the paper's "each
//! DCIM design can be generated within one hour" step (netlist templates,
//! Verilog emission, floorplanning). Without the commercial P&R in the
//! loop, generation is milliseconds. The `_1m` cases time the largest
//! macro, where each row of columns is one generate loop.

use criterion::{criterion_group, criterion_main, Criterion};
use sega_bench::fig6_designs;
use sega_cells::Technology;
use sega_estimator::{DcimDesign, Precision};
use sega_layout::floorplan::floorplan_macro;
use sega_layout::LayoutOptions;
use sega_netlist::{generators::generate_macro, verilog};

fn bench_generation(c: &mut Criterion) {
    let (int8, bf16) = fig6_designs();
    let tech = Technology::tsmc28();
    let opts = LayoutOptions::default();
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);

    group.bench_function("netlist_int8_8k", |b| {
        b.iter(|| generate_macro(&int8).unwrap())
    });
    group.bench_function("netlist_bf16_8k", |b| {
        b.iter(|| generate_macro(&bf16).unwrap())
    });

    let netlist = generate_macro(&int8).unwrap();
    group.bench_function("verilog_emit_int8_8k", |b| {
        b.iter(|| verilog::emit(&netlist).unwrap())
    });
    group.bench_function("floorplan_int8_8k", |b| {
        b.iter(|| floorplan_macro(&int8, &tech, &opts).unwrap())
    });

    // The knee `sega-dcim compile --wstore 1048576 --precision fp32`
    // selects: 786,432 columns, the largest macro the compiler builds.
    let fp32_1m = DcimDesign::for_precision(Precision::Fp32, 786_432, 32, 1, 24).unwrap();
    group.bench_function("netlist_fp32_1m", |b| {
        b.iter(|| generate_macro(&fp32_1m).unwrap())
    });
    let netlist = generate_macro(&fp32_1m).unwrap();
    group.bench_function("verilog_emit_fp32_1m", |b| {
        b.iter(|| verilog::emit(&netlist).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
