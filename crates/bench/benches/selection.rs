//! Microbench: end-to-end algorithm cost on a small circuit — SASIMI vs.
//! single-selection vs. multi-selection, plus the don't-care ablation
//! (DESIGN.md §4.1 and §4.3). This is the runtime story of Table 4 in
//! miniature.

use als_circuits::ripple_carry_adder;
use als_core::sasimi::sasimi;
use als_core::{multi_selection, single_selection, AlsConfig, PatternPolicy};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn quick_config() -> AlsConfig {
    let mut config = AlsConfig::with_threshold(0.03);
    config.patterns = PatternPolicy::Fixed(1024);
    config.dont_care.method = als_dontcare::DontCareMethod::Enumerate;
    config
}

fn bench_selection(c: &mut Criterion) {
    let net = ripple_carry_adder(8);
    let config = quick_config();
    let mut group = c.benchmark_group("selection");
    group.sample_size(10);
    group.bench_function("single_selection/RCA8", |b| {
        b.iter(|| single_selection(black_box(&net), black_box(&config)));
    });
    group.bench_function("multi_selection/RCA8", |b| {
        b.iter(|| multi_selection(black_box(&net), black_box(&config)));
    });
    group.bench_function("sasimi/RCA8", |b| {
        b.iter(|| sasimi(black_box(&net), black_box(&config)));
    });
    let mut no_dc = config;
    no_dc.use_dont_cares = false;
    group.bench_function("single_selection_no_dontcares/RCA8", |b| {
        b.iter(|| single_selection(black_box(&net), black_box(&no_dc)));
    });
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
