//! Microbench: SDC/ODC computation cost — enumeration vs. SAT vs. `Auto`
//! engines and the window-size knob (DESIGN.md §4.4).

use als_circuits::ripple_carry_adder;
use als_dontcare::{compute_dont_cares, DontCareConfig, DontCareMethod};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_dontcare(c: &mut Criterion) {
    let net = ripple_carry_adder(16);
    let nodes: Vec<_> = net.internal_ids().take(24).collect();
    let mut group = c.benchmark_group("dontcare");
    for (label, method) in [
        ("enumerate", DontCareMethod::Enumerate),
        ("sat", DontCareMethod::Sat),
        ("auto", DontCareMethod::Auto),
    ] {
        for levels in [1usize, 2] {
            let config = DontCareConfig {
                levels_in: levels,
                levels_out: levels,
                method,
                ..DontCareConfig::default()
            };
            group.bench_function(format!("{label}/window{levels}x{levels}"), |b| {
                b.iter(|| {
                    for &n in &nodes {
                        black_box(compute_dont_cares(black_box(&net), n, &config));
                    }
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dontcare);
criterion_main!(benches);
