//! Ablation study for the design choices called out in DESIGN.md §4:
//! don't-care-aware estimation on/off, window size, and don't-care engine.
//!
//! Usage: `cargo run --release -p als-bench --bin ablation [--quick]`.

use als_circuits::registry::find_benchmark;
use als_core::{approximate, AlsConfig, Strategy};
use als_dontcare::DontCareMethod;
use als_mapper::{map_network, Library};

struct Variant {
    label: &'static str,
    configure: fn(&mut AlsConfig),
}

fn main() {
    als_bench::reject_unknown_flags(&["--quick"]);
    let quick = std::env::args().any(|a| a == "--quick");
    let circuits = ["c1908", "alu4", "KSA32"];
    let variants: Vec<Variant> = vec![
        Variant {
            label: "baseline (2x2 Auto DCs)",
            configure: |_| {},
        },
        Variant {
            label: "no don't-cares",
            configure: |c| c.use_dont_cares = false,
        },
        Variant {
            label: "window 1x1",
            configure: |c| {
                c.dont_care.levels_in = 1;
                c.dont_care.levels_out = 1;
            },
        },
        Variant {
            label: "window 3x3",
            configure: |c| {
                c.dont_care.levels_in = 3;
                c.dont_care.levels_out = 3;
            },
        },
        Variant {
            label: "enumeration engine",
            configure: |c| c.dont_care.method = DontCareMethod::Enumerate,
        },
        Variant {
            label: "SAT engine",
            configure: |c| c.dont_care.method = DontCareMethod::Sat,
        },
        Variant {
            label: "no preprocess",
            configure: |c| c.preprocess = false,
        },
        Variant {
            label: "exact BDD don't-cares",
            configure: |c| c.exact_dont_cares = true,
        },
    ];

    let lib = Library::mcnc_like();
    println!("Ablation: single-selection at a 5% threshold");
    print!("{:<24}", "variant");
    for c in &circuits {
        print!(" | {c:>8} ratio {:>7}", "time/s");
    }
    println!();
    for v in &variants {
        print!("{:<24}", v.label);
        for name in &circuits {
            let bench = find_benchmark(name).expect("registry circuit");
            let golden = (bench.build)();
            let base_area = map_network(&golden, &lib).area();
            let mut config = AlsConfig::with_threshold(0.05);
            if quick {
                config.patterns = 2048;
            }
            (v.configure)(&mut config);
            let outcome = approximate(&golden, Strategy::Single, &config)
                .expect("registry circuits and the ablation configs are valid");
            let area = map_network(&outcome.network, &lib).area();
            print!(
                " | {:>14.3} {:>7.2}",
                area / base_area,
                outcome.runtime.as_secs_f64()
            );
        }
        println!();
    }
    println!();
    println!("expected: don't-cares and wider windows buy area at runtime cost;");
    println!("the preprocess matters on circuits with structural redundancy.");
}
