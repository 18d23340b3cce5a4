//! Timing-aware Pareto design-space sweeps.
//!
//! The paper evaluates every circuit at a *grid* of error-rate thresholds
//! (Table 4); this module runs such a grid — threshold × algorithm ×
//! pattern count — as one orchestrated job and reports the
//! area/delay/error **Pareto frontier** instead of a single operating
//! point:
//!
//! * shared artifacts are computed once per sweep as one
//!   [`CircuitArtifacts`] bundle: the golden network's mapped area and
//!   critical-path delay, its static signal-probability intervals (the
//!   abstract interpreter's summary, embedded as record metadata), and one
//!   simulated [`AlsContext`](crate::AlsContext) per distinct pattern
//!   count (the golden signatures are the expensive part; grid jobs get
//!   clones);
//! * grid points run as parallel jobs over a work-stealing queue with
//!   slot-indexed results, so the frontier is byte-identical for any
//!   worker count (pinned by the `sweep_determinism` test);
//! * each job runs with its telemetry disabled — per-job isolation — while
//!   sweep-level [`Event::SweepStart`]/[`Event::SweepPointDone`] events go
//!   to the caller's sinks in deterministic grid order;
//! * every point is technology-mapped and kept: dominated points are
//!   *tagged*, not dropped, so trajectories stay auditable.
//!
//! The resulting [`SweepRecord`] serializes to a schema-versioned JSON
//! (`SWEEP_<circuit>.json`) that `als-bench`'s compare gate diffs against
//! checked-in baselines: a point whose baseline twin was non-dominated
//! turning dominated by the baseline frontier is a regression.

use crate::api;
use crate::{AlsConfig, AlsError, CircuitArtifacts, DelayWeight, Strategy};
use als_mapper::{map_network, Library};
use als_network::Network;
use als_telemetry::{Event, Json, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema version of [`SweepRecord`] JSON.
///
/// * **v1** — initial: golden `{literals, area, delay}`, absint metadata,
///   points with `(algorithm, threshold, patterns, delay_weight)` identity
///   and `(literals, area, delay, error_rate)` objectives, `dominated`
///   tags.
/// * **v2** — a point's `patterns` is its pattern count, a JSON integer
///   (was a `fixed:N` / `adaptive:MIN..MAX` spec string).
pub const SWEEP_SCHEMA_VERSION: u64 = 2;

/// The paper's Table-4 threshold grid (also used by `als-bench`).
pub const FULL_THRESHOLDS: [f64; 7] = [0.001, 0.003, 0.005, 0.008, 0.01, 0.03, 0.05];

/// The CI-speed subset of [`FULL_THRESHOLDS`].
pub const QUICK_THRESHOLDS: [f64; 4] = [0.001, 0.005, 0.01, 0.05];

/// The grid a sweep runs: every threshold × strategy × pattern count.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// Error-rate thresholds, one synthesis run per entry (× the other
    /// axes).
    pub thresholds: Vec<f64>,
    /// Selection algorithms to run at each threshold.
    pub strategies: Vec<Strategy>,
    /// Pattern counts to run each (threshold, strategy) pair under.
    pub patterns: Vec<usize>,
    /// Delay-aware scoring policy applied to every grid point.
    pub delay_weight: DelayWeight,
    /// Worker threads for grid-point dispatch (`0` = available
    /// parallelism, `1` = run points inline). Results are byte-identical
    /// for every setting.
    pub sweep_workers: usize,
    /// Whether this is the reduced CI grid (recorded for provenance).
    pub quick: bool,
}

impl SweepGrid {
    /// The CI grid: [`QUICK_THRESHOLDS`] × all three algorithms at 2,048
    /// patterns.
    #[must_use]
    pub fn quick() -> Self {
        SweepGrid {
            thresholds: QUICK_THRESHOLDS.to_vec(),
            strategies: vec![Strategy::Single, Strategy::Multi, Strategy::Sasimi],
            patterns: vec![2048],
            delay_weight: DelayWeight::Off,
            sweep_workers: 0,
            quick: true,
        }
    }

    /// The full grid: the paper's Table-4 thresholds × all three
    /// algorithms, at the paper's pattern count.
    #[must_use]
    pub fn full() -> Self {
        SweepGrid {
            thresholds: FULL_THRESHOLDS.to_vec(),
            strategies: vec![Strategy::Single, Strategy::Multi, Strategy::Sasimi],
            patterns: vec![als_sim::DEFAULT_NUM_PATTERNS],
            delay_weight: DelayWeight::Off,
            sweep_workers: 0,
            quick: false,
        }
    }

    /// The number of grid points this grid expands to.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.thresholds.len() * self.strategies.len() * self.patterns.len()
    }
}

/// One evaluated grid point: its identity on the grid, its mapped
/// objectives, and its Pareto tag.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Algorithm name (`single-selection`, `multi-selection`, `sasimi`).
    pub algorithm: String,
    /// The error-rate threshold the point ran under.
    pub threshold: f64,
    /// Pattern count every error rate of the point was measured on.
    pub patterns: u64,
    /// Delay-weight spec (`off` or `scaled:W`).
    pub delay_weight: String,
    /// Final literal count of the approximated network.
    pub literals: u64,
    /// `literals / golden literals`.
    pub literal_ratio: f64,
    /// Mapped cell area of the approximated network.
    pub area: f64,
    /// `area / golden area`.
    pub area_ratio: f64,
    /// Mapped critical-path delay of the approximated network.
    pub delay: f64,
    /// `delay / golden delay`.
    pub delay_ratio: f64,
    /// Measured error rate against the golden network.
    pub error_rate: f64,
    /// Wall-clock synthesis + mapping time of this point.
    pub runtime_s: f64,
    /// Whether another point of the same sweep Pareto-dominates this one
    /// (dominated points are tagged, never dropped).
    pub dominated: bool,
}

impl SweepPoint {
    /// The minimized objective vector: `(literals, delay, error rate)`.
    #[must_use]
    pub fn objectives(&self) -> [f64; 3] {
        [self.literals as f64, self.delay, self.error_rate] // lint:allow(as-cast): literal counts << 2^52, exact in f64
    }

    /// The grid-identity key baselines are matched on.
    #[must_use]
    pub fn key(&self) -> (String, String, u64, String) {
        (
            self.algorithm.clone(),
            format!("{:.6}", self.threshold),
            self.patterns,
            self.delay_weight.clone(),
        )
    }
}

/// Whether objective vector `a` Pareto-dominates `b` (all objectives
/// minimized): `a` is no worse everywhere and strictly better somewhere.
/// Equal vectors do not dominate each other, so dominance is a strict
/// partial order (irreflexive, antisymmetric, transitive).
#[must_use]
pub fn dominates(a: [f64; 3], b: [f64; 3]) -> bool {
    let no_worse = a.iter().zip(&b).all(|(x, y)| x <= y);
    let better = a.iter().zip(&b).any(|(x, y)| x < y);
    no_worse && better
}

/// Tags every point dominated by some other point of the slice; the
/// untagged remainder is the Pareto frontier. O(n²), which is fine for
/// grid-sized inputs.
pub fn mark_frontier(points: &mut [SweepPoint]) {
    let objectives: Vec<[f64; 3]> = points.iter().map(SweepPoint::objectives).collect();
    for (i, point) in points.iter_mut().enumerate() {
        point.dominated = objectives
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && dominates(*other, objectives[i]));
    }
}

/// A whole sweep's result: shared golden baselines, absint metadata, and
/// every grid point with its Pareto tag.
#[derive(Clone, Debug)]
pub struct SweepRecord {
    /// Schema version ([`SWEEP_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Circuit name.
    pub circuit: String,
    /// Git commit the sweep ran at (`unknown` outside a checkout).
    pub git_sha: String,
    /// Stimulus seed shared by every grid point.
    pub seed: u64,
    /// Whether the reduced CI grid ran.
    pub quick: bool,
    /// Configured sweep worker count (provenance only; results are
    /// worker-count-independent).
    pub sweep_workers: usize,
    /// Free-form environment notes.
    pub notes: String,
    /// Golden network literal count.
    pub golden_literals: u64,
    /// Golden mapped cell area.
    pub golden_area: f64,
    /// Golden mapped critical-path delay.
    pub golden_delay: f64,
    /// Abstract-interpretation metadata: nodes forced to worst-case
    /// Fréchet bounds under reconvergent fanout.
    pub absint_frechet_nodes: u64,
    /// Widest static signal-probability interval over the golden POs.
    pub absint_max_po_width: f64,
    /// Every grid point, in grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepRecord {
    /// The points not dominated by any other — the Pareto frontier, in
    /// grid order.
    pub fn frontier(&self) -> impl Iterator<Item = &SweepPoint> {
        self.points.iter().filter(|p| !p.dominated)
    }

    /// Canonical file name: `SWEEP_<circuit>.json`.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("SWEEP_{}.json", self.circuit)
    }

    /// Serializes to pretty-printed JSON (schema-versioned; see
    /// [`SWEEP_SCHEMA_VERSION`]).
    #[must_use]
    pub fn render(&self) -> String {
        let points: Vec<Json> = self
            .points
            .iter()
            .map(|p| {
                let mut obj = Json::object();
                obj.set("algorithm", p.algorithm.as_str())
                    .set("threshold", p.threshold)
                    .set("patterns", p.patterns)
                    .set("delay_weight", p.delay_weight.as_str())
                    .set("literals", p.literals)
                    .set("literal_ratio", p.literal_ratio)
                    .set("area", p.area)
                    .set("area_ratio", p.area_ratio)
                    .set("delay", p.delay)
                    .set("delay_ratio", p.delay_ratio)
                    .set("error_rate", p.error_rate)
                    .set("runtime_s", p.runtime_s)
                    .set("dominated", p.dominated);
                obj
            })
            .collect();
        let mut golden = Json::object();
        golden
            .set("literals", self.golden_literals)
            .set("area", self.golden_area)
            .set("delay", self.golden_delay);
        let mut absint = Json::object();
        absint
            .set("frechet_nodes", self.absint_frechet_nodes)
            .set("max_po_interval_width", self.absint_max_po_width);
        let mut out = Json::object();
        out.set("schema_version", self.schema_version)
            .set("kind", "sweep")
            .set("circuit", self.circuit.as_str())
            .set("git_sha", self.git_sha.as_str())
            .set("seed", self.seed)
            .set("quick", self.quick)
            .set("sweep_workers", self.sweep_workers)
            .set("notes", self.notes.as_str())
            .set("golden", golden)
            .set("absint", absint)
            .set("points", points);
        out.render_pretty()
    }

    /// Parses a rendered record.
    ///
    /// # Errors
    ///
    /// Returns a description when the text is not valid JSON, is not a
    /// sweep record, or carries a different schema version.
    pub fn parse(text: &str) -> Result<SweepRecord, String> {
        let json = Json::parse(text).map_err(|e| format!("sweep record: {e}"))?;
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("sweep record: missing schema_version")?;
        if version != SWEEP_SCHEMA_VERSION {
            return Err(format!(
                "sweep record: schema version {version} unsupported (expected {SWEEP_SCHEMA_VERSION})"
            ));
        }
        if json.get("kind").and_then(Json::as_str) != Some("sweep") {
            return Err("sweep record: kind is not \"sweep\"".into());
        }
        let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let f64_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let u64_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let points = json
            .get("points")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|p| SweepPoint {
                algorithm: str_of(p, "algorithm"),
                threshold: f64_of(p, "threshold"),
                patterns: u64_of(p, "patterns"),
                delay_weight: str_of(p, "delay_weight"),
                literals: u64_of(p, "literals"),
                literal_ratio: f64_of(p, "literal_ratio"),
                area: f64_of(p, "area"),
                area_ratio: f64_of(p, "area_ratio"),
                delay: f64_of(p, "delay"),
                delay_ratio: f64_of(p, "delay_ratio"),
                error_rate: f64_of(p, "error_rate"),
                runtime_s: f64_of(p, "runtime_s"),
                dominated: p.get("dominated").and_then(Json::as_bool).unwrap_or(false),
            })
            .collect();
        let golden = json.get("golden");
        let absint = json.get("absint");
        Ok(SweepRecord {
            schema_version: version,
            circuit: str_of(&json, "circuit"),
            git_sha: str_of(&json, "git_sha"),
            seed: u64_of(&json, "seed"),
            quick: json.get("quick").and_then(Json::as_bool).unwrap_or(false),
            sweep_workers: u64_of(&json, "sweep_workers") as usize, // lint:allow(as-cast): worker counts are tiny
            notes: str_of(&json, "notes"),
            golden_literals: golden.map_or(0, |g| u64_of(g, "literals")),
            golden_area: golden.map_or(0.0, |g| f64_of(g, "area")),
            golden_delay: golden.map_or(0.0, |g| f64_of(g, "delay")),
            absint_frechet_nodes: absint.map_or(0, |a| u64_of(a, "frechet_nodes")),
            absint_max_po_width: absint.map_or(0.0, |a| f64_of(a, "max_po_interval_width")),
            points,
        })
    }

    /// A canonical fingerprint of everything *deterministic* about the
    /// sweep — identity, objectives, and Pareto tags, but not wall-clock
    /// times, notes, or the git commit. Two sweeps of the same circuit and
    /// grid must produce byte-identical fingerprints regardless of worker
    /// count.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        // lint:allow(silent-result): fmt::Write into a String is infallible
        let _ = writeln!(
            s,
            "sweep v{} {} seed {} quick {} golden {} {:.17e} {:.17e}",
            self.schema_version,
            self.circuit,
            self.seed,
            self.quick,
            self.golden_literals,
            self.golden_area,
            self.golden_delay
        );
        for p in &self.points {
            // lint:allow(silent-result): fmt::Write into a String is infallible
            let _ = writeln!(
                s,
                "{} @ {:.17e} {} {} -> lits {} area {:.17e} delay {:.17e} er {:.17e} dominated {}",
                p.algorithm,
                p.threshold,
                p.patterns,
                p.delay_weight,
                p.literals,
                p.area,
                p.delay,
                p.error_rate,
                p.dominated
            );
        }
        s
    }
}

/// The spec string for a delay-weight policy (`off` / `scaled:W`).
#[must_use]
pub fn delay_weight_spec(policy: DelayWeight) -> String {
    match policy {
        DelayWeight::Off => "off".into(),
        DelayWeight::Scaled(w) => format!("scaled:{w}"),
    }
}

/// The stable algorithm name of a strategy, as used in records and events.
#[must_use]
pub fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Single => "single-selection",
        Strategy::Multi => "multi-selection",
        Strategy::Sasimi => "sasimi",
    }
}

/// The commit hash for record provenance: `GITHUB_SHA`, then
/// `git rev-parse --short HEAD`, then `"unknown"`.
#[must_use]
pub fn detect_git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha.chars().take(12).collect();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// One grid point's identity before evaluation.
#[derive(Clone, Copy, Debug)]
struct GridPoint {
    threshold: f64,
    strategy: Strategy,
    patterns: usize,
}

/// Runs the whole grid against `golden` and returns the tagged record.
///
/// `base` supplies everything the grid does not override (seed, engine
/// threads, don't-care settings, …) plus the sweep-level telemetry sinks;
/// each grid job runs with telemetry disabled (per-job isolation — its
/// internal metrics collector still feeds the job's own outcome).
///
/// # Errors
///
/// * [`AlsError::InvalidConfig`] when the grid is empty or any derived
///   per-point configuration fails validation;
/// * [`AlsError::InvalidNetwork`] when `golden` fails its consistency
///   check.
pub fn run_sweep(
    circuit: &str,
    golden: &Network,
    grid: &SweepGrid,
    base: &AlsConfig,
) -> Result<SweepRecord, AlsError> {
    let arts = CircuitArtifacts::build(golden.clone())?;
    if grid.num_points() == 0 {
        return Err(AlsError::InvalidConfig(
            "sweep grid is empty (needs ≥ 1 threshold, strategy and pattern count)".into(),
        ));
    }

    // Expand and validate the whole grid before any work is dispatched.
    let mut points: Vec<GridPoint> = Vec::with_capacity(grid.num_points());
    let mut configs: Vec<AlsConfig> = Vec::with_capacity(grid.num_points());
    for &threshold in &grid.thresholds {
        for &strategy in &grid.strategies {
            for &patterns in &grid.patterns {
                let mut config = base.clone();
                config.threshold = threshold;
                config.patterns = patterns;
                config.delay_weight = grid.delay_weight;
                config.telemetry = Telemetry::disabled();
                config.validate()?;
                api::check_magnitude_outputs(golden, &config)?;
                points.push(GridPoint {
                    threshold,
                    strategy,
                    patterns,
                });
                configs.push(config);
            }
        }
    }
    // Simulate the golden network once per distinct stimulus before
    // dispatch, so no grid point's runtime pays for it.
    for config in &configs {
        arts.context(config);
    }

    let workers = crate::engine::resolve_threads(grid.sweep_workers).min(points.len());
    base.telemetry.emit(|| Event::SweepStart {
        grid_points: points.len() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
        workers: workers as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
    });

    // Evaluate one grid point: synthesize, technology-map, record.
    let lib = Library::mcnc_like();
    let run_point = |i: usize| -> SweepPoint {
        let config = &configs[i];
        let point = points[i];
        let (ctx, _) = arts.context(config);
        // lint:allow(nondeterminism): feeds the point's runtime_s record only, excluded from the fingerprint
        let start = Instant::now();
        let outcome = api::run(golden, point.strategy, config, ctx);
        let mapped = map_network(&outcome.network, &lib);
        let literals = outcome.final_literals as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
        SweepPoint {
            algorithm: strategy_name(point.strategy).to_string(),
            threshold: point.threshold,
            patterns: point.patterns as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
            delay_weight: delay_weight_spec(grid.delay_weight),
            literals,
            literal_ratio: outcome.literal_ratio(),
            area: mapped.area(),
            area_ratio: if arts.golden_area > 0.0 {
                mapped.area() / arts.golden_area
            } else {
                1.0
            },
            delay: mapped.delay(),
            delay_ratio: if arts.golden_delay > 0.0 {
                mapped.delay() / arts.golden_delay
            } else {
                1.0
            },
            error_rate: outcome.measured_error_rate,
            runtime_s: start.elapsed().as_secs_f64(),
            dominated: false,
        }
    };

    // Slot-indexed results: each worker pulls the next index off a shared
    // counter and writes its own slot, so assembly order equals grid order
    // and the record is worker-count-independent.
    let mut results: Vec<Option<SweepPoint>> = Vec::with_capacity(points.len());
    if workers <= 1 {
        results.extend((0..points.len()).map(|i| Some(run_point(i))));
    } else {
        let slots: Vec<Mutex<Option<SweepPoint>>> =
            (0..points.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let point = run_point(i);
                    // Poison-tolerant: a panicked sibling must not wedge us.
                    match slots[i].lock() {
                        Ok(mut slot) => *slot = Some(point),
                        Err(poisoned) => *poisoned.into_inner() = Some(point),
                    }
                });
            }
        });
        results.extend(slots.into_iter().map(|m| match m.into_inner() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        }));
    }
    let mut evaluated: Vec<SweepPoint> = results
        .into_iter()
        .map(|r| r.expect("every grid slot is filled before the scope joins")) // lint:allow(panic): internal invariant; the message states it
        .collect();

    mark_frontier(&mut evaluated);

    // Sweep-level telemetry, emitted after the joins in grid order so the
    // event log is deterministic too.
    for (point, result) in points.iter().zip(&evaluated) {
        let nanos = (result.runtime_s * 1e9) as u64; // lint:allow(as-cast): non-negative duration << u64 range
        base.telemetry.emit(|| Event::SweepPointDone {
            algorithm: strategy_name(point.strategy),
            threshold: point.threshold,
            literals: result.literals,
            mapped_delay: result.delay,
            error_rate: result.error_rate,
            nanos,
        });
    }

    Ok(SweepRecord {
        schema_version: SWEEP_SCHEMA_VERSION,
        circuit: circuit.to_string(),
        git_sha: "unknown".into(),
        seed: base.seed,
        quick: grid.quick,
        sweep_workers: grid.sweep_workers,
        notes: String::new(),
        golden_literals: arts.golden_literals,
        golden_area: arts.golden_area,
        golden_delay: arts.golden_delay,
        absint_frechet_nodes: arts.absint_frechet_nodes,
        absint_max_po_width: arts.absint_max_po_width,
        points: evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(lits: u64, delay: f64, er: f64) -> SweepPoint {
        SweepPoint {
            algorithm: "single-selection".into(),
            threshold: 0.05,
            patterns: 512,
            delay_weight: "off".into(),
            literals: lits,
            literal_ratio: 1.0,
            area: lits as f64, // lint:allow(as-cast): test helper
            area_ratio: 1.0,
            delay,
            delay_ratio: 1.0,
            error_rate: er,
            runtime_s: 0.0,
            dominated: false,
        }
    }

    #[test]
    fn dominance_needs_strict_improvement_somewhere() {
        let a = [1.0, 1.0, 1.0];
        assert!(!dominates(a, a), "equal vectors must not dominate");
        assert!(dominates([1.0, 1.0, 0.5], a));
        assert!(!dominates([0.5, 2.0, 0.5], a), "trade-offs do not dominate");
    }

    #[test]
    fn frontier_tags_only_dominated_points() {
        let mut pts = vec![
            point(10, 5.0, 0.01),
            point(12, 5.0, 0.01), // dominated by the first
            point(8, 6.0, 0.02),  // trade-off: stays on the frontier
        ];
        mark_frontier(&mut pts);
        assert!(!pts[0].dominated);
        assert!(pts[1].dominated);
        assert!(!pts[2].dominated);
    }

    #[test]
    fn record_json_round_trips() {
        let mut pts = vec![point(10, 5.0, 0.01), point(12, 5.0, 0.01)];
        mark_frontier(&mut pts);
        let record = SweepRecord {
            schema_version: SWEEP_SCHEMA_VERSION,
            circuit: "RCA8".into(),
            git_sha: "abc123".into(),
            seed: 7,
            quick: true,
            sweep_workers: 4,
            notes: "test".into(),
            golden_literals: 40,
            golden_area: 120.0,
            golden_delay: 14.2,
            absint_frechet_nodes: 3,
            absint_max_po_width: 0.5,
            points: pts,
        };
        let parsed = SweepRecord::parse(&record.render()).unwrap();
        assert_eq!(parsed.circuit, record.circuit);
        assert_eq!(parsed.seed, record.seed);
        assert_eq!(parsed.quick, record.quick);
        assert_eq!(parsed.points, record.points);
        assert_eq!(parsed.fingerprint(), record.fingerprint());
        assert_eq!(record.file_name(), "SWEEP_RCA8.json");
    }

    #[test]
    fn parse_rejects_other_schemas_and_kinds() {
        let record = SweepRecord {
            schema_version: SWEEP_SCHEMA_VERSION,
            circuit: "X".into(),
            git_sha: String::new(),
            seed: 1,
            quick: false,
            sweep_workers: 1,
            notes: String::new(),
            golden_literals: 1,
            golden_area: 1.0,
            golden_delay: 1.0,
            absint_frechet_nodes: 0,
            absint_max_po_width: 0.0,
            points: vec![],
        };
        let future = record
            .render()
            .replace("\"schema_version\": 2", "\"schema_version\": 99");
        assert!(SweepRecord::parse(&future).unwrap_err().contains("schema"));
        let wrong_kind = record
            .render()
            .replace("\"kind\": \"sweep\"", "\"kind\": \"bench\"");
        assert!(SweepRecord::parse(&wrong_kind)
            .unwrap_err()
            .contains("kind"));
        assert!(SweepRecord::parse("not json").is_err());
    }

    #[test]
    fn specs_are_stable() {
        assert_eq!(delay_weight_spec(DelayWeight::Off), "off");
        assert_eq!(delay_weight_spec(DelayWeight::Scaled(1.5)), "scaled:1.5");
        assert_eq!(strategy_name(Strategy::Single), "single-selection");
        assert_eq!(strategy_name(Strategy::Multi), "multi-selection");
        assert_eq!(strategy_name(Strategy::Sasimi), "sasimi");
    }

    #[test]
    fn grids_expand_to_the_documented_sizes() {
        assert_eq!(SweepGrid::quick().num_points(), 12);
        assert_eq!(SweepGrid::full().num_points(), 21);
        assert!(SweepGrid::quick().quick);
        assert!(!SweepGrid::full().quick);
    }

    #[test]
    fn empty_grid_is_rejected() {
        let golden = als_circuits::adders::ripple_carry_adder(2);
        let grid = SweepGrid {
            thresholds: vec![],
            ..SweepGrid::quick()
        };
        let err = run_sweep("RCA2", &golden, &grid, &AlsConfig::default()).unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(_)));
    }

    #[test]
    fn tiny_sweep_produces_a_tagged_frontier() {
        let golden = als_circuits::adders::ripple_carry_adder(3);
        let grid = SweepGrid {
            thresholds: vec![0.01, 0.05],
            strategies: vec![Strategy::Single, Strategy::Multi],
            patterns: vec![256],
            delay_weight: DelayWeight::Off,
            sweep_workers: 1,
            quick: true,
        };
        let config = AlsConfig::builder().seed(3).build().unwrap();
        let record = run_sweep("RCA3", &golden, &grid, &config).unwrap();
        assert_eq!(record.points.len(), 4);
        assert!(record.frontier().count() >= 1);
        assert!(record.golden_literals > 0);
        assert!(record.golden_delay > 0.0);
        // Every point satisfies its own threshold.
        for p in &record.points {
            assert!(p.error_rate <= p.threshold + 1e-12, "{p:?}");
        }
        // Round-trip preserves the fingerprint.
        let parsed = SweepRecord::parse(&record.render()).unwrap();
        assert_eq!(parsed.fingerprint(), record.fingerprint());
    }
}
