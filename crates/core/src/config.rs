use crate::{AlsError, CancelToken};
use als_dontcare::DontCareConfig;
use als_sim::{DEFAULT_NUM_PATTERNS, MAX_LOCAL_FANINS};
use als_telemetry::Telemetry;
use std::fmt;
use std::str::FromStr;

/// How the engine refreshes signatures after an applied change.
///
/// Both modes produce byte-identical results (the measurement arithmetic is
/// shared word-for-word); [`Full`](ResimMode::Full) exists as a cross-check
/// and debugging escape hatch, like disabling the candidate cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResimMode {
    /// Incremental dirty-set resimulation: after each change only the
    /// transitive fanout of the rewritten nodes is re-evaluated, with
    /// word-wise early exit. The default.
    #[default]
    Incremental,
    /// Fully resimulate every live node after every applied change.
    Full,
}

impl ResimMode {
    /// Whether every update degrades to a full resimulation.
    #[inline]
    #[must_use]
    pub fn is_full(self) -> bool {
        matches!(self, ResimMode::Full)
    }
}

/// Whether the engine discards candidates whose *static* lower error bound
/// (abstract interpretation over fanin popcounts, see the `als-absint`
/// crate) already exceeds the remaining budget, skipping their
/// local-pattern gather.
///
/// Pruning is semantics-preserving: outcomes are identical with it on or
/// off — [`Off`](PrunePolicy::Off) is a cross-check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrunePolicy {
    /// Prune candidates via the static abstract-interpretation bound. The
    /// default.
    #[default]
    Static,
    /// Evaluate every candidate.
    Off,
}

impl PrunePolicy {
    /// Whether static pruning is active.
    #[inline]
    #[must_use]
    pub fn is_enabled(self) -> bool {
        matches!(self, PrunePolicy::Static)
    }
}

/// Whether candidate scoring penalizes the mapped-delay impact of a
/// substitution's cone.
///
/// Under [`Off`](DelayWeight::Off) (the default) candidates are ranked by
/// the paper's literals-per-error score alone and results are byte-identical
/// to every pre-delay-scoring release. Under
/// [`Scaled`](DelayWeight::Scaled)`(w)` the literal gain of each candidate
/// is reduced by `w ×` the *estimated* critical-path change of substituting
/// it (computed incrementally from the technology mapper's cell delays; see
/// `als-mapper`'s `DelayMap`), steering the search toward points that trade
/// fewer literals for shorter critical paths. The estimate prices the
/// rewritten node's local cell tree only — it is a scoring heuristic, not a
/// timing sign-off; sweep reports always re-map the final network for the
/// real delay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum DelayWeight {
    /// Rank candidates by the paper's score alone. The default.
    #[default]
    Off,
    /// Subtract `weight × estimated-delay-delta` from each candidate's
    /// literal gain before scoring. The weight must be finite and
    /// non-negative; `Scaled(0.0)` keeps rankings identical to `Off` but
    /// still exercises the delay-estimation path.
    Scaled(f64),
}

impl DelayWeight {
    /// Whether delay-aware scoring is active.
    #[inline]
    #[must_use]
    pub fn is_enabled(self) -> bool {
        matches!(self, DelayWeight::Scaled(_))
    }

    /// The penalty weight (`0.0` when off).
    #[inline]
    #[must_use]
    pub fn weight(self) -> f64 {
        match self {
            DelayWeight::Off => 0.0,
            DelayWeight::Scaled(w) => w,
        }
    }
}

/// How many random simulation vectors each candidate evaluation uses.
///
/// **Tail-mask rounding:** stimulus is stored 64 patterns per machine word.
/// The random generator rounds a requested count **up** to a whole number
/// of words (the paper's 10 000 becomes 10 048), so under both policies the
/// effective count is the rounded value and every stored word is fully
/// populated; pattern sets built from explicit vectors keep exact
/// non-multiple-of-64 counts by masking the unused high bits of the final
/// word out of every count (the canonical-tail rule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternPolicy {
    /// Always simulate the full pattern budget (the paper's scheme).
    Fixed(usize),
    /// Start each candidate trial at `min` patterns and double toward `max`
    /// only while the sample-sound interval around the measured error rate
    /// still straddles the accept/reject boundary. Committed rates are
    /// always confirmed at the full `max` budget, so outcomes are
    /// byte-identical to `Fixed(max)` — adaptivity only changes how much
    /// work *rejected* or clearly-decided candidates cost.
    Adaptive {
        /// Pattern count of the first probe round (rounded up to whole
        /// 64-pattern words). Must be positive and at most `max`.
        min: usize,
        /// The full budget every committed rate is confirmed at.
        max: usize,
    },
}

impl PatternPolicy {
    /// The full pattern budget: the fixed count, or `max` for adaptive
    /// sampling. This is the count every committed error rate is measured
    /// at.
    #[inline]
    #[must_use]
    pub fn budget(&self) -> usize {
        match *self {
            PatternPolicy::Fixed(n) => n,
            PatternPolicy::Adaptive { max, .. } => max,
        }
    }

    /// The adaptive starting count, or `None` under fixed sampling.
    #[inline]
    #[must_use]
    pub fn adaptive_min(&self) -> Option<usize> {
        match *self {
            PatternPolicy::Fixed(_) => None,
            PatternPolicy::Adaptive { min, .. } => Some(min),
        }
    }
}

impl Default for PatternPolicy {
    /// The paper's fixed 10 000-vector scheme (rounded to 10 048).
    fn default() -> Self {
        PatternPolicy::Fixed(DEFAULT_NUM_PATTERNS)
    }
}

/// The spec syntax shared by the CLI, the serve protocol and sweep records:
/// `fixed:N` or `adaptive:MIN..MAX`.
impl fmt::Display for PatternPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternPolicy::Fixed(n) => write!(f, "fixed:{n}"),
            PatternPolicy::Adaptive { min, max } => write!(f, "adaptive:{min}..{max}"),
        }
    }
}

/// Parses a policy spec: `fixed:N`, `adaptive:MIN..MAX`, or a bare count `N`
/// (shorthand for `fixed:N`). Errors are plain descriptions for the caller
/// to wrap.
impl FromStr for PatternPolicy {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        if let Some(n) = spec.strip_prefix("fixed:") {
            let n = n.parse().map_err(|e| format!("fixed count: {e}"))?;
            return Ok(PatternPolicy::Fixed(n));
        }
        if let Some(range) = spec.strip_prefix("adaptive:") {
            let (min, max) = range
                .split_once("..")
                .ok_or_else(|| String::from("adaptive policy wants MIN..MAX"))?;
            let min = min.parse().map_err(|e| format!("adaptive MIN: {e}"))?;
            let max = max.parse().map_err(|e| format!("adaptive MAX: {e}"))?;
            return Ok(PatternPolicy::Adaptive { min, max });
        }
        spec.parse()
            .map(PatternPolicy::Fixed)
            .map_err(|e| format!("pattern count: {e}"))
    }
}

/// An optional constraint on the numeric **error magnitude** — the paper's
/// named future-work extension (§7). The POs are interpreted little-endian
/// (PO `i` weighs `2^i`, the convention of the arithmetic benchmark
/// generators); a candidate change is rejected if the worst absolute
/// deviation over the simulation patterns exceeds `max_abs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MagnitudeConstraint {
    /// The largest tolerated absolute deviation.
    pub max_abs: u128,
}

/// Configuration shared by all three algorithms.
///
/// Build one with [`AlsConfig::builder`] (non-panicking, validated) or
/// [`AlsConfig::with_threshold`] (paper defaults, panics on a bad
/// threshold); individual fields stay public and can be adjusted after
/// construction. The struct is `#[non_exhaustive]`: new knobs may appear in
/// minor releases without breaking downstream builds.
#[derive(Clone, Debug)]
#[non_exhaustive]
// The bools are independent feature toggles (ablations and engine
// selection), not an encoded state machine.
#[allow(clippy::struct_excessive_bools)]
pub struct AlsConfig {
    /// The error rate threshold `T` (fraction of PI vectors allowed to
    /// produce a wrong output).
    pub threshold: f64,
    /// The pattern-count policy: a fixed budget (paper: 10 000) or adaptive
    /// growth between a minimum and the budget.
    pub patterns: PatternPolicy,
    /// Seed for the random stimulus (results are deterministic per seed).
    pub seed: u64,
    /// Windowing/engine settings for SDC/ODC computation.
    pub dont_care: DontCareConfig,
    /// Whether the single-selection estimate discards don't-care ELIPs
    /// (§3.3). Disabling this is the ablation that degrades the estimate to
    /// the apparent error rate.
    pub use_dont_cares: bool,
    /// Use the exact BDD-based don't-care engine instead of the paper's
    /// windowed one (falls back to windowed when the BDD exceeds
    /// `exact_dc_node_limit`). An upper-bound-tightening extension.
    pub exact_dont_cares: bool,
    /// Node budget for the exact BDD engine.
    pub exact_dc_node_limit: usize,
    /// The paper enumerates all `2^N` ASEs only when `N <` this bound
    /// (paper: 5); larger nodes get removals of fewer literals plus the two
    /// constants.
    pub max_enum_literals: usize,
    /// Nodes with more fanins than this are skipped (local-pattern tables
    /// grow as `2^k`).
    pub max_fanins: usize,
    /// Hard cap on iterations (safety net; the algorithms terminate on their
    /// own when no feasible change remains).
    pub max_iterations: usize,
    /// Multi-selection only: when a committed batch overshoots the measured
    /// threshold, retry the iteration with the knapsack capacity halved
    /// (instead of terminating). Off by default to match the paper.
    pub retry_on_overshoot: bool,
    /// Run the same-support/same-signature redundancy-removal pre-process
    /// (§6) before the main loop.
    pub preprocess: bool,
    /// Optional error-magnitude constraint enforced *in addition to* the
    /// error-rate threshold (the §7 future-work extension).
    pub magnitude: Option<MagnitudeConstraint>,
    /// Worker threads for the candidate-evaluation engine: `0` uses the
    /// machine's available parallelism, `1` (the default) keeps evaluation
    /// on the calling thread. Results are byte-identical for every setting.
    pub threads: usize,
    /// Whether the engine memoizes node evaluations between iterations
    /// (incremental cone invalidation). Disabling re-evaluates every node
    /// every iteration — an expensive but occasionally useful cross-check,
    /// guaranteed to produce identical results.
    pub cache: bool,
    /// Resimulation policy after applied changes (incremental dirty-set by
    /// default; see [`ResimMode`]).
    pub resim: ResimMode,
    /// Static candidate-pruning policy (see [`PrunePolicy`]).
    pub pruning: PrunePolicy,
    /// Delay-aware candidate-scoring policy (see [`DelayWeight`]). Off by
    /// default: the paper's flow is area-only, and `Off` is guaranteed
    /// byte-identical to releases that predate the policy. Applies to the
    /// greedy single-selection ranking and the multi-selection knapsack
    /// values; SASIMI's signal-substitution scoring is unaffected.
    pub delay_weight: DelayWeight,
    /// Telemetry sinks observing the run (see [`als_telemetry`]). Disabled
    /// by default: the engine then skips event construction entirely, and
    /// results are byte-identical with any sink attached.
    pub telemetry: Telemetry,
    /// Cooperative cancellation token (see [`CancelToken`]): the selection
    /// loops poll it once per iteration and stop cleanly when it has been
    /// tripped, returning the (valid, threshold-satisfying) network built so
    /// far. Inert by default — an untripped or inert token never changes
    /// results.
    pub cancel: CancelToken,
}

impl AlsConfig {
    /// A configuration with the given error-rate threshold and paper-default
    /// settings everywhere else.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ threshold < 1`; see [`AlsConfig::builder`] for the
    /// non-panicking path.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&threshold),
            "threshold must be a rate in [0, 1)"
        );
        AlsConfig {
            threshold,
            patterns: PatternPolicy::default(),
            seed: 0xA15_5EED,
            dont_care: DontCareConfig::default(),
            use_dont_cares: true,
            exact_dont_cares: false,
            exact_dc_node_limit: 1 << 18,
            max_enum_literals: 5,
            max_fanins: 10,
            max_iterations: 10_000,
            retry_on_overshoot: false,
            preprocess: true,
            magnitude: None,
            threads: 1,
            cache: true,
            resim: ResimMode::Incremental,
            pruning: PrunePolicy::Static,
            delay_weight: DelayWeight::Off,
            telemetry: Telemetry::disabled(),
            cancel: CancelToken::none(),
        }
    }

    /// The full pattern budget of the active [`PatternPolicy`] — the count
    /// every committed error rate is measured at.
    #[inline]
    #[must_use]
    pub fn pattern_budget(&self) -> usize {
        self.patterns.budget()
    }

    /// A validating, non-panicking builder seeded with the paper defaults
    /// (5 % threshold).
    ///
    /// ```
    /// use als_core::AlsConfig;
    /// let config = AlsConfig::builder().threshold(0.05).threads(8).build()?;
    /// assert_eq!(config.threads, 8);
    /// # Ok::<(), als_core::AlsError>(())
    /// ```
    pub fn builder() -> AlsConfigBuilder {
        AlsConfigBuilder {
            config: AlsConfig::default(),
        }
    }

    /// Checks every field against its documented constraint.
    ///
    /// # Errors
    ///
    /// Returns [`AlsError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), AlsError> {
        if !(0.0..1.0).contains(&self.threshold) {
            return Err(AlsError::InvalidConfig(format!(
                "threshold must be a rate in [0, 1), got {}",
                self.threshold
            )));
        }
        match self.patterns {
            PatternPolicy::Fixed(0) => {
                return Err(AlsError::InvalidConfig(
                    "patterns: fixed num_patterns must be positive".into(),
                ));
            }
            PatternPolicy::Adaptive { min: 0, .. } => {
                return Err(AlsError::InvalidConfig(
                    "patterns: adaptive min must be positive".into(),
                ));
            }
            PatternPolicy::Adaptive { min, max } if min > max => {
                return Err(AlsError::InvalidConfig(format!(
                    "patterns: adaptive min must not exceed max, got min {min} > max {max}"
                )));
            }
            _ => {}
        }
        if self.max_fanins > MAX_LOCAL_FANINS {
            return Err(AlsError::InvalidConfig(format!(
                "max_fanins must not exceed the local-pattern limit of {MAX_LOCAL_FANINS}, \
                 got {}",
                self.max_fanins
            )));
        }
        if self.max_enum_literals == 0 {
            return Err(AlsError::InvalidConfig(
                "max_enum_literals must be positive".into(),
            ));
        }
        if self.max_iterations == 0 {
            return Err(AlsError::InvalidConfig(
                "max_iterations must be positive".into(),
            ));
        }
        if let DelayWeight::Scaled(w) = self.delay_weight {
            if !w.is_finite() || w < 0.0 {
                return Err(AlsError::InvalidConfig(format!(
                    "delay_weight: scaled weight must be finite and non-negative, got {w}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for AlsConfig {
    /// The paper's most common operating point: a 5 % error-rate budget.
    fn default() -> Self {
        AlsConfig::with_threshold(0.05)
    }
}

/// Builder for [`AlsConfig`]; see [`AlsConfig::builder`]. Every setter is
/// infallible — validation happens once, in
/// [`build`](AlsConfigBuilder::build).
#[derive(Clone, Debug)]
#[must_use = "call .build() to obtain the validated AlsConfig"]
pub struct AlsConfigBuilder {
    config: AlsConfig,
}

impl AlsConfigBuilder {
    /// Sets the error-rate threshold `T`.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.config.threshold = threshold;
        self
    }

    /// Sets the pattern-count policy (fixed budget or adaptive growth).
    pub fn patterns(mut self, patterns: PatternPolicy) -> Self {
        self.config.patterns = patterns;
        self
    }

    /// Sets the stimulus seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the SDC/ODC windowing configuration.
    pub fn dont_care(mut self, dont_care: DontCareConfig) -> Self {
        self.config.dont_care = dont_care;
        self
    }

    /// Enables or disables don't-care pricing in the single-selection
    /// estimate (§3.3).
    pub fn use_dont_cares(mut self, on: bool) -> Self {
        self.config.use_dont_cares = on;
        self
    }

    /// Enables the exact BDD-based don't-care engine.
    pub fn exact_dont_cares(mut self, on: bool) -> Self {
        self.config.exact_dont_cares = on;
        self
    }

    /// Sets the ASE enumeration bound (paper: 5).
    pub fn max_enum_literals(mut self, n: usize) -> Self {
        self.config.max_enum_literals = n;
        self
    }

    /// Sets the fanin-count cutoff for eligible nodes.
    pub fn max_fanins(mut self, n: usize) -> Self {
        self.config.max_fanins = n;
        self
    }

    /// Sets the iteration safety cap.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.config.max_iterations = n;
        self
    }

    /// Enables capacity-halving retries after a measured overshoot
    /// (multi-selection).
    pub fn retry_on_overshoot(mut self, on: bool) -> Self {
        self.config.retry_on_overshoot = on;
        self
    }

    /// Enables or disables the §6 redundancy-removal pre-process.
    pub fn preprocess(mut self, on: bool) -> Self {
        self.config.preprocess = on;
        self
    }

    /// Sets an error-magnitude constraint (`None` clears it).
    pub fn magnitude(mut self, magnitude: Option<MagnitudeConstraint>) -> Self {
        self.config.magnitude = magnitude;
        self
    }

    /// Sets the engine worker-thread count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enables or disables the candidate cache.
    pub fn cache(mut self, on: bool) -> Self {
        self.config.cache = on;
        self
    }

    /// Sets the resimulation policy (incremental dirty-set by default;
    /// byte-identical results either way).
    pub fn resim(mut self, resim: ResimMode) -> Self {
        self.config.resim = resim;
        self
    }

    /// Sets the static candidate-pruning policy (on by default;
    /// semantics-preserving either way).
    pub fn pruning(mut self, pruning: PrunePolicy) -> Self {
        self.config.pruning = pruning;
        self
    }

    /// Sets the delay-aware candidate-scoring policy (off by default;
    /// `Off` is byte-identical to pre-policy behavior).
    pub fn delay_weight(mut self, delay_weight: DelayWeight) -> Self {
        self.config.delay_weight = delay_weight;
        self
    }

    /// Attaches telemetry sinks — engine counters, phase timings and
    /// iteration records then flow to every sink in the handle. Accepts a
    /// [`Telemetry`] handle or any `Arc<impl TelemetrySink>`:
    ///
    /// ```
    /// use als_core::AlsConfig;
    /// use als_telemetry::MetricsCollector;
    /// use std::sync::Arc;
    ///
    /// let collector = Arc::new(MetricsCollector::new());
    /// let config = AlsConfig::builder().telemetry(collector.clone()).build()?;
    /// assert!(config.telemetry.is_enabled());
    /// # Ok::<(), als_core::AlsError>(())
    /// ```
    pub fn telemetry(mut self, telemetry: impl Into<Telemetry>) -> Self {
        self.config.telemetry = telemetry.into();
        self
    }

    /// Attaches a cooperative cancellation token — trip it from another
    /// thread (see [`CancelToken::cancel`]) and the run stops at the next
    /// iteration boundary with the network built so far.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.config.cancel = cancel;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AlsError::InvalidConfig`] naming the first offending field.
    pub fn build(self) -> Result<AlsConfig, AlsError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = AlsConfig::default();
        assert_eq!(c.threshold, 0.05);
        assert_eq!(c.patterns, PatternPolicy::Fixed(10_048));
        assert_eq!(c.pattern_budget(), 10_048);
        assert_eq!(c.max_enum_literals, 5);
        assert_eq!(c.dont_care.levels_in, 2);
        assert_eq!(c.dont_care.levels_out, 2);
        assert!(c.use_dont_cares);
        assert!(!c.retry_on_overshoot);
        assert!(c.magnitude.is_none());
        assert_eq!(c.threads, 1);
        assert!(c.cache);
        assert_eq!(c.resim, ResimMode::Incremental);
        assert_eq!(c.pruning, PrunePolicy::Static);
        assert_eq!(c.delay_weight, DelayWeight::Off);
        assert!(!c.telemetry.is_enabled());
    }

    #[test]
    fn pattern_policy_accessors() {
        assert_eq!(PatternPolicy::Fixed(512).budget(), 512);
        assert_eq!(PatternPolicy::Fixed(512).adaptive_min(), None);
        let adaptive = PatternPolicy::Adaptive { min: 64, max: 512 };
        assert_eq!(adaptive.budget(), 512);
        assert_eq!(adaptive.adaptive_min(), Some(64));
        assert!(ResimMode::Full.is_full());
        assert!(!ResimMode::Incremental.is_full());
        assert!(PrunePolicy::Static.is_enabled());
        assert!(!PrunePolicy::Off.is_enabled());
        assert!(DelayWeight::Scaled(0.5).is_enabled());
        assert!(!DelayWeight::Off.is_enabled());
        assert_eq!(DelayWeight::Off.weight(), 0.0);
        assert_eq!(DelayWeight::Scaled(1.5).weight(), 1.5);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_bad_threshold() {
        let _ = AlsConfig::with_threshold(1.5);
    }

    #[test]
    fn builder_accepts_valid_settings() {
        let c = AlsConfig::builder()
            .threshold(0.03)
            .threads(8)
            .cache(false)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(c.threshold, 0.03);
        assert_eq!(c.threads, 8);
        assert!(!c.cache);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn builder_rejects_without_panicking() {
        let err = AlsConfig::builder().threshold(1.5).build().unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("threshold")));
        let err = AlsConfig::builder()
            .patterns(PatternPolicy::Fixed(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("num_patterns")));
        let err = AlsConfig::builder()
            .patterns(PatternPolicy::Adaptive { min: 0, max: 512 })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, AlsError::InvalidConfig(ref m) if m.contains("min must be positive"))
        );
        let err = AlsConfig::builder()
            .patterns(PatternPolicy::Adaptive { min: 513, max: 512 })
            .build()
            .unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("min must not exceed")));
        let err = AlsConfig::builder().max_fanins(64).build().unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("max_fanins")));
        let err = AlsConfig::builder()
            .max_enum_literals(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("max_enum_literals")));
        let err = AlsConfig::builder().max_iterations(0).build().unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("max_iterations")));
        let err = AlsConfig::builder()
            .delay_weight(DelayWeight::Scaled(-1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("delay_weight")));
        let err = AlsConfig::builder()
            .delay_weight(DelayWeight::Scaled(f64::NAN))
            .build()
            .unwrap_err();
        assert!(matches!(err, AlsError::InvalidConfig(ref m) if m.contains("delay_weight")));
        let c = AlsConfig::builder()
            .delay_weight(DelayWeight::Scaled(2.0))
            .build()
            .unwrap();
        assert_eq!(c.delay_weight, DelayWeight::Scaled(2.0));
    }

    /// The spec syntax round-trips through `Display`/`FromStr`, and a bare
    /// count is shorthand for a fixed budget.
    #[test]
    fn pattern_specs_round_trip() {
        let adaptive = PatternPolicy::Adaptive { min: 64, max: 512 };
        for (spec, policy) in [
            ("fixed:512", PatternPolicy::Fixed(512)),
            ("adaptive:64..512", adaptive),
        ] {
            assert_eq!(spec.parse::<PatternPolicy>(), Ok(policy));
            assert_eq!(policy.to_string(), spec);
        }
        assert_eq!(
            "256".parse::<PatternPolicy>(),
            Ok(PatternPolicy::Fixed(256))
        );
        let err = |spec: &str| spec.parse::<PatternPolicy>().unwrap_err();
        assert!(err("adaptive:64").contains("MIN..MAX"));
        assert!(err("several").contains("pattern count"));
    }
}
