use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// The variable's 0-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize // lint:allow(as-cast): u32 index fits usize on all supported targets
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    #[inline]
    pub fn pos(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    #[inline]
    pub fn neg(var: Var) -> Lit {
        Lit(var.0 << 1 | 1)
    }

    /// A literal of `var` with the given sign (`true` = positive).
    #[inline]
    pub fn with_sign(var: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    /// The literal's variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    #[inline]
    fn code(self) -> usize {
        self.0 as usize // lint:allow(as-cast): u32 index fits usize on all supported targets
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}v{}",
            if self.is_positive() { "" } else { "¬" },
            self.0 >> 1
        )
    }
}

/// The outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The instance (under the given assumptions, if any) is unsatisfiable.
    Unsat,
}

/// A retractable clause group (see [`Solver::new_group`]).
///
/// Every clause added through [`Solver::add_clause_in`] carries the group's
/// negated activation literal, so the clauses only constrain a query whose
/// assumptions include [`Group::lit`]. [`Solver::retract`] permanently
/// disables (and physically sweeps) the group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Group(Var);

impl Group {
    /// The assumption literal that activates this group's clauses. Pass it
    /// (first) in the assumption list of every query that should see the
    /// group.
    #[inline]
    pub fn lit(self) -> Lit {
        Lit::pos(self.0)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Conflict-learnt clauses are redundant (implied by the originals) and
    /// eligible for database reduction; originals are not.
    learnt: bool,
    /// Activity for the learnt-database reduction heuristic (unused on
    /// originals).
    act: f64,
}

type ClauseRef = usize;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause needs no work.
    blocker: Lit,
}

/// Placeholder filling reserved-but-unused watch-arena slots.
const FILLER: Watcher = Watcher {
    clause: usize::MAX,
    blocker: Lit(0),
};

/// Occupancy bookkeeping of one literal's watch list inside the arena.
#[derive(Clone, Copy, Debug, Default)]
struct WatchRange {
    start: usize,
    len: usize,
    cap: usize,
}

/// All watch lists in one flat allocation: per literal a `(start, len, cap)`
/// range into a shared `Vec<Watcher>`. A list that outgrows its capacity is
/// relocated to the end of the arena with doubled capacity (classic amortized
/// growth), leaving a dead span behind; when more than half the arena is dead
/// the whole thing is compacted in literal order. Compared to
/// `Vec<Vec<Watcher>>` this keeps the hot propagation loop walking one
/// contiguous buffer and drops per-list allocator traffic.
#[derive(Debug, Default)]
struct WatchArena {
    data: Vec<Watcher>,
    ranges: Vec<WatchRange>,
    /// Slots abandoned by relocation, reclaimable by [`WatchArena::compact`].
    dead: usize,
}

/// Compact once dead slots outnumber live-plus-reserved ones and the arena is
/// big enough for the rebuild to be worth it.
const COMPACT_MIN_SLOTS: usize = 4096;

impl WatchArena {
    /// Registers watch lists for one more variable (two literals).
    fn add_var(&mut self) {
        self.ranges.push(WatchRange::default());
        self.ranges.push(WatchRange::default());
    }

    fn push(&mut self, code: usize, w: Watcher) {
        let r = self.ranges[code];
        if r.len == r.cap {
            let new_cap = (r.cap * 2).max(4);
            let new_start = self.data.len();
            self.data.extend_from_within(r.start..r.start + r.len);
            self.data.resize(new_start + new_cap, FILLER);
            self.dead += r.cap;
            self.ranges[code] = WatchRange {
                start: new_start,
                len: r.len,
                cap: new_cap,
            };
        }
        let r = &mut self.ranges[code];
        self.data[r.start + r.len] = w;
        r.len += 1;
        if self.dead > self.data.len() / 2 && self.data.len() > COMPACT_MIN_SLOTS {
            self.compact();
        }
    }

    /// Moves literal `code`'s watchers into `out` (which is cleared first)
    /// and empties the list in place, keeping its reserved capacity.
    fn drain_into(&mut self, code: usize, out: &mut Vec<Watcher>) {
        out.clear();
        let r = &mut self.ranges[code];
        out.extend_from_slice(&self.data[r.start..r.start + r.len]);
        r.len = 0;
    }

    /// Rewrites the arena with every list stored contiguously in literal
    /// order (plus a little headroom), reclaiming dead slots.
    fn compact(&mut self) {
        let mut data = Vec::with_capacity(self.data.len() - self.dead);
        for r in &mut self.ranges {
            let start = data.len();
            data.extend_from_slice(&self.data[r.start..r.start + r.len]);
            let cap = r.len + 2;
            data.resize(start + cap, FILLER);
            *r = WatchRange {
                start,
                len: r.len,
                cap,
            };
        }
        self.data = data;
        self.dead = 0;
    }

    /// Empties every list (capacities are reclaimed too); used when the
    /// clause database is rebuilt and rewatched from scratch.
    fn clear(&mut self) {
        self.data.clear();
        self.dead = 0;
        for r in &mut self.ranges {
            *r = WatchRange::default();
        }
    }

    /// Total live watcher count (diagnostics and integrity tests).
    fn live(&self) -> usize {
        self.ranges.iter().map(|r| r.len).sum()
    }
}

/// Auto-reduce the learnt database once it holds this many clauses (see
/// [`Solver::reduce_learnts`]; reached only by long incremental sessions).
const LEARNT_LIMIT: usize = 2000;

/// A conflict-driven clause-learning SAT solver built for *incremental* use:
/// phases and variable activities persist across [`Solver::solve`] calls,
/// clauses can be added between calls, scoped clause sets live in retractable
/// [`Group`]s, and the learnt database is periodically reduced so a
/// long-lived instance — such as the #SAT counter's validity oracle, which
/// serves every enlargement round of a count — stays lean.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: WatchArena,
    assign: Vec<LBool>, // indexed by var
    phase: Vec<bool>,   // saved phases, persisted across solve calls
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>, // decision-level boundaries
    qhead: usize,
    ok: bool, // false once a top-level conflict is found
    conflicts: u64,
    learnts: usize,
    /// Reusable buffer for the watch lists drained during propagation.
    scratch: Vec<Watcher>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Introduces a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(u32::try_from(self.assign.len()).expect("variable overflow")); // lint:allow(panic): size bounded far below the overflow point
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.add_var();
        v
    }

    /// The number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// The number of clauses currently stored (original plus learnt; sweeps
    /// and reductions shrink this).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The number of learnt clauses currently stored.
    pub fn num_learnts(&self) -> usize {
        self.learnts
    }

    /// Conflicts resolved since the solver was created.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Whether the solver is still consistent: `false` once a top-level
    /// conflict has been found, after which every solve call reports
    /// [`SatResult::Unsat`].
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Opens a retractable clause group. Clauses added with
    /// [`add_clause_in`](Solver::add_clause_in) are active only in queries
    /// that assume [`Group::lit`], and [`retract`](Solver::retract) disposes
    /// of the whole group (including any learnt clauses derived from it).
    pub fn new_group(&mut self) -> Group {
        Group(self.new_var())
    }

    /// Adds a clause to a retractable group: the stored clause is
    /// `lits ∨ ¬g`, so it only binds under the `g` assumption. Returns
    /// `false` if the solver is already in an unsatisfiable state. Adding to
    /// a retracted group is a sound no-op (the stored clause is satisfied).
    pub fn add_clause_in(&mut self, group: Group, lits: &[Lit]) -> bool {
        let mut c = Vec::with_capacity(lits.len() + 1);
        c.extend_from_slice(lits);
        c.push(!group.lit());
        self.add_clause(&c)
    }

    /// Permanently disables `group` and sweeps its clauses (and every learnt
    /// clause derived from them — they all carry the group's negated
    /// activation literal) out of the database. Returns the number of
    /// clauses physically removed by the sweep.
    ///
    /// The activation variable is asserted false at the top level, so the
    /// group's clauses become globally satisfied before removal: retraction
    /// never un-derives anything the solver learnt from *other* clauses.
    pub fn retract(&mut self, group: Group) -> usize {
        self.backtrack_to(0);
        // `ok` may go false here only if some query *required* the group
        // (i.e. `g` is a top-level implication), which callers treat as the
        // usual global-Unsat state.
        self.add_clause(&[!group.lit()]);
        let (_, swept) = self.rebuild_db(|_, _| false);
        swept
    }

    /// Reduces the learnt-clause database: drops the lower-activity half of
    /// the learnt clauses (originals are never touched) and rebuilds the
    /// watch arena. Returns the number of clauses dropped. Called
    /// automatically by [`solve_with_assumptions`](Self::solve_with_assumptions)
    /// once the learnt count passes an internal limit; public so stress
    /// tests can force it.
    pub fn reduce_learnts(&mut self) -> usize {
        self.backtrack_to(0);
        let mut ranked: Vec<(f64, ClauseRef)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt)
            .map(|(i, c)| (c.act, i))
            .collect();
        if ranked.len() < 2 {
            return 0;
        }
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let mut kill = vec![false; self.clauses.len()];
        for &(_, cr) in &ranked[..ranked.len() / 2] {
            kill[cr] = true;
        }
        let (dropped, _) = self.rebuild_db(|cr, _| kill[cr]);
        dropped
    }

    /// Rebuilds the clause database at decision level 0: drops clauses
    /// flagged by `drop_clause`, sweeps clauses satisfied at the top level,
    /// strips top-level-false literals, rewatches everything, and
    /// re-propagates any units this uncovers. Returns
    /// `(dropped_by_predicate, swept_satisfied)`.
    ///
    /// Safe at level 0 because top-level assignments are permanent (never
    /// backtracked) and conflict analysis skips level-0 literals, so their
    /// `reason` references — the only stored `ClauseRef`s outside the watch
    /// lists — may be cleared instead of remapped.
    fn rebuild_db(
        &mut self,
        mut drop_clause: impl FnMut(ClauseRef, &Clause) -> bool,
    ) -> (usize, usize) {
        debug_assert_eq!(self.decision_level(), 0);
        for &l in &self.trail {
            self.reason[l.var().index()] = None;
        }
        let old = std::mem::take(&mut self.clauses);
        let mut dropped = 0usize;
        let mut swept = 0usize;
        let mut units: Vec<Lit> = Vec::new();
        let mut kept: Vec<Clause> = Vec::with_capacity(old.len());
        for (cr, mut c) in old.into_iter().enumerate() {
            if drop_clause(cr, &c) {
                dropped += 1;
                continue;
            }
            if c.lits.iter().any(|&l| self.lit_value(l) == LBool::True) {
                swept += 1;
                continue;
            }
            c.lits.retain(|&l| self.lit_value(l) != LBool::False);
            match c.lits.len() {
                0 => self.ok = false,
                1 => units.push(c.lits[0]),
                _ => kept.push(c),
            }
        }
        self.clauses = kept;
        self.learnts = self.clauses.iter().filter(|c| c.learnt).count();
        self.watches.clear();
        for cr in 0..self.clauses.len() {
            let (a, b) = (self.clauses[cr].lits[0], self.clauses[cr].lits[1]);
            self.watch(a, b, cr);
            self.watch(b, a, cr);
        }
        for u in units {
            match self.lit_value(u) {
                LBool::Undef => self.enqueue(u, None),
                LBool::False => self.ok = false,
                LBool::True => {}
            }
        }
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }
        (dropped, swept)
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state after the addition (e.g. conflicting unit
    /// clauses); further solving will report [`SatResult::Unsat`].
    ///
    /// Duplicate literals are removed and tautological clauses (containing
    /// `l` and `¬l`) are silently accepted as no-ops.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable not created by this solver.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack_to(0);
        let mut c: Vec<Lit> = lits.to_vec();
        for l in &c {
            assert!(
                l.var().index() < self.num_vars(),
                "unknown variable {:?}",
                l.var()
            );
        }
        c.sort();
        c.dedup();
        // Tautology?
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true;
        }
        // Remove literals already false at level 0; detect satisfied clauses.
        c.retain(|&l| self.lit_value(l) != LBool::False || self.level[l.var().index()] != 0);
        if c.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return true;
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if self.lit_value(c[0]) == LBool::Undef {
                    self.enqueue(c[0], None);
                    self.ok = self.propagate().is_none();
                }
                self.ok
            }
            _ => {
                let cr = self.clauses.len();
                self.watch(c[0], c[1], cr);
                self.watch(c[1], c[0], cr);
                self.clauses.push(Clause {
                    lits: c,
                    learnt: false,
                    act: 0.0,
                });
                true
            }
        }
    }

    fn watch(&mut self, lit: Lit, blocker: Lit, clause: ClauseRef) {
        self.watches
            .push((!lit).code(), Watcher { clause, blocker });
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        match self.assign[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    /// The model value of `var` after a [`SatResult::Sat`] outcome; `None`
    /// before solving or after an unsatisfiable result.
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.assign[var.index()] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32 // lint:allow(as-cast): decision levels <= var count < 2^32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        let v = l.var().index();
        debug_assert_eq!(self.assign[v], LBool::Undef);
        self.assign[v] = if l.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.phase[v] = l.is_positive();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Watchers keyed by the literal that became FALSE: ¬p. Drain
            // p's list into the reusable scratch buffer; survivors are
            // pushed straight back into the (now empty) arena range.
            let mut ws = std::mem::take(&mut self.scratch);
            self.watches.drain_into(p.code(), &mut ws);
            let mut conflict = None;
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == LBool::True {
                    self.watches.push(p.code(), w);
                    continue;
                }
                let cr = w.clause;
                // Normalize: watched literals are lits[0] and lits[1]; put the
                // false one (¬p) at position 1.
                let false_lit = !p;
                {
                    let clause = &mut self.clauses[cr];
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                    debug_assert_eq!(clause.lits[1], false_lit);
                }
                let first = self.clauses[cr].lits[0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    self.watches.push(
                        p.code(),
                        Watcher {
                            clause: cr,
                            blocker: first,
                        },
                    );
                    continue;
                }
                // Find a new literal to watch.
                let mut found = None;
                for k in 2..self.clauses[cr].lits.len() {
                    if self.lit_value(self.clauses[cr].lits[k]) != LBool::False {
                        found = Some(k);
                        break;
                    }
                }
                if let Some(k) = found {
                    let lk = self.clauses[cr].lits[k];
                    self.clauses[cr].lits.swap(1, k);
                    self.watches.push(
                        (!lk).code(),
                        Watcher {
                            clause: cr,
                            blocker: first,
                        },
                    );
                    continue;
                }
                // Clause is unit or conflicting; it keeps watching p.
                self.watches.push(
                    p.code(),
                    Watcher {
                        clause: cr,
                        blocker: first,
                    },
                );
                if self.lit_value(first) == LBool::False {
                    // Conflict: restore the unprocessed watchers and report.
                    while i < ws.len() {
                        self.watches.push(p.code(), ws[i]);
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cr);
                    break;
                }
                self.enqueue(first, Some(cr));
            }
            self.scratch = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn cla_bump(&mut self, cr: ClauseRef) {
        if !self.clauses[cr].learnt {
            return;
        }
        self.clauses[cr].act += self.cla_inc;
        if self.clauses[cr].act > 1e100 {
            for c in &mut self.clauses {
                c.act *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis; returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();

        loop {
            self.cla_bump(confl);
            let start = usize::from(p.is_some());
            let lits = self.clauses[confl].lits.clone();
            for &q in &lits[start..] {
                let v = q.var().index();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next seen literal at this level.
            loop {
                idx -= 1;
                if seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[idx];
            let v = lit.var().index();
            seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            confl = self.reason[v].expect("non-decision literal has a reason"); // lint:allow(panic): internal invariant; the message states it
            p = Some(lit);
        }
        let uip = !p.expect("loop sets p before breaking"); // lint:allow(panic): internal invariant; the message states it
        let mut clause = vec![uip];
        clause.extend_from_slice(&learnt);
        // Backjump level: second-highest level in the clause.
        let bj = clause[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        // Put a literal of the backjump level at index 1 (watch invariant).
        if clause.len() > 2 {
            let pos = clause[1..]
                .iter()
                .position(|l| self.level[l.var().index()] == bj)
                .expect("max exists") // lint:allow(panic): internal invariant; the message states it
                + 1;
            clause.swap(1, pos);
        }
        (clause, bj)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0"); // lint:allow(panic): internal invariant; the message states it
            for &l in &self.trail[lim..] {
                let v = l.var().index();
                self.assign[v] = LBool::Undef;
                self.reason[v] = None;
            }
            self.trail.truncate(lim);
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == LBool::Undef
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best.map(|v| Lit::with_sign(Var(v as u32), self.phase[v])) // lint:allow(as-cast): var count < 2^32 (Var wraps u32)
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under temporary assumptions (forced first decisions). The
    /// assumptions do not persist: subsequent calls start fresh. Saved
    /// phases and variable activities *do* persist, so related consecutive
    /// queries guide each other.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        if self.learnts > LEARNT_LIMIT {
            self.reduce_learnts();
            if !self.ok {
                return SatResult::Unsat;
            }
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }

        let mut luby_index = 0u32;
        let mut conflict_budget = 100u64 * luby(luby_index);

        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                // Never learn below the assumption levels: if the conflict is
                // at or below them, the assumptions are jointly infeasible.
                if (self.decision_level() as usize) <= assumptions.len() {
                    // lint:allow(as-cast): u32 index fits usize on all supported targets
                    return SatResult::Unsat;
                }
                let (clause, mut bj) = self.analyze(confl);
                if (bj as usize) < assumptions.len() {
                    // lint:allow(as-cast): u32 index fits usize on all supported targets
                    bj = assumptions.len() as u32; // lint:allow(as-cast): assumption count <= var count < 2^32
                }
                self.backtrack_to(bj);
                if clause.len() == 1 {
                    if self.lit_value(clause[0]) == LBool::False {
                        return SatResult::Unsat;
                    }
                    if self.lit_value(clause[0]) == LBool::Undef {
                        self.enqueue(clause[0], None);
                    }
                } else {
                    let cr = self.clauses.len();
                    self.watch(clause[0], clause[1], cr);
                    self.watch(clause[1], clause[0], cr);
                    let asserting = clause[0];
                    self.clauses.push(Clause {
                        lits: clause,
                        learnt: true,
                        act: self.cla_inc,
                    });
                    self.learnts += 1;
                    if self.lit_value(asserting) == LBool::Undef {
                        self.enqueue(asserting, Some(cr));
                    }
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.conflicts >= conflict_budget {
                    // Restart (keep assumption levels).
                    luby_index += 1;
                    conflict_budget = self.conflicts + 100 * luby(luby_index);
                    self.backtrack_to(assumptions.len() as u32); // lint:allow(as-cast): assumption count <= var count < 2^32
                }
            } else {
                // Place pending assumptions.
                if (self.decision_level() as usize) < assumptions.len() {
                    // lint:allow(as-cast): u32 index fits usize on all supported targets
                    let a = assumptions[self.decision_level() as usize]; // lint:allow(as-cast): u32 index fits usize on all supported targets
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already implied; open an empty decision level
                            // to keep level bookkeeping aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return SatResult::Unsat,
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.decide() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Internal consistency probe for the watch arena, used by the stress
    /// suite: every stored clause (length ≥ 2 after top-level
    /// simplification) must be watched on exactly its first two literals,
    /// and no watcher may point at a dropped clause.
    #[doc(hidden)]
    pub fn debug_check_watches(&self) -> Result<(), String> {
        let mut counts = vec![0usize; self.clauses.len()];
        for code in 0..self.num_vars() * 2 {
            let r = self.watches.ranges[code];
            for w in &self.watches.data[r.start..r.start + r.len] {
                if w.clause >= self.clauses.len() {
                    return Err(format!("watcher points at dead clause {}", w.clause));
                }
                let lits = &self.clauses[w.clause].lits;
                let watched = !Lit(u32::try_from(code).map_err(|_| "code overflow")?);
                if lits[0] != watched && lits[1] != watched {
                    return Err(format!(
                        "clause {} watched on non-watch literal {watched:?}",
                        w.clause
                    ));
                }
                counts[w.clause] += 1;
            }
        }
        for (cr, &n) in counts.iter().enumerate() {
            if n != 2 {
                return Err(format!("clause {cr} has {n} watchers, expected 2"));
            }
        }
        if self.watches.live() != self.clauses.len() * 2 {
            return Err("live watcher total does not match clause count".into());
        }
        Ok(())
    }
}

/// The Luby restart sequence (0-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(i: u32) -> u64 {
    let mut i = u64::from(i) + 1;
    loop {
        let k = 64 - u64::from(i.leading_zeros()); // ⌊log2 i⌋ + 1
        if i == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let mut s = Solver::new();
        let v = s.new_var();
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(p.var(), v);
        assert_eq!(Lit::with_sign(v, true), p);
        assert_eq!(Lit::with_sign(v, false), n);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a)]));
        assert!(s.add_clause(&[Lit::neg(a), Lit::pos(b)]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn conflicting_units_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        let ok = s.add_clause(&[Lit::neg(a)]);
        assert!(!ok);
        assert!(!s.is_ok());
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_is_noop() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a), Lit::neg(a)]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x2 ⊕ x3 = 1 encoded as CNF.
        let mut s = Solver::new();
        let v: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        for w in v.windows(2) {
            let (a, b) = (w[0], w[1]);
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        let m: Vec<bool> = v.iter().map(|&x| s.value(x).unwrap()).collect();
        assert!(m[0] != m[1] && m[1] != m[2] && m[2] != m[3]);
    }

    #[test]
    fn luby_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn group_clauses_bind_only_under_activation() {
        let mut s = Solver::new();
        let a = s.new_var();
        let g = s.new_group();
        assert!(s.add_clause_in(g, &[Lit::pos(a)]));
        // Without the activation assumption the group clause is soft.
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(a)]), SatResult::Sat);
        // With it, the clause binds and contradicts the assumption.
        assert_eq!(
            s.solve_with_assumptions(&[g.lit(), Lit::neg(a)]),
            SatResult::Unsat
        );
        // The solver itself stays consistent.
        assert!(s.is_ok());
        assert_eq!(s.solve_with_assumptions(&[g.lit()]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn retract_sweeps_group_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        let g = s.new_group();
        s.add_clause_in(g, &[Lit::neg(a)]);
        s.add_clause_in(g, &[Lit::neg(b)]);
        assert_eq!(s.num_clauses(), 3);
        assert_eq!(s.solve_with_assumptions(&[g.lit()]), SatResult::Unsat);
        let swept = s.retract(g);
        assert!(swept >= 2, "group clauses must be swept, got {swept}");
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.solve(), SatResult::Sat);
        s.debug_check_watches().unwrap();
    }

    #[test]
    fn watch_arena_relocation_preserves_propagation() {
        // Many clauses watching the same literal force repeated arena
        // relocations of one hot list.
        let mut s = Solver::new();
        let hub = s.new_var();
        let spokes: Vec<Var> = (0..64).map(|_| s.new_var()).collect();
        for &sp in &spokes {
            s.add_clause(&[Lit::neg(hub), Lit::pos(sp)]);
        }
        s.add_clause(&[Lit::pos(hub)]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &sp in &spokes {
            assert_eq!(s.value(sp), Some(true));
        }
        s.debug_check_watches().unwrap();
    }
}
