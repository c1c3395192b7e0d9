//! A CDCL SAT solver with native at-most-one constraints and
//! priority-directed branching for SAT-decoding.
//!
//! The feasibility engine behind the paper's design space exploration: the
//! MOEA's genotype supplies per-variable branching priorities and preferred
//! polarities; the solver decodes them into a *feasible* implementation by
//! branching in priority order and repairing the rare conflict with clause
//! learning. A reused solver starts each decode from the learned clauses,
//! saved phases, VSIDS activity and heap layout of the ones before. Clauses
//! live in a flat [`Arena`], so a decode allocates nothing until a conflict.

use crate::heap::VarHeap;
use crate::lit::{Lit, Value, Var};

/// Why a variable got its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// Branching decision.
    Decision,
    /// Propagated by clause `idx` (watched-literal unit propagation).
    Clause(u32),
    /// Propagated by an at-most-one constraint; `other` is the literal of
    /// that constraint that became true.
    AmoPair(Lit),
    /// Not assigned.
    None,
}

/// Append-only literal lists, back to back: list `i` is `lits[start[i]..start[i + 1]]`.
/// Offsets are `u32`, so a solver holds fewer than 2^32 literals.
#[derive(Debug, Clone)]
struct Arena {
    lits: Vec<Lit>,
    start: Vec<u32>,
}

impl Arena {
    fn new() -> Self {
        Arena {
            lits: Vec::new(),
            start: vec![0],
        }
    }

    /// Seals the literals pushed since the last list as a new list; returns its index.
    fn close(&mut self) -> u32 {
        self.start.push(self.lits.len() as u32);
        (self.start.len() - 2) as u32
    }

    /// Appends `lits` as a new list and returns its index.
    fn push(&mut self, lits: &[Lit]) -> u32 {
        self.lits.extend_from_slice(lits);
        self.close()
    }

    fn range(&self, i: u32) -> std::ops::Range<usize> {
        self.start[i as usize] as usize..self.start[i as usize + 1] as usize
    }
}

/// Result of [`Solver::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; read the model with [`Solver::value`].
    Sat,
    /// Unsatisfiable.
    Unsat,
}

/// CDCL solver with priority-directed branching (see the crate docs for
/// the SAT-decoding workflow).
///
/// # Example
///
/// ```
/// use eea_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative(), b.negative()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_ne!(s.value(a), s.value(b));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    num_vars: usize,
    /// Problem clauses, then learned ones.
    clauses: Arena,
    num_learned: usize,
    /// Watch lists indexed by literal code: clauses watching that literal.
    watches: Vec<Vec<u32>>,
    /// At-most-one groups.
    amos: Arena,
    /// For each literal code, the AMO groups in which it occurs positively.
    amo_occurs: Vec<Vec<u32>>,
    values: Vec<Value>,
    reason: Vec<Reason>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    head: usize,
    /// Branching order (max priority first).
    heap: VarHeap,
    /// Saved phase per variable (last assigned value).
    phase: Vec<bool>,
    /// User-preferred polarity (decode mode); overrides phase saving.
    user_polarity: Vec<Option<bool>>,
    activity: Vec<f64>,
    var_inc: f64,
    ok: bool,
    conflicts: u64,
    /// Analysis scratch.
    seen: Vec<bool>,
    /// Statistics: total propagations.
    propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            num_vars: 0,
            clauses: Arena::new(),
            num_learned: 0,
            watches: Vec::new(),
            amos: Arena::new(),
            amo_occurs: Vec::new(),
            values: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            head: 0,
            heap: VarHeap::new(),
            phase: Vec::new(),
            user_polarity: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            ok: true,
            conflicts: 0,
            seen: Vec::new(),
            propagations: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars as u32);
        self.num_vars += 1;
        self.values.push(Value::Unassigned);
        self.reason.push(Reason::None);
        self.level.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.amo_occurs.push(Vec::new());
        self.amo_occurs.push(Vec::new());
        self.phase.push(false);
        self.user_polarity.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.heap.grow(self.num_vars);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of conflicts encountered so far (across all solves).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of unit propagations performed so far.
    pub fn num_propagations(&self) -> u64 {
        self.propagations
    }

    /// Number of learned clauses currently in the database.
    pub fn num_learned(&self) -> usize {
        self.num_learned
    }

    /// Current value of a literal.
    #[inline]
    fn lit_value(&self, l: Lit) -> Value {
        let v = self.values[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// Model value of a variable (valid after a `Sat` result; unassigned
    /// variables read as `false`).
    pub fn value(&self, v: Var) -> bool {
        self.values[v.index()] == Value::True
    }

    /// Adds a clause (disjunction of literals).
    ///
    /// Returns `false` if the formula became trivially unsatisfiable.
    /// May be called between solves; the solver backtracks to level 0.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack_to(0);
        if !self.ok {
            return false;
        }
        // Normalise onto the arena's open end: drop duplicate and false
        // literals, detect tautology.
        let start = self.clauses.lits.len();
        for &l in lits {
            let kept = &self.clauses.lits[start..];
            let satisfied = match self.lit_value(l) {
                Value::True => true, // at level 0
                Value::False => continue,
                Value::Unassigned => kept.contains(&!l), // tautology
            };
            if satisfied {
                self.clauses.lits.truncate(start);
                return true;
            }
            if !kept.contains(&l) {
                self.clauses.lits.push(l);
            }
        }
        match self.clauses.lits.len() - start {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                let unit = self.clauses.lits.remove(start);
                self.enqueue(unit, Reason::Decision);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let idx = self.clauses.close();
                self.watch_clause(idx);
                true
            }
        }
    }

    /// Watches the first two literals of clause `idx`.
    fn watch_clause(&mut self, idx: u32) {
        let w0 = self.clauses.range(idx).start;
        for l in [self.clauses.lits[w0], self.clauses.lits[w0 + 1]] {
            self.watches[l.code()].push(idx);
        }
    }

    /// Adds an at-most-one constraint over `lits`. May be called between
    /// solves; the solver backtracks to level 0.
    ///
    /// # Panics
    ///
    /// Panics if `lits` repeats a variable.
    pub fn add_at_most_one(&mut self, lits: &[Lit]) {
        self.backtrack_to(0);
        if lits.len() < 2 || !self.ok {
            return;
        }
        for (i, &a) in lits.iter().enumerate() {
            for &b in &lits[i + 1..] {
                assert_ne!(a.var(), b.var(), "AMO over a repeated variable");
            }
        }
        let idx = self.amos.push(lits);
        for &l in lits {
            self.amo_occurs[l.code()].push(idx);
        }
        // Handle literals already true at level 0.
        if let Some(&t) = lits.iter().find(|&&l| self.lit_value(l) == Value::True) {
            for &l in lits {
                if l == t {
                    continue;
                }
                match self.lit_value(l) {
                    Value::True => {
                        // Two literals already true at level 0.
                        self.ok = false;
                        return;
                    }
                    Value::Unassigned => self.enqueue(!l, Reason::AmoPair(t)),
                    Value::False => {}
                }
            }
            if self.propagate().is_some() {
                self.ok = false;
            }
        }
    }

    /// Adds an exactly-one constraint (at-least-one clause + at-most-one).
    pub fn add_exactly_one(&mut self, lits: &[Lit]) {
        self.add_clause(lits);
        self.add_at_most_one(lits);
    }

    /// Adds the implication `a -> b`.
    pub fn add_implies(&mut self, a: Lit, b: Lit) {
        self.add_clause(&[!a, b]);
    }

    /// Adds the equivalence `a <-> b`.
    pub fn add_equal(&mut self, a: Lit, b: Lit) {
        self.add_clause(&[!a, b]);
        self.add_clause(&[a, !b]);
    }

    /// Sets the preferred polarity of a variable (the value it is assigned
    /// first when branched on).
    pub fn set_polarity(&mut self, v: Var, polarity: bool) {
        self.user_polarity[v.index()] = Some(polarity);
    }

    /// Sets the branching priority of a variable. Higher priorities are
    /// decided first. Used by SAT-decoding: the genotype supplies one
    /// priority per decision variable.
    pub fn set_priority(&mut self, v: Var, priority: f64) {
        self.heap.set_static_priority(v.index(), priority);
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.lit_value(l), Value::Unassigned);
        let v = l.var();
        self.values[v.index()] = if l.is_positive() {
            Value::True
        } else {
            Value::False
        };
        self.reason[v.index()] = reason;
        self.level[v.index()] = self.trail_lim.len() as u32;
        self.trail.push(l);
    }

    /// Propagates until fixpoint; returns the conflicting clause (as a
    /// literal vector) on conflict.
    fn propagate(&mut self) -> Option<Vec<Lit>> {
        while self.head < self.trail.len() {
            let p = self.trail[self.head];
            self.head += 1;
            self.propagations += 1;

            // AMO constraints containing p positively: all other literals
            // become false.
            for g in 0..self.amo_occurs[p.code()].len() {
                for k in self.amos.range(self.amo_occurs[p.code()][g]) {
                    let l = self.amos.lits[k];
                    match self.lit_value(l) {
                        _ if l == p => {}
                        // Two true literals in one AMO: conflict (!p \/ !l).
                        Value::True => return Some(vec![!p, !l]),
                        Value::Unassigned => self.enqueue(!l, Reason::AmoPair(p)),
                        Value::False => {}
                    }
                }
            }

            // Clauses watching !p must find a new watch or propagate.
            let false_lit = !p;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                let range = self.clauses.range(ci);
                let (w0, w1) = (range.start, range.start + 1);
                // Ensure the first literal is the other watch.
                if self.clauses.lits[w0] == false_lit {
                    self.clauses.lits.swap(w0, w1);
                }
                let first = self.clauses.lits[w0];
                if self.lit_value(first) == Value::True {
                    i += 1;
                    continue;
                }
                // Find a replacement watch.
                let lits = &self.clauses.lits;
                if let Some(k) =
                    (w1 + 1..range.end).find(|&k| self.lit_value(lits[k]) != Value::False)
                {
                    self.clauses.lits.swap(w1, k);
                    self.watches[self.clauses.lits[w1].code()].push(ci);
                    watch_list.swap_remove(i);
                    continue;
                }
                // Unit or conflict.
                if self.lit_value(first) == Value::False {
                    let conflict = self.clauses.lits[range].to_vec();
                    self.watches[false_lit.code()] = watch_list;
                    return Some(conflict);
                }
                self.enqueue(first, Reason::Clause(ci));
                i += 1;
            }
            self.watches[false_lit.code()] = watch_list;
        }
        None
    }

    fn reason_lits(&self, v: Var) -> Vec<Lit> {
        match self.reason[v.index()] {
            Reason::Clause(ci) => self.clauses.lits[self.clauses.range(ci)].to_vec(),
            Reason::AmoPair(other) => {
                let this = v.lit(self.values[v.index()] == Value::True);
                vec![this, !other]
            }
            Reason::Decision | Reason::None => Vec::new(),
        }
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap
            .set_dynamic_activity(v.index(), self.activity[v.index()]);
    }

    /// First-UIP conflict analysis; returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: Vec<Lit>) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut reason = conflict;
        let mut trail_idx = self.trail.len();
        let mut asserting: Option<Lit> = None;

        // The loop always visits at least one current-level literal before
        // `counter` reaches zero (the caller guarantees the conflict happened
        // at a positive decision level), so it breaks with the 1-UIP literal.
        let uip = loop {
            for &l in &reason {
                let v = l.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                // Skip the asserting literal itself when expanding its reason.
                if let Some(a) = asserting {
                    if l == a || l == !a {
                        continue;
                    }
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.level[v.index()] == cur_level {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Find the next seen literal on the trail at the current level.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if self.seen[l.var().index()] {
                    break;
                }
            }
            let p = self.trail[trail_idx];
            self.seen[p.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break !p;
            }
            reason = self.reason_lits(p.var());
            asserting = Some(!p);
        };
        for &l in &learned {
            self.seen[l.var().index()] = false;
        }
        // Backtrack level: highest level among the non-asserting literals.
        let bt = learned
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        let mut clause = vec![uip];
        clause.extend(learned);
        (clause, bt)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let Some(lim) = self.trail_lim.pop() else {
                break;
            };
            while self.trail.len() > lim {
                let Some(l) = self.trail.pop() else { break };
                let v = l.var();
                self.phase[v.index()] = self.values[v.index()] == Value::True;
                self.values[v.index()] = Value::Unassigned;
                self.reason[v.index()] = Reason::None;
                self.heap.reinsert(v.index());
            }
        }
        self.head = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(vi) = self.heap.pop_max() {
            if self.values[vi] == Value::Unassigned {
                return Some(Var(vi as u32));
            }
        }
        None
    }

    /// Solves the current formula.
    ///
    /// Branching honours the priorities set via
    /// [`set_priority`](Self::set_priority) (static, decode mode) combined
    /// with VSIDS activity, and polarity hints set via
    /// [`set_polarity`](Self::set_polarity). The solver state is reset to
    /// decision level 0 first, so `solve` can be called repeatedly with
    /// different hints while keeping learned clauses.
    pub fn solve(&mut self) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        self.heap.rebuild();
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }

        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = 256u64;
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.trail_lim.is_empty() {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    let (learned, bt) = self.analyze(conflict);
                    self.backtrack_to(bt);
                    match learned.len() {
                        1 => {
                            self.enqueue(learned[0], Reason::Decision);
                        }
                        _ => {
                            let ci = self.clauses.push(&learned);
                            self.watch_clause(ci);
                            self.num_learned += 1;
                            self.enqueue(learned[0], Reason::Clause(ci));
                        }
                    }
                    self.var_inc /= 0.95;
                    if conflicts_since_restart >= restart_limit {
                        conflicts_since_restart = 0;
                        restart_limit = (restart_limit * 3) / 2;
                        self.backtrack_to(0);
                    }
                }
                None => match self.pick_branch() {
                    None => return SolveResult::Sat,
                    Some(v) => {
                        self.trail_lim.push(self.trail.len());
                        let pol = self.user_polarity[v.index()].unwrap_or(self.phase[v.index()]);
                        self.enqueue(v.lit(pol), Reason::Decision);
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[0]));

        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[0].negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_sat() {
        // (a xor b), (b xor c), (a xor c) is unsat; drop one -> sat.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let xor = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[a.positive(), b.positive()]);
            s.add_clause(&[a.negative(), b.negative()]);
        };
        xor(&mut s, v[0], v[1]);
        xor(&mut s, v[1], v[2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        xor(&mut s, v[0], v[2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn amo_propagates() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let lits: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_at_most_one(&lits);
        s.add_clause(&[v[1].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[1]));
        assert!(!s.value(v[0]) && !s.value(v[2]) && !s.value(v[3]));
    }

    #[test]
    fn amo_conflict_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_at_most_one(&[v[0].positive(), v[1].positive()]);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[1].positive()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn exactly_one_picks_one() {
        let mut s = Solver::new();
        let v = vars(&mut s, 5);
        let lits: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_exactly_one(&lits);
        assert_eq!(s.solve(), SolveResult::Sat);
        let count = v.iter().filter(|&&x| s.value(x)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn polarity_hint_respected_when_free() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let lits: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_clause(&lits);
        for &x in &v {
            s.set_polarity(x, true);
        }
        s.set_priority(v[2], 10.0);
        assert_eq!(s.solve(), SolveResult::Sat);
        // The highest-priority variable is decided first with polarity true.
        assert!(s.value(v[2]));
    }

    #[test]
    fn priorities_steer_model() {
        // exactly-one over 4 vars: the decoded "winner" follows priority.
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let lits: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_exactly_one(&lits);
        for (i, &x) in v.iter().enumerate() {
            s.set_polarity(x, true);
            s.set_priority(x, i as f64);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[3]));
        // Re-solve with different priorities, same solver.
        for (i, &x) in v.iter().enumerate() {
            s.set_priority(x, -(i as f64));
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[0]));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for h in 0..2 {
            let lits: Vec<Lit> = p.iter().map(|row| row[h].positive()).collect();
            s.add_at_most_one(&lits);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn php_5_into_4_unsat() {
        let mut s = Solver::new();
        let n = 5;
        let m = 4;
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for h in 0..m {
            let lits: Vec<Lit> = p.iter().map(|row| row[h].positive()).collect();
            s.add_at_most_one(&lits);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 10);
        for w in v.windows(2) {
            s.add_implies(w[0].positive(), w[1].positive());
        }
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(v.iter().all(|&x| s.value(x)));
    }

    #[test]
    fn add_equal_links_vars() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_equal(v[0].positive(), v[1].positive());
        s.add_clause(&[v[0].negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!s.value(v[1]));
    }

    /// Cross-check against brute force on random small formulas.
    #[test]
    fn random_formulas_match_brute_force() {
        let mut rng = 0x2468_ACE0_1357_9BDFu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..200 {
            let n = 3 + (next() % 6) as usize; // 3..8 vars
            let m = 3 + (next() % 12) as usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..m {
                let len = 1 + (next() % 3) as usize;
                let mut cl = Vec::new();
                for _ in 0..len {
                    cl.push(((next() % n as u64) as usize, next() & 1 == 1));
                }
                clauses.push(cl);
            }
            // AMO over a random subset (when n >= 4).
            let amo: Vec<usize> = if n >= 4 { vec![0, 1, 2, 3] } else { vec![] };

            // Brute force.
            let mut expect_sat = false;
            'outer: for bits in 0..(1u32 << n) {
                let val = |i: usize| (bits >> i) & 1 == 1;
                for cl in &clauses {
                    if !cl.iter().any(|&(v, s)| val(v) == s) {
                        continue 'outer;
                    }
                }
                if amo.iter().filter(|&&v| val(v)).count() > 1 {
                    continue 'outer;
                }
                expect_sat = true;
                break;
            }

            let mut s = Solver::new();
            let v = vars(&mut s, n);
            for cl in &clauses {
                let lits: Vec<Lit> = cl.iter().map(|&(i, sg)| v[i].lit(sg)).collect();
                s.add_clause(&lits);
            }
            if !amo.is_empty() {
                let lits: Vec<Lit> = amo.iter().map(|&i| v[i].positive()).collect();
                s.add_at_most_one(&lits);
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, expect_sat, "round {round} disagrees with oracle");
            // If SAT, the model must satisfy everything.
            if got {
                for cl in &clauses {
                    assert!(cl.iter().any(|&(i, sg)| s.value(v[i]) == sg));
                }
                assert!(amo.iter().filter(|&&i| s.value(v[i])).count() <= 1);
            }
        }
    }
}
