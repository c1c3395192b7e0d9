//! SAT/ILP encoding of the feasibility constraints (Section III-C).
//!
//! Variables, following the paper's characteristic function `Ψ`:
//!
//! * `m` — one Boolean per mapping edge `(t, r) ∈ M`,
//! * `c_r` — message `c` is routed over resource `r`,
//! * `c_{rτ}` — message `c` reaches resource `r` at routing step `τ`.
//!
//! Constraint families (all reduce to clauses + at-most-one):
//!
//! * functional tasks: mapped **exactly once** (the `Ψ_F` part of \[17\]),
//! * (2a) each diagnostic task mapped at most once,
//! * (2b) a message's route starts exactly at its (bound) sender,
//! * (2c) a bound receiver forces the route to reach its resource,
//! * (2d)–(2g) time-indexed, cycle-free, adjacency-respecting routing,
//! * (2h) no resource allocated solely for diagnosis,
//! * (3a) at most one BIST profile per ECU,
//! * (3b) the data task `b^D` is bound iff its test task `b^T` is.
//!
//! Route variables are created only for `(r, τ)` pairs that are both
//! forward-reachable from a sender option and backward-reachable from a
//! receiver option — a standard presolve that keeps the formula compact.

use std::collections::BTreeMap;

use eea_model::{Implementation, MessageId, ResourceId, Specification, TaskId};
use eea_sat::{Solver, Var};

use crate::augment::DiagSpec;
use crate::objectives::DecodeView;

/// The encoded formula plus the variable maps needed for decoding.
#[derive(Debug)]
pub struct Encoding {
    /// The solver holding the formula. Reused across decodes, each of which
    /// inherits the learned clauses, saved phases and heap layout of the
    /// ones before it.
    pub solver: Solver,
    /// Mapping variables per task: `(resource, var)` pairs.
    pub m_vars: Vec<Vec<(ResourceId, Var)>>,
    /// Route variables `c_r` per message.
    pub c_vars: Vec<BTreeMap<ResourceId, Var>>,
    /// Time-indexed route variables `c_{rτ}` per message.
    pub ct_vars: Vec<BTreeMap<(ResourceId, u32), Var>>,
    /// Routing horizon (architecture diameter).
    pub horizon: u32,
}

impl Encoding {
    /// All mapping variables in deterministic order, with their task and
    /// resource. This is the genotype's decision-variable order.
    pub fn mapping_vars(&self) -> Vec<(TaskId, ResourceId, Var)> {
        let mut out = Vec::new();
        for (ti, opts) in self.m_vars.iter().enumerate() {
            for &(r, v) in opts {
                out.push((TaskId::from_index(ti), r, v));
            }
        }
        out
    }

    /// Extracts the implementation from the solver's current model.
    ///
    /// Only meaningful directly after a satisfiable
    /// [`solve`](eea_sat::Solver::solve).
    pub fn extract(&self, spec: &Specification) -> Implementation {
        self.extract_model(&self.solver, spec)
    }

    /// Like [`extract`](Self::extract), but reads the model of an external
    /// `solver` — a clone of [`solver`](Self::solver) holding the same
    /// formula (and hence the same variable numbering). This is what lets
    /// per-worker solver replicas share one encoding.
    pub fn extract_model(&self, solver: &Solver, spec: &Specification) -> Implementation {
        let mut x = Implementation::new();
        for (task, resource) in self.bound_tasks(solver) {
            x.bind(task, resource);
        }
        for mi in 0..self.c_vars.len() {
            let message = MessageId::from_index(mi);
            let sender = spec.application.message(message).sender;
            if x.binding_of(sender).is_none() {
                continue;
            }
            // Order route resources by their earliest active time step so
            // the route reads sender-outward.
            let mut hops: Vec<(u32, ResourceId)> = Vec::new();
            for (&r, &v) in &self.c_vars[mi] {
                if solver.value(v) {
                    let tau = self.ct_vars[mi]
                        .iter()
                        .filter(|&(&(rr, _), &tv)| rr == r && solver.value(tv))
                        .map(|(&(_, tau), _)| tau)
                        .min()
                        .unwrap_or(u32::MAX);
                    hops.push((tau, r));
                }
            }
            hops.sort();
            x.route(message, hops.into_iter().map(|(_, r)| r).collect());
        }
        x
    }

    /// Reads `solver`'s model into `view`, replacing what it held: the
    /// binding of every true mapping variable, and as allocated resources
    /// the true `c_r` of every message whose sender is bound — the
    /// allocation of [`extract_model`](Self::extract_model)'s
    /// implementation, without ordering any route's hops.
    pub(crate) fn read_model(&self, solver: &Solver, spec: &Specification, view: &mut DecodeView) {
        view.clear();
        for (task, resource) in self.bound_tasks(solver) {
            view.bind(task, resource);
        }
        for (mi, route_vars) in self.c_vars.iter().enumerate() {
            let sender = spec.application.message(MessageId::from_index(mi)).sender;
            if view.binding_of(sender).is_none() {
                continue;
            }
            for (&r, &v) in route_vars {
                if solver.value(v) {
                    view.allocate(r);
                }
            }
        }
    }

    /// The true mapping variables of `solver`'s model as `(task,
    /// resource)` pairs, in task order.
    fn bound_tasks<'a>(
        &'a self,
        solver: &'a Solver,
    ) -> impl Iterator<Item = (TaskId, ResourceId)> + 'a {
        self.m_vars.iter().enumerate().flat_map(move |(ti, opts)| {
            opts.iter()
                .filter(move |&&(_, v)| solver.value(v))
                .map(move |&(r, _)| (TaskId::from_index(ti), r))
        })
    }
}

/// Builds the complete encoding for an augmented specification.
pub fn encode(diag: &DiagSpec) -> Encoding {
    let spec = &diag.spec;
    let app = &spec.application;
    let arch = &spec.architecture;
    let mut solver = Solver::new();
    let hops = HopTable::build(arch);
    let horizon = hops.diameter();

    // Mapping variables.
    let mut m_vars: Vec<Vec<(ResourceId, Var)>> = Vec::with_capacity(app.num_tasks());
    for t in app.task_ids() {
        let opts: Vec<(ResourceId, Var)> = spec
            .mapping_options(t)
            .iter()
            .map(|&r| (r, solver.new_var()))
            .collect();
        m_vars.push(opts);
    }

    // Functional: exactly one; diagnostic: at most one (2a).
    for t in app.task_ids() {
        let lits: Vec<_> = m_vars[t.index()]
            .iter()
            .map(|&(_, v)| v.positive())
            .collect();
        if lits.is_empty() {
            continue;
        }
        if app.task(t).kind.is_diagnostic() {
            solver.add_at_most_one(&lits);
        } else {
            solver.add_exactly_one(&lits);
        }
    }

    // (3a) at most one BIST profile per ECU.
    for ecu in diag.bist_ecus() {
        let lits: Vec<_> = diag
            .options_of(ecu)
            .map(|o| {
                let (r, v) = m_vars[o.test.index()][0];
                debug_assert_eq!(r, ecu);
                v.positive()
            })
            .collect();
        solver.add_at_most_one(&lits);
    }

    // (3b) b^D bound iff b^T bound.
    for o in &diag.options {
        let (_, t_var) = m_vars[o.test.index()][0];
        let d_lits: Vec<_> = m_vars[o.data.index()]
            .iter()
            .map(|&(_, v)| v.positive())
            .collect();
        // b^T -> some b^D binding.
        let mut clause = vec![t_var.negative()];
        clause.extend(d_lits.iter().copied());
        solver.add_clause(&clause);
        // any b^D binding -> b^T.
        for &d in &d_lits {
            solver.add_clause(&[!d, t_var.positive()]);
        }
    }

    // (2h) a diagnostic task may only be mapped to a resource that also
    // hosts a functional task. Precompute functional options per resource.
    let mut functional_on: BTreeMap<ResourceId, Vec<Var>> = BTreeMap::new();
    for t in app.functional_tasks() {
        for &(r, v) in &m_vars[t.index()] {
            functional_on.entry(r).or_default().push(v);
        }
    }
    for t in app.diagnostic_tasks() {
        for &(r, v) in &m_vars[t.index()] {
            let mut clause = vec![v.negative()];
            if let Some(funcs) = functional_on.get(&r) {
                clause.extend(funcs.iter().map(|f| f.positive()));
            }
            solver.add_clause(&clause);
        }
    }

    // Routing constraints per message.
    let mut c_vars: Vec<BTreeMap<ResourceId, Var>> = Vec::with_capacity(app.num_messages());
    let mut ct_vars: Vec<BTreeMap<(ResourceId, u32), Var>> = Vec::with_capacity(app.num_messages());
    for m in app.message_ids() {
        let msg = app.message(m);
        let sender_opts: Vec<ResourceId> =
            m_vars[msg.sender.index()].iter().map(|&(r, _)| r).collect();
        let mut receiver_opts: Vec<ResourceId> = Vec::new();
        for t in &msg.receivers {
            for &(r, _) in &m_vars[t.index()] {
                if !receiver_opts.contains(&r) {
                    receiver_opts.push(r);
                }
            }
        }

        // Presolve: forward distance from sender options, backward distance
        // to receiver options.
        let dist_from = hops.nearest(&sender_opts);
        let dist_to = hops.nearest(&receiver_opts);
        // Message horizon: longest sender->receiver distance that can occur.
        let mut h = 0;
        for &s in &sender_opts {
            for &t in &receiver_opts {
                if let Some(d) = hops.distance(s, t) {
                    h = h.max(d);
                }
            }
        }
        let h = h.min(horizon);

        let mut c_map: BTreeMap<ResourceId, Var> = BTreeMap::new();
        let mut ct_map: BTreeMap<(ResourceId, u32), Var> = BTreeMap::new();
        for r in arch.resource_ids() {
            let (Some(df), Some(dt)) = (dist_from[r.index()], dist_to[r.index()]) else {
                continue;
            };
            if df + dt > h {
                continue; // cannot lie on any admissible route
            }
            let cv = solver.new_var();
            c_map.insert(r, cv);
            for tau in df..=(h - dt) {
                let tv = solver.new_var();
                ct_map.insert((r, tau), tv);
            }
        }

        // (2b) route starts exactly at the bound sender.
        for &(r, mv) in &m_vars[msg.sender.index()] {
            match ct_map.get(&(r, 0)) {
                Some(&tv) => solver.add_equal(mv.positive(), tv.positive()),
                None => {
                    // Sender option cannot start any admissible route (no
                    // receiver reachable): binding there forbids receivers…
                    // handled by (2c) clauses below, but the mapping itself
                    // must then be excluded to keep routing sound.
                    solver.add_clause(&[mv.negative()]);
                }
            }
        }

        // (2c) a bound receiver pulls the route to its resource.
        for t in &msg.receivers {
            for &(r, recv_v) in &m_vars[t.index()] {
                for &(_, send_v) in &m_vars[msg.sender.index()] {
                    match c_map.get(&r) {
                        Some(&cv) => {
                            solver.add_clause(&[
                                cv.positive(),
                                send_v.negative(),
                                recv_v.negative(),
                            ]);
                        }
                        None => {
                            solver.add_clause(&[send_v.negative(), recv_v.negative()]);
                        }
                    }
                }
            }
        }

        // (2d) at most one active time step per resource;
        // (2e) an active resource has an active step;
        // (2f) an active step activates its resource.
        for (&r, &cv) in &c_map {
            let steps: Vec<_> = ct_map
                .range((r, 0)..=(r, u32::MAX))
                .map(|(_, &tv)| tv)
                .collect();
            let step_lits: Vec<_> = steps.iter().map(|v| v.positive()).collect();
            solver.add_at_most_one(&step_lits);
            let mut alo = vec![cv.negative()];
            alo.extend(step_lits.iter().copied());
            solver.add_clause(&alo);
            for &tv in &steps {
                solver.add_implies(tv.positive(), cv.positive());
            }
        }

        // (2g) a step-τ+1 resource needs an adjacent step-τ resource.
        for (&(r, tau), &tv) in &ct_map {
            if tau == 0 {
                continue;
            }
            let mut clause = vec![tv.negative()];
            for &n in arch.neighbors(r) {
                if let Some(&pv) = ct_map.get(&(n, tau - 1)) {
                    clause.push(pv.positive());
                }
            }
            solver.add_clause(&clause);
        }

        c_vars.push(c_map);
        ct_vars.push(ct_map);
    }

    Encoding {
        solver,
        m_vars,
        c_vars,
        ct_vars,
        horizon,
    }
}

/// All-pairs hop distances of an architecture, one breadth-first search
/// per resource — what the encoding asks of the graph, answered by lookup
/// instead of a search per message and per sender/receiver pair.
struct HopTable {
    n: usize,
    /// Row-major `n × n` distances; [`UNREACHABLE`](Self::UNREACHABLE)
    /// where no path exists.
    dist: Vec<u32>,
}

impl HopTable {
    const UNREACHABLE: u32 = u32::MAX;

    fn build(arch: &eea_model::Architecture) -> Self {
        let n = arch.num_resources();
        let mut dist = vec![Self::UNREACHABLE; n * n];
        let mut queue: Vec<ResourceId> = Vec::with_capacity(n);
        for (from, row) in arch.resource_ids().zip(dist.chunks_mut(n.max(1))) {
            row[from.index()] = 0;
            queue.clear();
            queue.push(from);
            let mut head = 0;
            while let Some(&r) = queue.get(head) {
                head += 1;
                let next = row[r.index()] + 1;
                for &nb in arch.neighbors(r) {
                    if row[nb.index()] == Self::UNREACHABLE {
                        row[nb.index()] = next;
                        queue.push(nb);
                    }
                }
            }
        }
        HopTable { n, dist }
    }

    /// Longest shortest path: [`Architecture::diameter`](eea_model::Architecture::diameter).
    fn diameter(&self) -> u32 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != Self::UNREACHABLE)
            .max()
            .unwrap_or(0)
    }

    /// [`Architecture::hop_distance`](eea_model::Architecture::hop_distance).
    fn distance(&self, from: ResourceId, to: ResourceId) -> Option<u32> {
        let d = self.dist[from.index() * self.n + to.index()];
        (d != Self::UNREACHABLE).then_some(d)
    }

    /// Hop distance of every resource to its nearest resource in
    /// `sources` — a multi-source breadth-first search, which on an
    /// unweighted undirected graph is the element-wise minimum of the
    /// sources' rows.
    fn nearest(&self, sources: &[ResourceId]) -> Vec<Option<u32>> {
        let mut best = vec![Self::UNREACHABLE; self.n];
        for s in sources {
            let row = &self.dist[s.index() * self.n..][..self.n];
            for (b, &d) in best.iter_mut().zip(row) {
                *b = (*b).min(d);
            }
        }
        best.into_iter()
            .map(|d| (d != Self::UNREACHABLE).then_some(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::augment;
    use eea_bist::paper_table1;
    use eea_model::paper_case_study;
    use eea_sat::SolveResult;

    #[test]
    fn encoding_is_satisfiable() {
        let case = paper_case_study();
        let diag = augment(&case, &paper_table1()[..4]).expect("gateway present");
        let mut enc = encode(&diag);
        assert_eq!(enc.solver.solve(), SolveResult::Sat);
    }

    /// The hop table answers exactly what the graph searches of
    /// `Architecture` answer: every pair's distance, the diameter, and a
    /// multi-source distance as the nearest source's.
    #[test]
    fn hop_table_matches_the_graph_searches() {
        let mut arch = paper_case_study().spec.architecture;
        let island = arch.add_resource(eea_model::resource(
            "island",
            eea_model::ResourceKind::Ecu,
            1.0,
        ));
        let hops = HopTable::build(&arch);
        assert_eq!(hops.diameter(), arch.diameter());
        for a in arch.resource_ids() {
            for b in arch.resource_ids() {
                assert_eq!(hops.distance(a, b), arch.hop_distance(a, b), "{a} -> {b}");
            }
        }
        let ids: Vec<ResourceId> = arch.resource_ids().collect();
        for sources in [&ids[..0], &ids[..1], &ids[3..7], &[ids[2], island][..]] {
            let nearest = hops.nearest(sources);
            for r in arch.resource_ids() {
                let expected = sources
                    .iter()
                    .filter_map(|&s| arch.hop_distance(s, r))
                    .min();
                assert_eq!(nearest[r.index()], expected, "{r} from {sources:?}");
            }
        }
    }

    #[test]
    fn decoded_solution_validates() {
        let case = paper_case_study();
        let diag = augment(&case, &paper_table1()[..4]).expect("gateway present");
        let mut enc = encode(&diag);
        assert_eq!(enc.solver.solve(), SolveResult::Sat);
        let x = enc.extract(&diag.spec);
        diag.spec
            .validate_implementation(&x)
            .expect("decoded implementation is structurally valid");
    }

    #[test]
    fn at_most_one_profile_selected_per_ecu() {
        let case = paper_case_study();
        let diag = augment(&case, &paper_table1()[..6]).expect("gateway present");
        let mut enc = encode(&diag);
        // Push the solver towards selecting BIST tasks.
        for o in &diag.options {
            let (_, v) = enc.m_vars[o.test.index()][0];
            enc.solver.set_polarity(v, true);
            enc.solver.set_priority(v, 1.0);
        }
        assert_eq!(enc.solver.solve(), SolveResult::Sat);
        let x = enc.extract(&diag.spec);
        for ecu in diag.bist_ecus() {
            let selected = diag
                .options_of(ecu)
                .filter(|o| x.binding_of(o.test).is_some())
                .count();
            assert!(selected <= 1, "ECU {ecu} selected {selected} profiles");
        }
        // With positive polarity on every test task, at least one ECU
        // actually runs BIST.
        let total: usize = diag
            .bist_ecus()
            .iter()
            .map(|&e| {
                diag.options_of(e)
                    .filter(|o| x.binding_of(o.test).is_some())
                    .count()
            })
            .sum();
        assert!(total > 0, "no BIST selected despite positive polarity");
    }

    #[test]
    fn data_task_follows_test_task() {
        let case = paper_case_study();
        let diag = augment(&case, &paper_table1()[..3]).expect("gateway present");
        let mut enc = encode(&diag);
        for o in &diag.options {
            let (_, v) = enc.m_vars[o.test.index()][0];
            enc.solver.set_polarity(v, true);
            enc.solver.set_priority(v, 1.0);
        }
        assert_eq!(enc.solver.solve(), SolveResult::Sat);
        let x = enc.extract(&diag.spec);
        for o in &diag.options {
            let test_bound = x.binding_of(o.test).is_some();
            let data_bound = x.binding_of(o.data).is_some();
            assert_eq!(test_bound, data_bound, "(3b) violated for {:?}", o.test);
        }
    }

    #[test]
    fn no_diag_only_resource() {
        // (2h): every resource hosting a diagnostic task also hosts a
        // functional task.
        let case = paper_case_study();
        let diag = augment(&case, &paper_table1()[..3]).expect("gateway present");
        let mut enc = encode(&diag);
        for o in &diag.options {
            let (_, v) = enc.m_vars[o.test.index()][0];
            enc.solver.set_polarity(v, true);
            enc.solver.set_priority(v, 1.0);
        }
        assert_eq!(enc.solver.solve(), SolveResult::Sat);
        let x = enc.extract(&diag.spec);
        let app = &diag.spec.application;
        for o in &diag.options {
            for task in [o.test, o.data] {
                if let Some(r) = x.binding_of(task) {
                    let has_functional = x.tasks_on(r).any(|t| !app.task(t).kind.is_diagnostic());
                    assert!(has_functional, "resource {r} hosts only diagnosis");
                }
            }
        }
    }

    #[test]
    fn routes_are_cycle_free_and_short() {
        let case = paper_case_study();
        let diag = augment(&case, &paper_table1()[..2]).expect("gateway present");
        let mut enc = encode(&diag);
        assert_eq!(enc.solver.solve(), SolveResult::Sat);
        let x = enc.extract(&diag.spec);
        for (m, route) in &x.routing {
            // (2d) ensures each resource appears at one step only; route
            // length is bounded by the horizon.
            let unique: std::collections::BTreeSet<_> = route.iter().collect();
            assert_eq!(unique.len(), route.len(), "cycle in route of {m}");
            assert!(route.len() as u32 <= enc.horizon + 1);
        }
    }
}
