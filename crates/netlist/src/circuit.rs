use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::gate::{GateId, GateKind};

/// A validated gate-level circuit.
///
/// Construction goes through [`CircuitBuilder`], which checks arity rules,
/// rejects combinational cycles and precomputes a topological order of the
/// combinational core (treating flip-flop outputs as sources). Under the
/// full-scan assumption, a test pattern assigns primary inputs and flip-flop
/// (pseudo-input) values, and a response is observed at primary outputs and
/// flip-flop data inputs (pseudo-outputs).
#[derive(Debug, Clone)]
pub struct Circuit {
    kinds: Vec<GateKind>,
    fanin: Vec<Vec<GateId>>,
    fanout: Vec<Vec<GateId>>,
    names: Vec<String>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    dffs: Vec<GateId>,
    topo: Vec<GateId>,
    level: Vec<u32>,
}

impl Circuit {
    /// Number of gates (including inputs and flip-flops).
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of flip-flops (scan cells after scan insertion).
    #[inline]
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Pattern width of the full-scan combinational core: primary inputs
    /// plus flip-flops.
    #[inline]
    pub fn pattern_width(&self) -> usize {
        self.num_inputs() + self.num_dffs()
    }

    /// Response width: primary outputs plus flip-flop data inputs.
    #[inline]
    pub fn response_width(&self) -> usize {
        self.num_outputs() + self.num_dffs()
    }

    /// Gate kind lookup.
    #[inline]
    pub fn kind(&self, g: GateId) -> GateKind {
        self.kinds[g.index()]
    }

    /// Fanin list of a gate.
    #[inline]
    pub fn fanin(&self, g: GateId) -> &[GateId] {
        &self.fanin[g.index()]
    }

    /// Fanout list of a gate.
    #[inline]
    pub fn fanout(&self, g: GateId) -> &[GateId] {
        &self.fanout[g.index()]
    }

    /// Name of a gate (empty if auto-generated names were elided).
    #[inline]
    pub fn name(&self, g: GateId) -> &str {
        &self.names[g.index()]
    }

    /// Primary inputs in declaration order.
    #[inline]
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    #[inline]
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Flip-flops in declaration order. Order matters: scan-chain insertion
    /// and pattern layout both use this order.
    #[inline]
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Gates of the combinational core in topological order (sources first).
    /// Sources (`Input`, `Dff`) are not part of the order.
    #[inline]
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Logic level of a gate: 0 for sources, `1 + max(level of fanin)`
    /// otherwise. Useful for levelised event-driven simulation.
    #[inline]
    pub fn level(&self, g: GateId) -> u32 {
        self.level[g.index()]
    }

    /// Maximum logic level (circuit depth).
    pub fn depth(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.kinds.len() as u32).map(GateId)
    }

    /// Summary statistics used by reports and sanity checks.
    pub fn stats(&self) -> CircuitStats {
        let mut logic_gates = 0usize;
        for &k in &self.kinds {
            if !k.is_combinational_source() {
                logic_gates += 1;
            }
        }
        CircuitStats {
            gates: self.num_gates(),
            logic_gates,
            inputs: self.num_inputs(),
            outputs: self.num_outputs(),
            dffs: self.num_dffs(),
            depth: self.depth(),
        }
    }
}

/// Summary statistics of a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitStats {
    /// All nodes including sources.
    pub gates: usize,
    /// Logic gates (excluding `Input`/`Dff` sources).
    pub logic_gates: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Flip-flops.
    pub dffs: usize,
    /// Combinational depth.
    pub depth: u32,
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates ({} logic), {} PIs, {} POs, {} FFs, depth {}",
            self.gates, self.logic_gates, self.inputs, self.outputs, self.dffs, self.depth
        )
    }
}

/// Error returned by [`CircuitBuilder::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildCircuitError {
    /// A gate has an arity its kind does not allow (e.g. 2-input NOT).
    BadArity {
        /// Offending gate.
        gate: GateId,
        /// Its kind.
        kind: GateKind,
        /// Fanin count found.
        arity: usize,
    },
    /// The combinational core contains a cycle through the named gate.
    CombinationalCycle(GateId),
    /// The circuit has no primary output and no flip-flop, so no fault could
    /// ever be observed.
    NoObservationPoint,
    /// A duplicate signal name was registered.
    DuplicateName(String),
    /// A fanin references a gate id that was never created.
    DanglingFanin {
        /// Gate holding the dangling reference.
        gate: GateId,
        /// The referenced, non-existent id.
        fanin: GateId,
    },
    /// [`CircuitBuilder::connect_dff`] was called on a non-flip-flop gate.
    NotAFlipFlop(GateId),
    /// [`CircuitBuilder::connect_dff`] was called on an already-connected
    /// flip-flop.
    AlreadyConnected(GateId),
}

impl fmt::Display for BuildCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCircuitError::BadArity { gate, kind, arity } => {
                write!(
                    f,
                    "gate {gate} of kind {kind} has invalid fanin count {arity}"
                )
            }
            BuildCircuitError::CombinationalCycle(g) => {
                write!(f, "combinational cycle through gate {g}")
            }
            BuildCircuitError::NoObservationPoint => {
                write!(f, "circuit has neither primary outputs nor flip-flops")
            }
            BuildCircuitError::DuplicateName(n) => write!(f, "duplicate signal name {n:?}"),
            BuildCircuitError::DanglingFanin { gate, fanin } => {
                write!(f, "gate {gate} references non-existent fanin {fanin}")
            }
            BuildCircuitError::NotAFlipFlop(g) => {
                write!(f, "gate {g} is not a flip-flop")
            }
            BuildCircuitError::AlreadyConnected(g) => {
                write!(f, "flip-flop {g} is already connected")
            }
        }
    }
}

impl Error for BuildCircuitError {}

/// Incremental builder for [`Circuit`].
///
/// # Example
///
/// ```
/// use eea_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), eea_netlist::BuildCircuitError> {
/// let mut b = CircuitBuilder::new();
/// let a = b.input("a");
/// let q = b.dff(a, "q");
/// let n = b.gate(GateKind::Not, &[q], "n");
/// b.output(n);
/// let c = b.finish()?;
/// assert_eq!(c.num_dffs(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    kinds: Vec<GateKind>,
    fanin: Vec<Vec<GateId>>,
    names: Vec<String>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    dffs: Vec<GateId>,
    dff_data: Vec<Option<GateId>>,
    by_name: HashMap<String, GateId>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: GateKind, fanin: Vec<GateId>, name: &str) -> GateId {
        let id = GateId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.fanin.push(fanin);
        self.names.push(name.to_owned());
        self.dff_data.push(None);
        if !name.is_empty() {
            self.by_name.insert(name.to_owned(), id);
        }
        id
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: &str) -> GateId {
        let id = self.push(GateKind::Input, Vec::new(), name);
        self.inputs.push(id);
        id
    }

    /// Adds a flip-flop whose data input is `data`.
    pub fn dff(&mut self, data: GateId, name: &str) -> GateId {
        let id = self.push(GateKind::Dff, vec![data], name);
        self.dffs.push(id);
        id
    }

    /// Adds a flip-flop whose data input is connected later via
    /// [`connect_dff`](Self::connect_dff) (needed for feedback loops).
    pub fn dff_deferred(&mut self, name: &str) -> GateId {
        let id = self.push(GateKind::Dff, Vec::new(), name);
        self.dffs.push(id);
        id
    }

    /// Connects the data input of a deferred flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCircuitError::NotAFlipFlop`] if `ff` is not a
    /// flip-flop (or does not exist) and
    /// [`BuildCircuitError::AlreadyConnected`] if it already has a data
    /// input.
    pub fn connect_dff(&mut self, ff: GateId, data: GateId) -> Result<(), BuildCircuitError> {
        if self.kinds.get(ff.index()) != Some(&GateKind::Dff) {
            return Err(BuildCircuitError::NotAFlipFlop(ff));
        }
        if !self.fanin[ff.index()].is_empty() {
            return Err(BuildCircuitError::AlreadyConnected(ff));
        }
        self.fanin[ff.index()].push(data);
        Ok(())
    }

    /// Adds a logic gate. `kind` must not be a source kind (`Input`/`Dff`;
    /// use [`input`](Self::input) / [`dff`](Self::dff) for those) — a source
    /// kind passed here is rejected later by [`finish`](Self::finish)'s
    /// arity validation.
    pub fn gate(&mut self, kind: GateKind, fanin: &[GateId], name: &str) -> GateId {
        debug_assert!(
            !kind.is_combinational_source(),
            "use input()/dff() for source nodes"
        );
        self.push(kind, fanin.to_vec(), name)
    }

    /// Marks a gate as primary output.
    pub fn output(&mut self, g: GateId) {
        self.outputs.push(g);
    }

    /// Appends an extra fanin pin to a variadic logic gate
    /// (AND/NAND/OR/NOR/XOR/XNOR). Growing a fixed-arity gate (input,
    /// flip-flop, inverter, buffer) this way is rejected later by
    /// [`finish`](Self::finish)'s arity validation.
    pub fn add_fanin(&mut self, g: GateId, src: GateId) {
        debug_assert!(
            matches!(
                self.kinds[g.index()],
                GateKind::And
                    | GateKind::Nand
                    | GateKind::Or
                    | GateKind::Nor
                    | GateKind::Xor
                    | GateKind::Xnor
            ),
            "cannot add fanin to a fixed-arity gate"
        );
        self.fanin[g.index()].push(src);
    }

    /// Current fanin count of a gate.
    pub fn fanin_len(&self, g: GateId) -> usize {
        self.fanin[g.index()].len()
    }

    /// Kind of a previously added gate.
    pub fn kind(&self, g: GateId) -> GateKind {
        self.kinds[g.index()]
    }

    /// Looks up a previously added gate by name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether no gate was added yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Validates and freezes the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCircuitError`] when arity rules are violated, a
    /// combinational cycle exists, or the circuit has no observation point.
    pub fn finish(self) -> Result<Circuit, BuildCircuitError> {
        let n = self.kinds.len();
        // Every fanin reference must point at an existing gate; a dangling
        // id would otherwise index out of bounds below.
        for i in 0..n {
            for &f in &self.fanin[i] {
                if f.index() >= n {
                    return Err(BuildCircuitError::DanglingFanin {
                        gate: GateId(i as u32),
                        fanin: f,
                    });
                }
            }
        }
        // Arity checks.
        for i in 0..n {
            let kind = self.kinds[i];
            let arity = self.fanin[i].len();
            let ok = match kind {
                GateKind::Input => arity == 0,
                GateKind::Dff | GateKind::Not | GateKind::Buf => arity == 1,
                _ => arity >= 1,
            };
            if !ok {
                return Err(BuildCircuitError::BadArity {
                    gate: GateId(i as u32),
                    kind,
                    arity,
                });
            }
        }
        if self.outputs.is_empty() && self.dffs.is_empty() {
            return Err(BuildCircuitError::NoObservationPoint);
        }

        // Fanout lists.
        let mut fanout: Vec<Vec<GateId>> = vec![Vec::new(); n];
        for i in 0..n {
            for &f in &self.fanin[i] {
                fanout[f.index()].push(GateId(i as u32));
            }
        }

        // Kahn topological sort of the combinational core. DFF outputs are
        // sources; the edge into a DFF (its data input) terminates there and
        // does not continue through the DFF output, so sequential feedback
        // loops are fine.
        let mut indegree: Vec<u32> = vec![0; n];
        for (i, deg) in indegree.iter_mut().enumerate() {
            if !self.kinds[i].is_combinational_source() {
                *deg = self.fanin[i].len() as u32;
            }
        }
        let mut level: Vec<u32> = vec![0; n];
        let mut queue: Vec<GateId> = (0..n as u32)
            .map(GateId)
            .filter(|g| self.kinds[g.index()].is_combinational_source())
            .collect();
        let mut topo: Vec<GateId> = Vec::with_capacity(n);
        let mut visited = queue.len();
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            if !self.kinds[g.index()].is_combinational_source() {
                topo.push(g);
            }
            for &s in &fanout[g.index()] {
                if self.kinds[s.index()].is_combinational_source() {
                    // Edge into a DFF data input: terminates the path.
                    continue;
                }
                level[s.index()] = level[s.index()].max(level[g.index()] + 1);
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    queue.push(s);
                    visited += 1;
                }
            }
        }
        // DFF data edges were not counted in `visited`; recount combinational
        // gates only.
        let comb_gates = (0..n)
            .filter(|&i| !self.kinds[i].is_combinational_source())
            .count();
        if topo.len() != comb_gates {
            let stuck = (0..n)
                .find(|&i| !self.kinds[i].is_combinational_source() && indegree[i] > 0)
                .map(|i| GateId(i as u32))
                .unwrap_or(GateId(0));
            return Err(BuildCircuitError::CombinationalCycle(stuck));
        }
        let _ = visited;

        Ok(Circuit {
            kinds: self.kinds,
            fanin: self.fanin,
            fanout,
            names: self.names,
            inputs: self.inputs,
            outputs: self.outputs,
            dffs: self.dffs,
            topo,
            level,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let c = b.input("c");
        let g1 = b.gate(GateKind::And, &[a, c], "g1");
        let g2 = b.gate(GateKind::Not, &[g1], "g2");
        b.output(g2);
        b.finish().expect("valid circuit")
    }

    #[test]
    fn builds_and_orders() {
        let c = simple();
        assert_eq!(c.num_gates(), 4);
        assert_eq!(c.topo_order().len(), 2);
        assert_eq!(c.level(c.topo_order()[0]), 1);
        assert_eq!(c.level(c.topo_order()[1]), 2);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn fanout_lists() {
        let c = simple();
        let a = c.inputs()[0];
        assert_eq!(c.fanout(a).len(), 1);
    }

    #[test]
    fn rejects_bad_arity() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let g = b.gate(GateKind::Not, &[a, x], "g");
        b.output(g);
        match b.finish() {
            Err(BuildCircuitError::BadArity { kind, arity, .. }) => {
                assert_eq!(kind, GateKind::Not);
                assert_eq!(arity, 2);
            }
            other => panic!("expected BadArity, got {other:?}"),
        }
    }

    #[test]
    fn rejects_combinational_cycle() {
        // g1 = AND(a, g2); g2 = NOT(g1) -- combinational loop.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        // Build with a placeholder then patch the fanin directly via a DFF-free loop:
        // easiest is to construct ids manually.
        let g1 = b.gate(GateKind::And, &[a, GateId(2)], "g1"); // forward ref to g2
        let g2 = b.gate(GateKind::Not, &[g1], "g2");
        assert_eq!(g2, GateId(2));
        b.output(g2);
        assert!(matches!(
            b.finish(),
            Err(BuildCircuitError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn sequential_feedback_is_allowed() {
        // q = DFF(n); n = NOT(q) -- a toggle flip-flop, fine.
        let mut b = CircuitBuilder::new();
        let q = b.dff_deferred("q");
        let n = b.gate(GateKind::Not, &[q], "n");
        b.connect_dff(q, n).expect("q is an unconnected flip-flop");
        b.output(n);
        let c = b.finish().expect("sequential loop is legal");
        assert_eq!(c.num_dffs(), 1);
        assert_eq!(c.pattern_width(), 1);
        assert_eq!(c.response_width(), 2);
    }

    #[test]
    fn rejects_unobservable_circuit() {
        let mut b = CircuitBuilder::new();
        b.input("a");
        assert!(matches!(
            b.finish(),
            Err(BuildCircuitError::NoObservationPoint)
        ));
    }

    #[test]
    fn stats_display() {
        let s = simple().stats();
        assert_eq!(s.logic_gates, 2);
        assert!(s.to_string().contains("2 PIs"));
    }

    #[test]
    fn find_by_name() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        assert_eq!(b.find("a"), Some(a));
        assert_eq!(b.find("zz"), None);
    }
}
