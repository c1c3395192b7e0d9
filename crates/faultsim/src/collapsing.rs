//! Structural equivalence fault collapsing.
//!
//! Two stuck-at faults are *equivalent* when every test detecting one also
//! detects the other; only one representative per equivalence class needs to
//! be simulated or targeted by ATPG. The classic gate-local rules are
//! implemented here:
//!
//! * a fanout-free connection makes the driver stem and the receiving pin
//!   the same electrical line,
//! * AND/NAND: any input stuck at the controlling value `0` is equivalent to
//!   the output stuck at `0`/`1` respectively,
//! * OR/NOR: dually with controlling value `1`,
//! * BUF/NOT: input faults map to (possibly inverted) output faults.
//!
//! The paper's CUT counts 371,900 *collapsed* faults; [`collapse`] produces
//! the analogous collapsed universe for our open circuits.

use std::collections::HashMap;

use eea_netlist::{Circuit, GateKind};

use crate::fault::{enumerate_faults, Fault, FaultSite};

/// Result of fault collapsing.
#[derive(Debug, Clone)]
pub struct CollapseReport {
    /// One representative fault per equivalence class, sorted.
    pub representatives: Vec<Fault>,
    /// Total number of faults before collapsing.
    pub total: usize,
    /// For each representative, the size of its equivalence class.
    pub class_sizes: Vec<u32>,
}

impl CollapseReport {
    /// Collapse ratio `representatives / total` (lower = more collapsing).
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.representatives.len() as f64 / self.total as f64
        }
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Keep the smaller index as root so representatives are stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Collapses the complete fault universe of `circuit` into equivalence
/// classes and returns one representative per class (the fault with the
/// smallest `(site, value)` in each class).
pub fn collapse(circuit: &Circuit) -> CollapseReport {
    let all = enumerate_faults(circuit);
    let index: HashMap<Fault, u32> = all
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i as u32))
        .collect();
    let mut uf = UnionFind::new(all.len());

    // Effective fault site of the value seen at `gate`'s pin `pin`:
    // the dedicated branch site when the driver fans out, else the stem.
    let line_site = |gate, pin: usize| -> FaultSite {
        let src = circuit.fanin(gate)[pin];
        if circuit.fanout(src).len() > 1 {
            FaultSite::Pin {
                gate,
                pin: pin as u16,
            }
        } else {
            FaultSite::Stem(src)
        }
    };
    let id = |f: Fault| -> u32 { index[&f] };

    for g in circuit.gate_ids() {
        let kind = circuit.kind(g);
        let out = FaultSite::Stem(g);
        match kind {
            GateKind::Input => {}
            GateKind::Dff | GateKind::Buf => {
                // Data input faults are equivalent to output faults of the
                // same polarity. (For a scan flip-flop this links the
                // pseudo-output line to the pseudo-input of the next frame
                // only structurally — both remain observable/controllable
                // independently, so we do NOT merge across the DFF; merging
                // here is restricted to BUF.)
                if kind == GateKind::Buf {
                    let in_site = line_site(g, 0);
                    uf.union(id(Fault::sa0(in_site)), id(Fault::sa0(out)));
                    uf.union(id(Fault::sa1(in_site)), id(Fault::sa1(out)));
                }
            }
            GateKind::Not => {
                let in_site = line_site(g, 0);
                uf.union(id(Fault::sa0(in_site)), id(Fault::sa1(out)));
                uf.union(id(Fault::sa1(in_site)), id(Fault::sa0(out)));
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // These four kinds always define a controlling value; skip
                // defensively instead of unwrapping.
                let Some(ctrl) = kind.controlling_value() else {
                    continue;
                };
                // Input at controlling value c forces the output to
                // c (AND/OR) or !c (NAND/NOR).
                let out_val = if kind.inverts() { !ctrl } else { ctrl };
                for pin in 0..circuit.fanin(g).len() {
                    let in_site = line_site(g, pin);
                    let in_fault = Fault {
                        site: in_site,
                        stuck_at: ctrl,
                    };
                    let out_fault = Fault {
                        site: out,
                        stuck_at: out_val,
                    };
                    uf.union(id(in_fault), id(out_fault));
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // No gate-local equivalences.
            }
        }
    }

    // Gather classes keyed by root; the representative is the smallest
    // member (faults were enumerated in a deterministic sorted-ish order,
    // so pick min explicitly).
    let mut classes: HashMap<u32, Vec<u32>> = HashMap::new();
    for i in 0..all.len() as u32 {
        classes.entry(uf.find(i)).or_default().push(i);
    }
    let mut reps: Vec<(Fault, u32)> = classes
        .values()
        .filter_map(|members| {
            // Every class holds at least the fault that created it; `min`
            // over an empty class (impossible) simply yields no entry.
            let rep = members
                .iter()
                .map(|&i| all.get(i as usize).copied())
                .min()??;
            Some((rep, members.len() as u32))
        })
        .collect();
    reps.sort();
    let (representatives, class_sizes): (Vec<Fault>, Vec<u32>) = reps.into_iter().unzip();
    CollapseReport {
        total: all.len(),
        representatives,
        class_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_netlist::bench_format;
    use eea_netlist::{CircuitBuilder, GateKind};

    #[test]
    fn c17_collapses_to_22() {
        // The textbook collapsed fault count for c17 is 22.
        let c = bench_format::parse(bench_format::C17).unwrap();
        let rep = collapse(&c);
        assert_eq!(rep.total, 34);
        assert_eq!(rep.representatives.len(), 22);
        assert_eq!(rep.class_sizes.iter().sum::<u32>() as usize, rep.total);
    }

    #[test]
    fn inverter_chain_collapses_fully() {
        // a -> NOT -> NOT -> out: 3 lines x 2 = 6 faults, all pairwise
        // equivalent through the chain -> 2 classes.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let n1 = b.gate(GateKind::Not, &[a], "n1");
        let n2 = b.gate(GateKind::Not, &[n1], "n2");
        b.output(n2);
        let c = b.finish().unwrap();
        let rep = collapse(&c);
        assert_eq!(rep.total, 6);
        assert_eq!(rep.representatives.len(), 2);
    }

    #[test]
    fn and_gate_classes() {
        // 2-input AND, fanout-free: lines a, b, y. Faults: 6.
        // Equivalences: a/0 = b/0 = y/0 -> classes {a0,b0,y0}, {a1}, {b1},
        // {y1} = 4 classes.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let y = b.gate(GateKind::And, &[a, x], "y");
        b.output(y);
        let c = b.finish().unwrap();
        let rep = collapse(&c);
        assert_eq!(rep.total, 6);
        assert_eq!(rep.representatives.len(), 4);
        assert!(rep.class_sizes.contains(&3));
    }

    #[test]
    fn xor_does_not_collapse() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let y = b.gate(GateKind::Xor, &[a, x], "y");
        b.output(y);
        let c = b.finish().unwrap();
        let rep = collapse(&c);
        assert_eq!(rep.representatives.len(), rep.total);
    }

    #[test]
    fn ratio_sane() {
        let c = bench_format::parse(bench_format::S27).unwrap();
        let rep = collapse(&c);
        assert!(rep.ratio() > 0.3 && rep.ratio() <= 1.0);
    }
}
