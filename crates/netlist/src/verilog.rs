//! Structural Verilog netlist parsing (gate-level subset).
//!
//! Accepts the flat gate-level netlists that synthesis tools emit for test
//! applications: one module, `input`/`output`/`wire` declarations, and
//! primitive gate instantiations in positional form:
//!
//! ```text
//! module top (a, b, y);
//!   input a, b;
//!   output y;
//!   wire n1;
//!   nand g1 (n1, a, b);   // output first, like Verilog primitives
//!   not  g2 (y, n1);
//!   dff  r1 (q, d);       // sequential cells as 2-pin primitives
//! endmodule
//! ```
//!
//! This intentionally small subset covers the ISCAS-style benchmark
//! conversions commonly distributed as `.v` files; anything beyond it
//! (expressions, assigns, vectors) is rejected with a precise error.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::circuit::{BuildCircuitError, Circuit, CircuitBuilder};
use crate::gate::{GateId, GateKind};

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseVerilogError {
    /// Unexpected token or malformed statement.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// An unsupported primitive was instantiated.
    UnknownPrimitive {
        /// 1-based line number.
        line: usize,
        /// The primitive name.
        name: String,
    },
    /// A referenced net was never declared.
    UndeclaredNet(String),
    /// A net is driven twice.
    MultipleDrivers(String),
    /// The assembled circuit failed validation.
    Build(BuildCircuitError),
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseVerilogError::Syntax { line, message } => {
                write!(f, "syntax error on line {line}: {message}")
            }
            ParseVerilogError::UnknownPrimitive { line, name } => {
                write!(f, "unsupported primitive {name:?} on line {line}")
            }
            ParseVerilogError::UndeclaredNet(n) => write!(f, "undeclared net {n:?}"),
            ParseVerilogError::MultipleDrivers(n) => write!(f, "net {n:?} has multiple drivers"),
            ParseVerilogError::Build(e) => write!(f, "invalid circuit: {e}"),
        }
    }
}

impl Error for ParseVerilogError {}

impl From<BuildCircuitError> for ParseVerilogError {
    fn from(e: BuildCircuitError) -> Self {
        ParseVerilogError::Build(e)
    }
}

fn primitive(name: &str) -> Option<GateKind> {
    match name {
        "and" => Some(GateKind::And),
        "nand" => Some(GateKind::Nand),
        "or" => Some(GateKind::Or),
        "nor" => Some(GateKind::Nor),
        "xor" => Some(GateKind::Xor),
        "xnor" => Some(GateKind::Xnor),
        "not" | "inv" => Some(GateKind::Not),
        "buf" => Some(GateKind::Buf),
        "dff" => Some(GateKind::Dff),
        _ => None,
    }
}

#[derive(Debug)]
struct Instance {
    line: usize,
    kind: GateKind,
    /// Output net followed by input nets (positional primitive style).
    pins: Vec<String>,
}

/// Strips `//` line comments and `/* */` block comments.
fn strip_comments(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    let mut in_block = false;
    let mut in_line = false;
    while let Some(c) = chars.next() {
        if in_block {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                in_block = false;
            } else if c == '\n' {
                out.push('\n');
            }
            continue;
        }
        if in_line {
            if c == '\n' {
                in_line = false;
                out.push('\n');
            }
            continue;
        }
        if c == '/' {
            match chars.peek() {
                Some('/') => {
                    in_line = true;
                    continue;
                }
                Some('*') => {
                    chars.next();
                    in_block = true;
                    continue;
                }
                _ => {}
            }
        }
        out.push(c);
    }
    out
}

/// Parses a gate-level Verilog module into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseVerilogError`] on syntax errors, unsupported constructs,
/// undeclared or multiply-driven nets, and circuit validation failures.
pub fn parse(src: &str) -> Result<Circuit, ParseVerilogError> {
    let cleaned = strip_comments(src);
    // Statements end with ';' (module header too); track line numbers by
    // counting newlines up to each statement start.
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut wires: Vec<String> = Vec::new();
    let mut instances: Vec<Instance> = Vec::new();
    let mut saw_module = false;
    let mut saw_end = false;

    let mut line_no = 1usize;
    for raw_stmt in cleaned.split(';') {
        let start_line = line_no;
        line_no += raw_stmt.matches('\n').count();
        let stmt = raw_stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        // `endmodule` may trail the last statement without a semicolon.
        let stmt = if let Some(rest) = stmt.strip_suffix("endmodule") {
            saw_end = true;
            let rest = rest.trim();
            if rest.is_empty() {
                continue;
            }
            rest
        } else {
            stmt
        };
        let mut tokens = stmt.split_whitespace();
        let keyword = tokens.next().unwrap_or_default();
        match keyword {
            "module" => {
                saw_module = true; // port list is re-declared below; skip
            }
            "input" | "output" | "wire" => {
                let rest: String = stmt[keyword.len()..].replace(',', " ");
                let names = rest.split_whitespace().map(str::to_owned);
                match keyword {
                    "input" => inputs.extend(names),
                    "output" => outputs.extend(names),
                    _ => wires.extend(names),
                }
            }
            prim => {
                let Some(kind) = primitive(prim) else {
                    return Err(ParseVerilogError::UnknownPrimitive {
                        line: start_line,
                        name: prim.to_owned(),
                    });
                };
                // Form: <prim> <name> ( pin, pin, ... )
                let open = stmt.find('(').ok_or_else(|| ParseVerilogError::Syntax {
                    line: start_line,
                    message: "expected '(' in instantiation".into(),
                })?;
                let close = stmt.rfind(')').ok_or_else(|| ParseVerilogError::Syntax {
                    line: start_line,
                    message: "expected ')' in instantiation".into(),
                })?;
                if close < open {
                    return Err(ParseVerilogError::Syntax {
                        line: start_line,
                        message: "')' before '(' in instantiation".into(),
                    });
                }
                let pins: Vec<String> = stmt[open + 1..close]
                    .split(',')
                    .map(|p| p.trim().to_owned())
                    .filter(|p| !p.is_empty())
                    .collect();
                if pins.len() < 2 {
                    return Err(ParseVerilogError::Syntax {
                        line: start_line,
                        message: "primitive needs an output and at least one input".into(),
                    });
                }
                instances.push(Instance {
                    line: start_line,
                    kind,
                    pins,
                });
            }
        }
    }
    if !saw_module || !saw_end {
        return Err(ParseVerilogError::Syntax {
            line: 1,
            message: "expected a single module ... endmodule".into(),
        });
    }

    // Net table: declared nets; inputs are driven by the PI, everything
    // else must be driven by exactly one instance output.
    let mut declared: HashMap<String, ()> = HashMap::new();
    for n in inputs.iter().chain(&outputs).chain(&wires) {
        declared.insert(n.clone(), ());
    }
    let mut driver: HashMap<String, usize> = HashMap::new();
    for (ii, inst) in instances.iter().enumerate() {
        for pin in &inst.pins {
            if !declared.contains_key(pin) {
                return Err(ParseVerilogError::UndeclaredNet(pin.clone()));
            }
        }
        let out = &inst.pins[0];
        if inputs.contains(out) || driver.insert(out.clone(), ii).is_some() {
            return Err(ParseVerilogError::MultipleDrivers(out.clone()));
        }
    }

    // Build: PIs, then deferred DFFs, then combinational gates by
    // dependency resolution (same strategy as the .bench parser).
    let mut b = CircuitBuilder::new();
    let mut ids: HashMap<String, GateId> = HashMap::new();
    for n in &inputs {
        ids.insert(n.clone(), b.input(n));
    }
    for inst in &instances {
        if inst.kind == GateKind::Dff {
            ids.insert(inst.pins[0].clone(), b.dff_deferred(&inst.pins[0]));
        }
    }
    let mut pending: Vec<&Instance> = instances
        .iter()
        .filter(|i| i.kind != GateKind::Dff)
        .collect();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|inst| {
            let resolved: Option<Vec<GateId>> =
                inst.pins[1..].iter().map(|n| ids.get(n).copied()).collect();
            if let Some(fanin) = resolved {
                ids.insert(
                    inst.pins[0].clone(),
                    b.gate(inst.kind, &fanin, &inst.pins[0]),
                );
                return false;
            }
            true
        });
        if pending.len() == before {
            let inst = pending[0];
            let missing = inst.pins[1..]
                .iter()
                .find(|n| !ids.contains_key(*n))
                .cloned()
                .unwrap_or_default();
            return Err(ParseVerilogError::Syntax {
                line: inst.line,
                message: format!("unresolvable net {missing:?} (undriven or combinational loop)"),
            });
        }
    }
    for inst in &instances {
        if inst.kind == GateKind::Dff {
            let ff = ids[inst.pins[0].as_str()];
            let data = *ids
                .get(&inst.pins[1])
                .ok_or_else(|| ParseVerilogError::UndeclaredNet(inst.pins[1].clone()))?;
            b.connect_dff(ff, data)?;
        }
    }
    for out in &outputs {
        let g = *ids
            .get(out)
            .ok_or_else(|| ParseVerilogError::UndeclaredNet(out.clone()))?;
        b.output(g);
    }
    Ok(b.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
// a tiny netlist
module top (a, b, y);
  input a, b;
  output y;
  wire n1;
  nand g1 (n1, a, b);
  not  g2 (y, n1);
endmodule
";

    #[test]
    fn parses_small_module() {
        let c = parse(SMALL).expect("parses");
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.stats().logic_gates, 2);
    }

    #[test]
    fn parses_sequential_cells() {
        let src = "\
module seq (clkless_d, q_out);
  input clkless_d;
  output q_out;
  wire q, n;
  dff r1 (q, n);
  not g1 (n, q);
  buf g2 (q_out, q);
endmodule
";
        let c = parse(src).expect("parses");
        assert_eq!(c.num_dffs(), 1);
        assert_eq!(c.num_outputs(), 1);
        let _ = c.stats();
    }

    #[test]
    fn block_and_line_comments_stripped() {
        let src = "\
module t (a, y); /* block
   spanning lines */
  input a;  // comment
  output y;
  buf g (y, a);
endmodule
";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn rejects_unknown_primitive() {
        let src = "module t (a, y); input a; output y; mux2 g (y, a); endmodule";
        assert!(matches!(
            parse(src),
            Err(ParseVerilogError::UnknownPrimitive { .. })
        ));
    }

    #[test]
    fn rejects_undeclared_net() {
        let src = "module t (a, y); input a; output y; buf g (y, ghost); endmodule";
        assert_eq!(
            parse(src).map(|c| c.stats()).unwrap_err(),
            ParseVerilogError::UndeclaredNet("ghost".into())
        );
    }

    #[test]
    fn rejects_multiple_drivers() {
        let src = "\
module t (a, b, y);
  input a, b;
  output y;
  buf g1 (y, a);
  buf g2 (y, b);
endmodule
";
        assert_eq!(
            parse(src).map(|c| c.stats()).unwrap_err(),
            ParseVerilogError::MultipleDrivers("y".into())
        );
    }

    #[test]
    fn rejects_combinational_loop() {
        let src = "\
module t (a, y);
  input a;
  output y;
  wire n1, n2;
  and g1 (n1, a, n2);
  not g2 (n2, n1);
  buf g3 (y, n1);
endmodule
";
        assert!(matches!(parse(src), Err(ParseVerilogError::Syntax { .. })));
    }

    #[test]
    fn rejects_missing_module() {
        assert!(matches!(
            parse("input a; output y; buf g (y, a);"),
            Err(ParseVerilogError::Syntax { .. })
        ));
    }

    #[test]
    fn verilog_and_bench_agree() {
        // The same function in both formats produces equivalent circuits.
        let v = parse(SMALL).expect("verilog parses");
        let bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = NAND(a, b)\ny = NOT(n1)\n";
        let b = crate::bench_format::parse(bench).expect("bench parses");
        assert_eq!(v.stats(), b.stats());
    }
}
