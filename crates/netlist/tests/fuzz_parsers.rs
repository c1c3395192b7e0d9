//! Fuzz harness for the two netlist parsers: mutated `.bench` and Verilog
//! sources must never panic `parse()` — every input yields `Ok` or a typed
//! error (see DESIGN.md, "Error taxonomy").
//!
//! Each proptest case derives several mutants from the known-good seed
//! sources (byte flips, truncations, line shuffles, token splices, raw
//! junk) and pushes them through the parser. At the configured case counts
//! the harness exercises well over 1000 mutated inputs per run.

use eea_netlist::bench_format::{C17, S27};
use eea_netlist::{bench_format, verilog};
use proptest::prelude::*;

const VERILOG_COMB: &str = "\
module top (a, b, c, y, z);
  input a, b, c;
  output y, z;
  wire n1, n2;
  nand g1 (n1, a, b);
  nor  g2 (n2, n1, c);
  not  g3 (y, n2);
  buf  g4 (z, n1);
endmodule
";

const VERILOG_SEQ: &str = "\
module top (d, q);
  input d;
  output q;
  wire n1;
  dff r1 (n1, d);
  not g1 (q, n1);
endmodule
";

/// Deterministic xorshift64* used to derive mutation decisions from the
/// proptest-supplied seed.
struct Mutator(u64);

impl Mutator {
    fn new(seed: u64) -> Self {
        Mutator(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// One random structural mutation of `src`.
    fn mutate(&mut self, src: &str) -> String {
        let mut bytes = src.as_bytes().to_vec();
        match self.below(8) {
            // Flip a byte to printable ASCII.
            0 if !bytes.is_empty() => {
                let i = self.below(bytes.len());
                bytes[i] = 0x20 + (self.next() % 0x5f) as u8;
            }
            // Truncate mid-token.
            1 if !bytes.is_empty() => bytes.truncate(self.below(bytes.len())),
            // Delete a byte.
            2 if !bytes.is_empty() => {
                let i = self.below(bytes.len());
                bytes.remove(i);
            }
            // Duplicate a random line (redefinitions, duplicate INPUTs).
            3 => {
                let lines: Vec<&str> = src.lines().collect();
                if !lines.is_empty() {
                    let line = lines[self.below(lines.len())];
                    let mut s = src.to_string();
                    s.push_str(line);
                    s.push('\n');
                    return s;
                }
            }
            // Splice a random chunk over another position.
            4 if bytes.len() > 4 => {
                let from = self.below(bytes.len() - 2);
                let len = 1 + self.below((bytes.len() - from).min(16));
                let to = self.below(bytes.len());
                let chunk: Vec<u8> = bytes[from..from + len].to_vec();
                for (k, b) in chunk.into_iter().enumerate() {
                    if to + k < bytes.len() {
                        bytes[to + k] = b;
                    }
                }
            }
            // Insert a keyword fragment at a random position (exercises
            // prefix handling like bare `INPUT(` / `OUTPUT(` / `module`).
            5 => {
                const FRAGMENTS: &[&str] = &[
                    "INPUT(",
                    "OUTPUT(",
                    "= NAND(",
                    "DFF(",
                    ",,",
                    "((",
                    "))",
                    "module ",
                    "endmodule",
                    "wire ",
                    "input ",
                    "output ",
                    "nand g (",
                    "#",
                    "=",
                ];
                let frag = FRAGMENTS[self.below(FRAGMENTS.len())];
                let i = self.below(bytes.len() + 1);
                let mut s = Vec::with_capacity(bytes.len() + frag.len());
                s.extend_from_slice(&bytes[..i]);
                s.extend_from_slice(frag.as_bytes());
                s.extend_from_slice(&bytes[i..]);
                bytes = s;
            }
            // Swap two halves (declarations after uses, endmodule first).
            6 if bytes.len() > 2 => {
                let mid = self.below(bytes.len());
                bytes.rotate_left(mid);
            }
            // Replace with raw printable junk.
            _ => {
                let len = self.below(200);
                bytes = (0..len)
                    .map(|_| 0x20 + (self.next() % 0x5f) as u8)
                    .collect();
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// ≥ 192 cases x 4 mutants x 2 seeds = 1536 mutated `.bench` inputs,
    /// none of which may panic the parser.
    #[test]
    fn bench_parser_never_panics(seed in any::<u64>()) {
        let mut m = Mutator::new(seed);
        for src in [C17, S27] {
            let mut mutant = src.to_string();
            for _ in 0..4 {
                mutant = m.mutate(&mutant);
                // Ok or typed error — the call itself must return.
                let _ = bench_format::parse(&mutant);
            }
        }
    }

    /// Same budget for the Verilog subset parser.
    #[test]
    fn verilog_parser_never_panics(seed in any::<u64>()) {
        let mut m = Mutator::new(seed);
        for src in [VERILOG_COMB, VERILOG_SEQ] {
            let mut mutant = src.to_string();
            for _ in 0..4 {
                mutant = m.mutate(&mutant);
                let _ = verilog::parse(&mutant);
            }
        }
    }

    /// Cross-feed: each parser must also survive the other's grammar and
    /// pure junk without panicking.
    #[test]
    fn parsers_survive_foreign_and_junk_input(seed in any::<u64>()) {
        let mut m = Mutator::new(seed);
        let junk = m.mutate("");
        for src in [C17, VERILOG_COMB, junk.as_str(), ""] {
            let _ = bench_format::parse(src);
            let _ = verilog::parse(src);
        }
    }
}

#[test]
fn valid_seeds_still_parse() {
    bench_format::parse(C17).expect("c17 parses");
    bench_format::parse(S27).expect("s27 parses");
    verilog::parse(VERILOG_COMB).expect("combinational verilog parses");
    verilog::parse(VERILOG_SEQ).expect("sequential verilog parses");
}
