//! End-to-end diagnosis: the two §I use cases of the paper, demonstrated.
//!
//! 1. **Workshop repair** — a defect somewhere in the vehicle corrupts one
//!    ECU's BIST session; the fail data collected at the gateway names the
//!    faulty ECU directly (no part-swapping).
//! 2. **Failure analysis** — the failing ECU's fail memory (window
//!    indices + faulty signatures) feeds window-based logic diagnosis,
//!    which ranks candidate stuck-at faults inside the IC.
//!
//! Run with:
//!
//! ```text
//! cargo run -p eea-dse --example diagnosis --release
//! ```

use eea_bist::{Diagnoser, StumpsSession};
use eea_faultsim::FaultUniverse;
use eea_netlist::{synthesize, ScanChains, SynthConfig};

fn main() {
    // The vehicle: 5 ECUs, each with the same CUT (as in the case study,
    // where all ECUs carry the same automotive microprocessor).
    let cut = synthesize(&SynthConfig {
        gates: 400,
        inputs: 16,
        dffs: 32,
        seed: 0xD1A6,
        ..SynthConfig::default()
    })
    .expect("valid synth config");
    println!("CUT per ECU: {}", cut.stats());
    let chains = ScanChains::balanced(&cut, 8).expect("at least one chain");
    let window = 8;
    let patterns = 512;
    let session = StumpsSession::new(&cut, &chains, 0xACE1, window);
    let golden = session.run_golden(patterns);
    println!(
        "BIST session: {} patterns, {} intermediate signatures (response data)",
        patterns,
        golden.signatures.len()
    );

    // A latent defect strikes ECU 3.
    let universe = FaultUniverse::collapsed(&cut);
    let defect = universe.fault(universe.num_faults() / 3);
    let faulty_ecu = 3usize;
    println!("\ninjected defect: {defect} in ecu{faulty_ecu} (unknown to the diagnosis)");

    // === Use case 1: workshop repair ===
    // Periodic BIST runs on every ECU; fail data is collected centrally.
    println!("\n== workshop repair: per-ECU session outcomes at the gateway ==");
    let mut faulty_found = None;
    for ecu in 0..5 {
        let fail = if ecu == faulty_ecu {
            session.run_with_fault(defect, &golden)
        } else {
            eea_bist::FailData::new()
        };
        println!(
            "  ecu{ecu}: {fail}  (fail memory: {} bytes)",
            fail.byte_size()
        );
        if !fail.is_pass() {
            faulty_found = Some((ecu, fail));
        }
    }
    let (found_ecu, fail_data) = faulty_found.expect("the defect was detected");
    assert_eq!(found_ecu, faulty_ecu);
    println!("  -> replace ecu{found_ecu}; all other ECUs stay in the vehicle");

    // === Use case 2: failure analysis ===
    println!("\n== failure analysis: window-based logic diagnosis of the returned IC ==");
    let diagnoser = Diagnoser::new(&cut, &chains, 0xACE1, window, patterns);
    let ranked = diagnoser.diagnose(&fail_data);
    let first_fail = fail_data.entries()[0].window;
    println!(
        "  observed: first failing window {first_fail} of {}",
        diagnoser.windows()
    );
    println!("  top candidates of {} total:", diagnoser.num_candidates());
    for cand in ranked.iter().take(8) {
        let marker = if cand.fault == defect {
            "  <-- true defect"
        } else {
            ""
        };
        println!(
            "    {:<14} score {:.3}{marker}",
            cand.fault.to_string(),
            cand.score
        );
    }
    let resolution = diagnoser.resolution(&fail_data);
    println!("  diagnostic resolution: {resolution} candidate(s) in the top equivalence class");
    let best = ranked[0].score;
    assert!(
        ranked
            .iter()
            .take_while(|c| c.score == best)
            .any(|c| c.fault == defect),
        "true defect must rank in the top equivalence class"
    );
    println!("\nfault localised — chip-level root cause analysis can start from here.");
}
