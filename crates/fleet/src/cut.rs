//! The shared circuit-under-test substrate of a campaign.
//!
//! The paper's case study binds the *same* CUT (an automotive
//! microprocessor) into every ECU, so fleet-scale simulation does not need
//! gate-level work per vehicle: [`CutModel::build`] synthesizes one
//! substrate circuit and derives the [`FailData`] of **every collapsed
//! stuck-at fault** plus the diagnosis dictionary from a single one-pass
//! [`SessionTable`] sweep of the session's pattern stream (DESIGN.md §15)
//! — one wide-word walk replaces the historical full-session replay per
//! fault, and the sweep is computed **once**, shared between the fail
//! table and the [`Diagnoser`]. The result is bit-identical to
//! uninterrupted per-fault session runs (equivalence tests below and the
//! proptest oracle in eea-bist), so the table remains valid for *any*
//! shut-off window schedule a vehicle draws: per-pattern independence of
//! the full-scan STUMPS architecture makes session chopping invisible.
//!
//! A campaign over 100k vehicles then only consults this table: seeding a
//! defect picks a detectable fault index, the upload carries the
//! precomputed fail-data size, and gateway-side diagnosis reuses one
//! [`Diagnoser`] dictionary.

use std::time::Instant;

use eea_bist::{
    Candidate, CutFamily, Diagnoser, DiagnosisSummary, FailData, MarchTest, SessionTable,
};
use eea_faultsim::Fault;
use eea_netlist::{synthesize, Circuit, ScanChains, SynthConfig};

use crate::error::FleetError;

/// Configuration of the substrate CUT and its BIST session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutConfig {
    /// Number of logic gates of the synthesized substrate.
    pub gates: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of scan flip-flops.
    pub dffs: usize,
    /// Number of balanced scan chains (STUMPS parallelism).
    pub chains: usize,
    /// Synthesis seed; equal seeds produce identical substrates.
    pub seed: u64,
    /// LFSR seed of the pseudo-random session.
    pub lfsr_seed: u64,
    /// Patterns per intermediate-signature window.
    pub window: u64,
    /// Session length in patterns.
    pub patterns: u64,
    /// Worker threads for the one-pass dictionary sweep (`0` = all
    /// available, honouring `EEA_THREADS`); the result is bit-identical
    /// at any thread count.
    pub threads: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig {
            gates: 150,
            inputs: 10,
            dffs: 12,
            chains: 4,
            seed: 0xF1EE7,
            lfsr_seed: 0xACE1,
            window: 16,
            patterns: 256,
            threads: 0,
        }
    }
}

/// Precomputed per-fault behaviour of the shared CUT under the campaign's
/// BIST session: fail data, detectability and the diagnosis dictionary.
#[derive(Debug)]
pub struct CutModel {
    config: CutConfig,
    circuit: Circuit,
    faults: Vec<Fault>,
    fail_table: Vec<FailData>,
    detectable: Vec<u32>,
    diagnoser: Diagnoser,
    /// Wall-clock seconds the one-pass dictionary sweep took at build
    /// time — read through [`dict_build_seconds`](Self::dict_build_seconds)
    /// so benchmarks can report the amortized build cost next to
    /// per-lookup cost. Never part of a [`FleetReport`](crate::FleetReport).
    dict_build_s: f64,
}

impl CutModel {
    /// Synthesizes the substrate and fills the per-fault fail-data table
    /// and the diagnosis dictionary from one shared [`SessionTable`]
    /// sweep.
    ///
    /// # Errors
    ///
    /// [`FleetError::Synth`] / [`FleetError::Scan`] when the substrate
    /// cannot be built, [`FleetError::NoDetectableFault`] when the session
    /// detects no fault at all (nothing could ever be seeded).
    pub fn build(config: CutConfig) -> Result<Self, FleetError> {
        let circuit = synthesize(&SynthConfig {
            gates: config.gates,
            inputs: config.inputs,
            dffs: config.dffs,
            seed: config.seed,
            ..SynthConfig::default()
        })?;
        let chains = ScanChains::balanced(&circuit, config.chains)?;
        if config.patterns == 0 {
            // A zero-length session detects nothing; report it as the
            // seeding-pool error rather than asserting in the sweep.
            return Err(FleetError::NoDetectableFault);
        }

        let t = Instant::now();
        let table = SessionTable::build(
            &circuit,
            &chains,
            config.lfsr_seed,
            config.window,
            config.patterns,
            config.threads,
        );
        let (faults, fail_table, detect_windows, windows) = table.into_parts();
        let diagnoser = Diagnoser::from_detect_windows(faults.clone(), detect_windows, windows);
        let dict_build_s = t.elapsed().as_secs_f64();

        let mut detectable = Vec::new();
        for (i, fail) in fail_table.iter().enumerate() {
            if !fail.is_pass() {
                detectable.push(i as u32);
            }
        }
        if detectable.is_empty() {
            return Err(FleetError::NoDetectableFault);
        }

        Ok(CutModel {
            config,
            circuit,
            faults,
            fail_table,
            detectable,
            diagnoser,
            dict_build_s,
        })
    }

    /// Wall-clock seconds the one-pass sweep (fail table + dictionary +
    /// index) took when this model was built.
    pub fn dict_build_seconds(&self) -> f64 {
        self.dict_build_s
    }

    /// The configuration the model was built from.
    pub fn config(&self) -> &CutConfig {
        &self.config
    }

    /// The synthesized substrate circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of collapsed stuck-at faults of the substrate.
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// The `i`-th collapsed fault.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (caller bug, not data-reachable).
    pub fn fault(&self, i: u32) -> Fault {
        self.faults[i as usize]
    }

    /// The precomputed fail data of fault `i` under the campaign session.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (caller bug, not data-reachable).
    pub fn fail_data(&self, i: u32) -> &FailData {
        &self.fail_table[i as usize]
    }

    /// Indices of faults the session detects — the pool defects are
    /// seeded from. Non-empty by construction.
    pub fn detectable_faults(&self) -> &[u32] {
        &self.detectable
    }

    /// Session-level stuck-at coverage of the substrate: detected /
    /// collapsed.
    pub fn coverage(&self) -> f64 {
        self.detectable.len() as f64 / self.faults.len().max(1) as f64
    }

    /// Runs window-based logic diagnosis on uploaded fail data, returning
    /// scored candidates (best first).
    pub fn diagnose(&self, observed: &FailData) -> Vec<Candidate> {
        self.diagnoser.diagnose(observed)
    }

    /// Places fault `i` in the ranking of `observed` (its own fail data
    /// or an impaired variant) without building the full ranking; an `i`
    /// out of range has no rank.
    pub fn diagnose_summary(&self, i: u32, observed: &FailData) -> DiagnosisSummary {
        match self.faults.get(i as usize) {
            Some(&fault) => self.diagnoser.diagnose_summary(fault, observed),
            None => DiagnosisSummary {
                candidates: self.diagnoser.num_candidates(),
                rank: None,
                localized: false,
            },
        }
    }
}

/// The fault model of each CUT family in a campaign: the logic
/// [`CutModel`] and, when the fleet carries one, the SRAM [`MarchTest`].
/// The one place a [`CutFamily`] picks its model; a family without a
/// model has no faults, no fail data and no diagnosis candidates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultModels<'a> {
    pub logic: &'a CutModel,
    pub sram: Option<&'a MarchTest>,
}

impl<'a> FaultModels<'a> {
    /// Number of faults in `family`'s model; `None` without a model.
    pub(crate) fn num_faults(self, family: CutFamily) -> Option<usize> {
        match family {
            CutFamily::Logic => Some(self.logic.num_faults()),
            CutFamily::Sram => self.sram.map(MarchTest::num_faults),
        }
    }

    /// The precomputed fail data of fault `i` of `family`; `None` when
    /// the family has no model or `i` is out of range.
    pub(crate) fn fail_data(self, family: CutFamily, i: u32) -> Option<&'a FailData> {
        match family {
            CutFamily::Logic => self.logic.fail_table.get(i as usize),
            CutFamily::Sram => self
                .sram
                .filter(|m| (i as usize) < m.num_faults())
                .map(|m| m.fail_data(i)),
        }
    }

    /// The faults a defect of `family` is seeded from; empty without a
    /// model.
    pub(crate) fn detectable_faults(self, family: CutFamily) -> &'a [u32] {
        match family {
            CutFamily::Logic => self.logic.detectable_faults(),
            CutFamily::Sram => self.sram.map_or(&[], MarchTest::detectable_faults),
        }
    }

    /// Places fault `i` of `family` in the ranking of `observed`; a
    /// family without a model has no candidates.
    pub(crate) fn diagnose_summary(
        self,
        family: CutFamily,
        i: u32,
        observed: &FailData,
    ) -> DiagnosisSummary {
        match family {
            CutFamily::Logic => self.logic.diagnose_summary(i, observed),
            CutFamily::Sram => self.sram.map_or(
                DiagnosisSummary {
                    candidates: 0,
                    rank: None,
                    localized: false,
                },
                |m| m.diagnose_summary(i, observed),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eea_bist::StumpsSession;

    #[test]
    fn builds_with_detectable_faults() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        assert!(cut.num_faults() > 0);
        assert!(!cut.detectable_faults().is_empty());
        assert!(cut.coverage() > 0.5, "random session detects most faults");
    }

    #[test]
    fn fail_table_matches_uninterrupted_runs() {
        let cfg = CutConfig {
            gates: 80,
            patterns: 64,
            window: 8,
            ..CutConfig::default()
        };
        let cut = CutModel::build(cfg).expect("substrate builds");
        let chains = ScanChains::balanced(&cut.circuit, cfg.chains).expect("chains");
        let session = StumpsSession::new(&cut.circuit, &chains, cfg.lfsr_seed, cfg.window);
        let golden = session.run_golden(cfg.patterns);
        for i in 0..cut.num_faults() as u32 {
            let direct = session.run_with_fault(cut.fault(i), &golden);
            assert_eq!(direct.entries(), cut.fail_data(i).entries());
        }
    }

    #[test]
    fn fail_table_is_thread_count_invariant() {
        let cfg = CutConfig {
            gates: 80,
            patterns: 64,
            window: 8,
            threads: 1,
            ..CutConfig::default()
        };
        let serial = CutModel::build(cfg).expect("substrate builds");
        let parallel = CutModel::build(CutConfig { threads: 5, ..cfg }).expect("substrate builds");
        assert_eq!(serial.num_faults(), parallel.num_faults());
        for i in 0..serial.num_faults() as u32 {
            assert_eq!(serial.fail_data(i), parallel.fail_data(i));
        }
        assert_eq!(serial.detectable_faults(), parallel.detectable_faults());
    }

    #[test]
    fn detectable_faults_localize_mostly() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        let localized = cut
            .detectable_faults()
            .iter()
            .filter(|&&i| cut.diagnose_summary(i, cut.fail_data(i)).localized)
            .count();
        // Window-based diagnosis always ranks the true fault in the top
        // equivalence class of its own response (Jaccard similarity 1).
        assert_eq!(localized, cut.detectable_faults().len());
    }

    #[test]
    fn out_of_range_fault_has_no_rank() {
        let cut = CutModel::build(CutConfig {
            gates: 80,
            patterns: 64,
            window: 8,
            ..CutConfig::default()
        })
        .expect("substrate builds");
        let outside = u32::try_from(cut.num_faults()).expect("fits");
        assert_eq!(
            cut.diagnose_summary(outside, cut.fail_data(0)),
            DiagnosisSummary {
                candidates: cut.num_faults(),
                rank: None,
                localized: false,
            }
        );
    }

    /// Past a model's last fault, and for a family without a model, the
    /// lookup has no answer where the models themselves would panic.
    #[test]
    fn fault_models_answer_nothing_past_a_model() {
        let cut = CutModel::build(CutConfig {
            gates: 80,
            patterns: 64,
            window: 8,
            ..CutConfig::default()
        })
        .expect("substrate builds");
        let march = MarchTest::build(eea_bist::SramConfig { words: 4, bits: 4 })
            .expect("geometry is valid");
        let past = |n: usize| u32::try_from(n).expect("fits");
        let both = FaultModels {
            logic: &cut,
            sram: Some(&march),
        };
        assert_eq!(both.fail_data(CutFamily::Sram, 0), Some(march.fail_data(0)));
        assert_eq!(
            both.fail_data(CutFamily::Logic, past(cut.num_faults())),
            None
        );
        assert_eq!(
            both.fail_data(CutFamily::Sram, past(march.num_faults())),
            None
        );
        let logic_only = FaultModels {
            logic: &cut,
            sram: None,
        };
        assert_eq!(logic_only.num_faults(CutFamily::Sram), None);
        assert_eq!(logic_only.fail_data(CutFamily::Sram, 0), None);
        assert!(logic_only.detectable_faults(CutFamily::Sram).is_empty());
        let summary = logic_only.diagnose_summary(CutFamily::Sram, 0, march.fail_data(0));
        assert_eq!(summary.candidates, 0);
        assert_eq!(summary.rank, None);
    }

    #[test]
    fn seeding_pool_excludes_passing_faults() {
        let cut = CutModel::build(CutConfig::default()).expect("substrate builds");
        for &i in cut.detectable_faults() {
            assert!(!cut.fail_data(i).is_pass());
            assert!(cut.fail_data(i).byte_size() > 0);
        }
    }

    #[test]
    fn empty_session_is_a_typed_error() {
        let cfg = CutConfig {
            patterns: 0,
            ..CutConfig::default()
        };
        assert!(matches!(
            CutModel::build(cfg),
            Err(FleetError::NoDetectableFault)
        ));
    }
}
