//! The paper's industrial case study, rebuilt deterministically.
//!
//! Section IV: "Four control-centric applications with 45 tasks and 41
//! messages have to be implemented. For the architecture, 15 ECUs, 9
//! sensors, and 5 actuators connected with three distinct CAN buses are
//! available." The concrete graphs are unpublished; this module
//! reconstructs a specification with exactly those counts and the control
//! structure the paper's domain implies (sense → preprocess → fuse →
//! control → postprocess → actuate pipelines, one cross-domain application
//! spanning two buses through the central gateway).
//!
//! Everything is deterministic for a given [`CaseStudyConfig`], so the DSE
//! experiments are exactly reproducible.

use crate::app::{Application, TaskKind};
use crate::arch::{Architecture, Resource, ResourceKind};
use crate::ids::{ResourceId, TaskId};
use crate::spec::Specification;

/// Configuration of the case-study generator. The default reproduces the
/// paper's counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyConfig {
    /// ECUs per bus (3 buses): paper total is 15.
    pub ecus_per_bus: [usize; 3],
    /// Sensors per bus: paper total is 9.
    pub sensors_per_bus: [usize; 3],
    /// Actuators per bus: paper total is 5.
    pub actuators_per_bus: [usize; 3],
    /// Base cost of the gateway.
    pub gateway_cost: f64,
    /// Cost range of an ECU (deterministically varied within).
    pub ecu_cost_range: (f64, f64),
    /// Cost per byte of permanent ECU memory (distributed test-data
    /// storage).
    pub ecu_memory_cost_per_byte: f64,
    /// Cost per byte of gateway memory (cheaper; shared storage).
    pub gateway_memory_cost_per_byte: f64,
    /// Seed for the deterministic structure generation.
    pub seed: u64,
}

impl Default for CaseStudyConfig {
    fn default() -> Self {
        CaseStudyConfig {
            ecus_per_bus: [5, 5, 5],
            sensors_per_bus: [3, 3, 3],
            actuators_per_bus: [2, 2, 1],
            gateway_cost: 80.0,
            ecu_cost_range: (18.0, 42.0),
            // Distributed ECU flash is an order of magnitude pricier per
            // byte than the gateway's bulk memory — this asymmetry is what
            // creates the paper's central storage-placement tradeoff.
            ecu_memory_cost_per_byte: 4e-6,
            gateway_memory_cost_per_byte: 4e-7,
            seed: 0xCA5E_57D1,
        }
    }
}

/// The generated case study: the specification plus convenient handles to
/// the architecture's structure.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The full specification (functional part only; BIST augmentation is
    /// done by `eea-dse`).
    pub spec: Specification,
    /// The central gateway.
    pub gateway: ResourceId,
    /// The three CAN buses.
    pub buses: Vec<ResourceId>,
    /// All ECUs, grouped by bus.
    pub ecus_by_bus: Vec<Vec<ResourceId>>,
    /// Task ids grouped by application.
    pub app_tasks: Vec<Vec<TaskId>>,
}

impl CaseStudy {
    /// All ECU ids (flattened).
    pub fn ecus(&self) -> Vec<ResourceId> {
        self.ecus_by_bus.iter().flatten().copied().collect()
    }

    /// The bus an ECU is attached to, or `None` if `ecu` is not one of the
    /// case study's ECUs.
    pub fn bus_of(&self, ecu: ResourceId) -> Option<ResourceId> {
        for (bi, group) in self.ecus_by_bus.iter().enumerate() {
            if group.contains(&ecu) {
                return self.buses.get(bi).copied();
            }
        }
        None
    }
}

struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// Builds the paper's case study with default parameters: 45 tasks, 41
/// messages, 4 applications, 15 ECUs, 9 sensors, 5 actuators, 3 CAN buses
/// and a central gateway.
pub fn paper_case_study() -> CaseStudy {
    build_case_study(&CaseStudyConfig::default())
}

/// Builds a case study per `cfg`. See [`paper_case_study`] for the paper's
/// instantiation.
pub fn build_case_study(cfg: &CaseStudyConfig) -> CaseStudy {
    let mut rng = Mix(cfg.seed);
    let mut arch = Architecture::new();

    let gateway = arch.add_resource(Resource {
        name: "gateway".into(),
        kind: ResourceKind::Gateway,
        cost: cfg.gateway_cost,
        memory_cost_per_byte: cfg.gateway_memory_cost_per_byte,
        bist_capable: false,
    });
    let mut buses = Vec::new();
    let mut ecus_by_bus = Vec::new();
    let mut sensors_by_bus = Vec::new();
    let mut actuators_by_bus = Vec::new();
    for b in 0..3 {
        let bus = arch.add_resource(Resource {
            name: format!("can{b}"),
            kind: ResourceKind::CanBus,
            cost: 5.0,
            memory_cost_per_byte: 0.0,
            bist_capable: false,
        });
        arch.connect(gateway, bus);
        buses.push(bus);
        let mut ecus = Vec::new();
        for e in 0..cfg.ecus_per_bus[b] {
            let (lo, hi) = cfg.ecu_cost_range;
            let ecu = arch.add_resource(Resource {
                name: format!("ecu{b}_{e}"),
                kind: ResourceKind::Ecu,
                cost: rng.in_range(lo, hi).round(),
                memory_cost_per_byte: cfg.ecu_memory_cost_per_byte,
                bist_capable: true,
            });
            arch.connect(ecu, bus);
            ecus.push(ecu);
        }
        ecus_by_bus.push(ecus);
        let mut sensors = Vec::new();
        for s in 0..cfg.sensors_per_bus[b] {
            let sensor = arch.add_resource(Resource {
                name: format!("sensor{b}_{s}"),
                kind: ResourceKind::Sensor,
                cost: 3.0,
                memory_cost_per_byte: 0.0,
                bist_capable: false,
            });
            arch.connect(sensor, bus);
            sensors.push(sensor);
        }
        sensors_by_bus.push(sensors);
        let mut actuators = Vec::new();
        for a in 0..cfg.actuators_per_bus[b] {
            let act = arch.add_resource(Resource {
                name: format!("act{b}_{a}"),
                kind: ResourceKind::Actuator,
                cost: 4.0,
                memory_cost_per_byte: 0.0,
                bist_capable: false,
            });
            arch.connect(act, bus);
            actuators.push(act);
        }
        actuators_by_bus.push(actuators);
    }

    let mut app = Application::new();
    let mut pending_mappings: Vec<(TaskId, Vec<ResourceId>)> = Vec::new();
    let mut app_tasks: Vec<Vec<TaskId>> = Vec::new();

    // Helper closures cannot borrow `app` mutably twice, so use functions.
    struct Ctx<'a> {
        app: &'a mut Application,
        pending: &'a mut Vec<(TaskId, Vec<ResourceId>)>,
        rng: &'a mut Mix,
    }
    impl Ctx<'_> {
        fn fixed_task(&mut self, name: &str, host: ResourceId) -> TaskId {
            let t = self.app.add_task(name, TaskKind::Functional);
            self.pending.push((t, vec![host]));
            t
        }
        /// Processing task mappable to 2-4 of the given ECU pool.
        fn proc_task(&mut self, name: &str, pool: &[ResourceId]) -> TaskId {
            let t = self.app.add_task(name, TaskKind::Functional);
            let k = (2 + self.rng.below(3)).min(pool.len());
            let mut opts = Vec::new();
            let start = self.rng.below(pool.len());
            for i in 0..pool.len() {
                if opts.len() == k {
                    break;
                }
                opts.push(pool[(start + i) % pool.len()]);
            }
            self.pending.push((t, opts));
            t
        }
    }

    // Applications 1 and 2: full 12-task pipelines on bus 0 and bus 1.
    // Application 3: 11 tasks on bus 2 (single actuator, convergent
    // control). Application 4: 10 tasks spanning buses 0 and 1 through the
    // gateway, with one multicast message.
    let periods = [10_000u64, 20_000, 50_000, 100_000];
    for (ai, &bus_idx) in [0usize, 1].iter().enumerate() {
        let mut ctx = Ctx {
            app: &mut app,
            pending: &mut pending_mappings,
            rng: &mut rng,
        };
        let ecus = &ecus_by_bus[bus_idx];
        let sensors = &sensors_by_bus[bus_idx];
        let acts = &actuators_by_bus[bus_idx];
        let p = |i: usize| periods[i % periods.len()];
        let n = format!("a{ai}");
        let s0 = ctx.fixed_task(&format!("{n}_sense0"), sensors[0]);
        let s1 = ctx.fixed_task(&format!("{n}_sense1"), sensors[1]);
        let s2 = ctx.fixed_task(&format!("{n}_sense2"), sensors[2]);
        let pre0 = ctx.proc_task(&format!("{n}_pre0"), ecus);
        let pre1 = ctx.proc_task(&format!("{n}_pre1"), ecus);
        let fus = ctx.proc_task(&format!("{n}_fusion"), ecus);
        let ctl0 = ctx.proc_task(&format!("{n}_ctl0"), ecus);
        let ctl1 = ctx.proc_task(&format!("{n}_ctl1"), ecus);
        let post0 = ctx.proc_task(&format!("{n}_post0"), ecus);
        let post1 = ctx.proc_task(&format!("{n}_post1"), ecus);
        let act0 = ctx.fixed_task(&format!("{n}_act0"), acts[0]);
        let act1 = ctx.fixed_task(&format!("{n}_act1"), acts[1]);
        app_tasks.push(vec![
            s0, s1, s2, pre0, pre1, fus, ctl0, ctl1, post0, post1, act0, act1,
        ]);
        let m = |app: &mut Application, nm: &str, s, r, sz, per| {
            app.add_message(nm, s, &[r], sz, per);
        };
        m(&mut app, &format!("{n}_m0"), s0, pre0, 2, p(0));
        m(&mut app, &format!("{n}_m1"), s1, pre0, 2, p(0));
        m(&mut app, &format!("{n}_m2"), s2, pre1, 4, p(1));
        m(&mut app, &format!("{n}_m3"), pre0, fus, 6, p(0));
        m(&mut app, &format!("{n}_m4"), pre1, fus, 6, p(1));
        m(&mut app, &format!("{n}_m5"), fus, ctl0, 8, p(0));
        m(&mut app, &format!("{n}_m6"), fus, ctl1, 8, p(1));
        m(&mut app, &format!("{n}_m7"), ctl0, post0, 4, p(0));
        m(&mut app, &format!("{n}_m8"), ctl1, post1, 4, p(1));
        m(&mut app, &format!("{n}_m9"), post0, act0, 2, p(0));
        m(&mut app, &format!("{n}_m10"), post1, act1, 2, p(1));
    }

    // Application 3 (bus 2): 11 tasks, 11 messages (convergent actuation).
    {
        let mut ctx = Ctx {
            app: &mut app,
            pending: &mut pending_mappings,
            rng: &mut rng,
        };
        let ecus = &ecus_by_bus[2];
        let sensors = &sensors_by_bus[2];
        let acts = &actuators_by_bus[2];
        let s0 = ctx.fixed_task("a2_sense0", sensors[0]);
        let s1 = ctx.fixed_task("a2_sense1", sensors[1]);
        let s2 = ctx.fixed_task("a2_sense2", sensors[2]);
        let pre0 = ctx.proc_task("a2_pre0", ecus);
        let pre1 = ctx.proc_task("a2_pre1", ecus);
        let fus = ctx.proc_task("a2_fusion", ecus);
        let ctl0 = ctx.proc_task("a2_ctl0", ecus);
        let ctl1 = ctx.proc_task("a2_ctl1", ecus);
        let post0 = ctx.proc_task("a2_post0", ecus);
        let post1 = ctx.proc_task("a2_post1", ecus);
        let act = ctx.fixed_task("a2_act0", acts[0]);
        app_tasks.push(vec![
            s0, s1, s2, pre0, pre1, fus, ctl0, ctl1, post0, post1, act,
        ]);
        app.add_message("a2_m0", s0, &[pre0], 2, 20_000);
        app.add_message("a2_m1", s1, &[pre0], 2, 20_000);
        app.add_message("a2_m2", s2, &[pre1], 4, 50_000);
        app.add_message("a2_m3", pre0, &[fus], 6, 20_000);
        app.add_message("a2_m4", pre1, &[fus], 6, 50_000);
        app.add_message("a2_m5", fus, &[ctl0], 8, 20_000);
        app.add_message("a2_m6", fus, &[ctl1], 8, 50_000);
        app.add_message("a2_m7", ctl0, &[post0], 4, 20_000);
        app.add_message("a2_m8", ctl1, &[post1], 4, 50_000);
        app.add_message("a2_m9", post0, &[act], 2, 20_000);
        app.add_message("a2_m10", post1, &[act], 2, 50_000);
    }

    // Application 4: cross-domain, 10 tasks, 8 messages, one multicast.
    {
        let mut ctx = Ctx {
            app: &mut app,
            pending: &mut pending_mappings,
            rng: &mut rng,
        };
        // Processing pool: ECUs of bus 0 and bus 1 plus the gateway.
        let mut pool: Vec<ResourceId> = Vec::new();
        pool.extend(&ecus_by_bus[0]);
        pool.extend(&ecus_by_bus[1]);
        pool.push(gateway);
        let s0 = ctx.fixed_task("a3_sense0", sensors_by_bus[0][0]);
        let s1 = ctx.fixed_task("a3_sense1", sensors_by_bus[1][0]);
        let p0 = ctx.proc_task("a3_pre0", &ecus_by_bus[0].clone());
        let p1 = ctx.proc_task("a3_pre1", &ecus_by_bus[1].clone());
        let fus = ctx.proc_task("a3_fusion", &pool);
        let c0 = ctx.proc_task("a3_ctl0", &pool);
        let mon = ctx.proc_task("a3_monitor", &pool);
        let c1 = ctx.proc_task("a3_ctl1", &pool);
        let a0 = ctx.fixed_task("a3_act0", actuators_by_bus[0][0]);
        let a1 = ctx.fixed_task("a3_act1", actuators_by_bus[1][0]);
        app_tasks.push(vec![s0, s1, p0, p1, fus, c0, mon, c1, a0, a1]);
        app.add_message("a3_m0", s0, &[p0], 4, 10_000);
        app.add_message("a3_m1", s1, &[p1], 4, 10_000);
        app.add_message("a3_m2", p0, &[fus], 8, 10_000);
        app.add_message("a3_m3", p1, &[fus], 8, 10_000);
        app.add_message("a3_m4", fus, &[c0, mon], 8, 10_000); // multicast
        app.add_message("a3_m5", c0, &[c1], 6, 10_000);
        app.add_message("a3_m6", c1, &[a0], 2, 10_000);
        app.add_message("a3_m7", c1, &[a1], 2, 10_000);
    }

    let mut spec = Specification::new(app, arch);
    for (t, opts) in pending_mappings {
        for r in opts {
            spec.add_mapping(t, r);
        }
    }
    // The deterministic generator always yields a valid specification;
    // checked in debug builds and re-asserted by the crate's tests.
    debug_assert!(
        spec.validate().is_ok(),
        "generated case study is valid: {:?}",
        spec.validate()
    );

    CaseStudy {
        spec,
        gateway,
        buses,
        ecus_by_bus,
        app_tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ResourceKind;

    #[test]
    fn paper_counts() {
        let cs = paper_case_study();
        let app = &cs.spec.application;
        let arch = &cs.spec.architecture;
        assert_eq!(app.num_tasks(), 45, "paper: 45 tasks");
        assert_eq!(app.num_messages(), 41, "paper: 41 messages");
        assert_eq!(cs.app_tasks.len(), 4, "paper: 4 applications");
        assert_eq!(arch.of_kind(ResourceKind::Ecu).count(), 15);
        assert_eq!(arch.of_kind(ResourceKind::Sensor).count(), 9);
        assert_eq!(arch.of_kind(ResourceKind::Actuator).count(), 5);
        assert_eq!(arch.of_kind(ResourceKind::CanBus).count(), 3);
        assert_eq!(arch.of_kind(ResourceKind::Gateway).count(), 1);
    }

    #[test]
    fn deterministic() {
        let a = paper_case_study();
        let b = paper_case_study();
        assert_eq!(a.spec, b.spec);
    }

    #[test]
    fn every_task_mappable() {
        let cs = paper_case_study();
        for t in cs.spec.application.task_ids() {
            assert!(
                !cs.spec.mapping_options(t).is_empty(),
                "task {t} has no mapping option"
            );
        }
    }

    #[test]
    fn processing_tasks_have_choices() {
        let cs = paper_case_study();
        let multi = cs
            .spec
            .application
            .task_ids()
            .filter(|&t| cs.spec.mapping_options(t).len() >= 2)
            .count();
        // All 22 processing tasks have at least two options.
        assert!(multi >= 20, "{multi} tasks with choices");
    }

    #[test]
    fn architecture_is_connected() {
        let cs = paper_case_study();
        let arch = &cs.spec.architecture;
        let first = arch.resource_ids().next().unwrap();
        for r in arch.resource_ids() {
            assert!(arch.hop_distance(first, r).is_some(), "{r} unreachable");
        }
        // Longest path: node on bus i -> bus i -> gateway -> bus j -> node.
        assert_eq!(arch.diameter(), 4);
    }

    #[test]
    fn bus_of_every_ecu_resolves() {
        let cs = paper_case_study();
        for ecu in cs.ecus() {
            let bus = cs.bus_of(ecu).expect("every ECU sits on a bus");
            assert!(cs.buses.contains(&bus));
            assert!(cs.spec.architecture.connected(ecu, bus));
        }
        // A non-ECU resource (the gateway) resolves to no bus.
        assert_eq!(cs.bus_of(cs.gateway), None);
    }

    #[test]
    fn multicast_message_exists() {
        let cs = paper_case_study();
        let app = &cs.spec.application;
        assert!(app
            .message_ids()
            .any(|m| app.message(m).receivers.len() == 2));
    }

    #[test]
    fn custom_config_scales() {
        let cfg = CaseStudyConfig {
            ecus_per_bus: [2, 2, 2],
            ..CaseStudyConfig::default()
        };
        let cs = build_case_study(&cfg);
        assert_eq!(cs.spec.architecture.of_kind(ResourceKind::Ecu).count(), 6);
        assert_eq!(cs.spec.application.num_tasks(), 45);
    }
}
