//! Building your own E/E-architecture from scratch with the library API —
//! the adoption path for users whose network is not the paper's case
//! study.
//!
//! Models a small two-bus commercial-vehicle subnet, defines its own BIST
//! profiles (e.g. from a different CUT), explores, and checks the derived
//! functional CAN schedules.
//!
//! Run with:
//!
//! ```text
//! cargo run -p eea-dse --example custom_architecture --release
//! ```

use eea_bist::BistProfile;
use eea_dse::{augment, check_schedulability, explore, DseConfig};
use eea_model::{
    Application, Architecture, CaseStudy, Resource, ResourceKind, Specification, TaskKind,
};
use eea_moea::Nsga2Config;

fn main() {
    // ---- Architecture: gateway, 2 buses, 4 ECUs, 2 sensors, 2 actuators.
    let mut arch = Architecture::new();
    let gateway = arch.add_resource(Resource {
        name: "cgw".into(),
        kind: ResourceKind::Gateway,
        cost: 60.0,
        memory_cost_per_byte: 5e-7,
        bist_capable: false,
    });
    let mut buses = Vec::new();
    let mut ecus = Vec::new();
    let mut ecus_by_bus = Vec::new();
    for b in 0..2 {
        let bus = arch.add_resource(Resource {
            name: format!("can{b}"),
            kind: ResourceKind::CanBus,
            cost: 4.0,
            memory_cost_per_byte: 0.0,
            bist_capable: false,
        });
        arch.connect(gateway, bus);
        buses.push(bus);
        let mut on_bus = Vec::new();
        for e in 0..2 {
            let ecu = arch.add_resource(Resource {
                name: format!("ecu{b}{e}"),
                kind: ResourceKind::Ecu,
                cost: 25.0 + 5.0 * f64::from(e),
                memory_cost_per_byte: 5e-6,
                bist_capable: true,
            });
            arch.connect(ecu, bus);
            ecus.push(ecu);
            on_bus.push(ecu);
        }
        ecus_by_bus.push(on_bus);
    }
    let sensor = arch.add_resource(Resource {
        name: "wheel_speed".into(),
        kind: ResourceKind::Sensor,
        cost: 3.0,
        memory_cost_per_byte: 0.0,
        bist_capable: false,
    });
    arch.connect(sensor, buses[0]);
    let actuator = arch.add_resource(Resource {
        name: "brake_valve".into(),
        kind: ResourceKind::Actuator,
        cost: 4.0,
        memory_cost_per_byte: 0.0,
        bist_capable: false,
    });
    arch.connect(actuator, buses[1]);

    // ---- Application: a brake-by-wire style pipeline crossing both buses.
    let mut app = Application::new();
    let sense = app.add_task("sense_speed", TaskKind::Functional);
    let filter = app.add_task("filter", TaskKind::Functional);
    let control = app.add_task("abs_control", TaskKind::Functional);
    let actuate = app.add_task("apply_brake", TaskKind::Functional);
    app.add_message("speed_raw", sense, &[filter], 4, 10_000);
    app.add_message("speed_f", filter, &[control], 6, 10_000);
    app.add_message("brake_cmd", control, &[actuate], 2, 10_000);

    let mut spec = Specification::new(app, arch);
    spec.add_mapping(sense, sensor);
    spec.add_mapping(actuate, actuator);
    for &t in &[filter, control] {
        for &e in &ecus {
            spec.add_mapping(t, e);
        }
        spec.add_mapping(t, gateway);
    }
    spec.validate().expect("valid specification");

    // ---- Custom BIST profiles (a smaller CUT than the paper's).
    let profiles: Vec<BistProfile> = vec![
        BistProfile {
            id: 1,
            random_patterns: 1_000,
            deterministic_patterns: 120,
            coverage: 0.995,
            runtime_ms: 2.4,
            data_bytes: 180_000,
        },
        BistProfile {
            id: 2,
            random_patterns: 1_000,
            deterministic_patterns: 30,
            coverage: 0.95,
            runtime_ms: 2.1,
            data_bytes: 40_000,
        },
        BistProfile {
            id: 3,
            random_patterns: 10_000,
            deterministic_patterns: 10,
            coverage: 0.97,
            runtime_ms: 11.0,
            data_bytes: 12_000,
        },
    ];

    // ---- Explore.
    let case = CaseStudy {
        spec,
        gateway,
        buses: buses.clone(),
        ecus_by_bus,
        app_tasks: vec![vec![sense, filter, control, actuate]],
    };
    let diag = augment(&case, &profiles).expect("gateway present");
    let cfg = DseConfig {
        nsga2: Nsga2Config {
            population: 24,
            evaluations: 1_200,
            seed: 7,
            ..Nsga2Config::default()
        },
        ..DseConfig::default()
    };
    let result = explore(&diag, &cfg, |_, _| {});
    println!(
        "explored {} designs, front holds {}:",
        result.evaluations,
        result.front.len()
    );
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>10}",
        "cost", "quality", "shutoff [s]", "gw [kB]", "local [kB]"
    );
    for e in &result.front {
        println!(
            "{:>8.1} {:>9.1}% {:>12.3} {:>10} {:>10}",
            e.objectives.cost,
            e.objectives.test_quality * 100.0,
            e.objectives.shutoff_s,
            e.memory.gateway_bytes / 1024,
            e.memory.distributed_bytes / 1024
        );
    }

    // ---- Certify the functional schedules of the best design.
    let best = result
        .front
        .iter()
        .max_by(|a, b| {
            a.objectives
                .test_quality
                .partial_cmp(&b.objectives.test_quality)
                .expect("finite")
        })
        .expect("nonempty front");
    let schedules = check_schedulability(&diag, &best.implementation, eea_can::BUS_BITRATE_BPS)
        .expect("functional schedule certifies");
    println!("\nderived functional CAN schedules:");
    for s in &schedules {
        println!(
            "  {}: {} messages, {:.1} % load",
            diag.spec.architecture.resource(s.bus).name,
            s.messages.len(),
            s.utilization(eea_can::BUS_BITRATE_BPS) * 100.0
        );
    }
}
