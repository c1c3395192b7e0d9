//! Graphviz (dot) export of specifications and implementations — the
//! visual counterparts of the paper's Figs. 3 and 4.

use std::fmt::Write as _;

use crate::arch::ResourceKind;
use crate::ids::ResourceId;
use crate::spec::{Implementation, Specification};

fn sanitize(name: &str) -> String {
    name.replace(['"', '\\'], "_")
}

fn resource_attrs(kind: ResourceKind) -> &'static str {
    match kind {
        ResourceKind::Ecu => "shape=box,style=filled,fillcolor=lightblue",
        ResourceKind::Gateway => "shape=box3d,style=filled,fillcolor=gold",
        ResourceKind::Sensor => "shape=ellipse,style=filled,fillcolor=palegreen",
        ResourceKind::Actuator => "shape=ellipse,style=filled,fillcolor=salmon",
        ResourceKind::CanBus => "shape=hexagon,style=filled,fillcolor=lightgrey",
    }
}

/// Renders the architecture graph `g_A` as Graphviz dot.
pub fn architecture_dot(spec: &Specification) -> String {
    let arch = &spec.architecture;
    let mut out = String::from("graph architecture {\n  layout=neato;\n");
    for r in arch.resource_ids() {
        let res = arch.resource(r);
        let _ = writeln!(
            out,
            "  {} [label=\"{}\\ncost {:.0}\",{}];",
            r.index(),
            sanitize(&res.name),
            res.cost,
            resource_attrs(res.kind)
        );
    }
    for a in arch.resource_ids() {
        for &b in arch.neighbors(a) {
            if a < b {
                let _ = writeln!(out, "  {} -- {};", a.index(), b.index());
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Renders the application graph `g_T` (tasks and message vertices) as
/// Graphviz dot. Diagnostic tasks are drawn dashed, as in the paper's
/// Fig. 3.
pub fn application_dot(spec: &Specification) -> String {
    let app = &spec.application;
    let mut out = String::from("digraph application {\n  rankdir=LR;\n");
    for t in app.task_ids() {
        let task = app.task(t);
        let style = if task.kind.is_diagnostic() {
            "shape=box,style=dashed"
        } else {
            "shape=box"
        };
        let _ = writeln!(
            out,
            "  t{} [label=\"{}\",{}];",
            t.index(),
            sanitize(&task.name),
            style
        );
    }
    for m in app.message_ids() {
        let msg = app.message(m);
        let _ = writeln!(
            out,
            "  c{} [label=\"{}\\n{}B @{}ms\",shape=circle,fontsize=9];",
            m.index(),
            sanitize(&msg.name),
            msg.size_bytes,
            msg.period_us / 1000
        );
        let _ = writeln!(out, "  t{} -> c{};", msg.sender.index(), m.index());
        for r in &msg.receivers {
            let _ = writeln!(out, "  c{} -> t{};", m.index(), r.index());
        }
    }
    out.push_str("}\n");
    out
}

/// Renders an implementation: allocated resources with their bound tasks,
/// plus the message routes.
pub fn implementation_dot(spec: &Specification, x: &Implementation) -> String {
    let arch = &spec.architecture;
    let app = &spec.application;
    let mut out = String::from("graph implementation {\n");
    for r in arch.resource_ids() {
        if !x.allocation.contains(&r) {
            continue;
        }
        let res = arch.resource(r);
        let tasks: Vec<String> = x.tasks_on(r).map(|t| sanitize(&app.task(t).name)).collect();
        let _ = writeln!(
            out,
            "  {} [label=\"{}\\n{}\",{}];",
            r.index(),
            sanitize(&res.name),
            tasks.join("\\n"),
            resource_attrs(res.kind)
        );
    }
    let allocated = |r: ResourceId| x.allocation.contains(&r);
    for a in arch.resource_ids() {
        for &b in arch.neighbors(a) {
            if a < b && allocated(a) && allocated(b) {
                let _ = writeln!(out, "  {} -- {};", a.index(), b.index());
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::paper_case_study;

    #[test]
    fn architecture_dot_lists_all_resources() {
        let cs = paper_case_study();
        let dot = architecture_dot(&cs.spec);
        assert!(dot.starts_with("graph architecture {"));
        assert!(dot.ends_with("}\n"));
        for r in cs.spec.architecture.resource_ids() {
            assert!(dot.contains(&cs.spec.architecture.resource(r).name));
        }
        // 24 resources -> 24 node lines; edges between gateway/buses/leaves.
        assert!(dot.matches(" -- ").count() >= 23);
    }

    #[test]
    fn application_dot_draws_tasks_and_messages() {
        let cs = paper_case_study();
        let dot = application_dot(&cs.spec);
        assert_eq!(dot.matches("shape=circle").count(), 41);
        assert!(dot.contains("a0_fusion"));
        // Functional tasks are not dashed.
        assert!(!dot.contains("style=dashed"));
    }

    #[test]
    fn implementation_dot_only_allocated() {
        let cs = paper_case_study();
        let spec = &cs.spec;
        let mut x = Implementation::new();
        // Bind one task somewhere legal.
        let t = spec
            .application
            .task_ids()
            .find(|&t| !spec.mapping_options(t).is_empty())
            .expect("some task");
        x.bind(t, spec.mapping_options(t)[0]);
        let dot = implementation_dot(spec, &x);
        // Exactly one node (the bound resource), no edges.
        assert_eq!(dot.matches("label=").count(), 1);
        assert_eq!(dot.matches(" -- ").count(), 0);
    }
}
