//! The graph-based specification `g_S(g_T, g_A, M)` and implementation
//! `x = (A, B, W)` of the paper (following Lukasiewycz et al., DATE'09).

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use crate::app::Application;
use crate::arch::Architecture;
use crate::ids::{MessageId, ResourceId, TaskId};

/// A complete design-space-exploration specification: application graph,
/// architecture graph, and the mapping edges `M ⊆ T × R`.
#[derive(Debug, Clone, PartialEq)]
pub struct Specification {
    /// The application graph `g_T`.
    pub application: Application,
    /// The architecture graph `g_A`.
    pub architecture: Architecture,
    /// Mapping options: `mappings[t]` lists the resources task `t` may be
    /// bound to.
    mappings: Vec<Vec<ResourceId>>,
}

/// Validation error of a [`Specification`] or [`Implementation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A functional task has no mapping option.
    UnmappableTask(TaskId),
    /// A mapping targets a non-computational resource (e.g. a bus).
    MapToBus(TaskId, ResourceId),
    /// A task in the implementation is bound to a resource that is not
    /// among its mapping options.
    IllegalBinding(TaskId, ResourceId),
    /// A mandatory (functional) task is unbound.
    UnboundTask(TaskId),
    /// A message of two bound endpoint tasks has no route.
    UnroutedMessage(MessageId),
    /// A message route is not a connected path over architecture edges
    /// containing sender and all receivers.
    BrokenRoute(MessageId),
    /// A bound task's resource is missing from the allocation.
    AllocationMissing(ResourceId),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UnmappableTask(t) => write!(f, "task {t} has no mapping option"),
            ValidateError::MapToBus(t, r) => {
                write!(f, "task {t} may not map to communication resource {r}")
            }
            ValidateError::IllegalBinding(t, r) => {
                write!(f, "task {t} bound to {r} which is not a mapping option")
            }
            ValidateError::UnboundTask(t) => write!(f, "mandatory task {t} is unbound"),
            ValidateError::UnroutedMessage(m) => write!(f, "message {m} has no route"),
            ValidateError::BrokenRoute(m) => write!(f, "message {m} has a disconnected route"),
            ValidateError::AllocationMissing(r) => {
                write!(f, "resource {r} is used but not allocated")
            }
        }
    }
}

impl Error for ValidateError {}

impl Specification {
    /// Creates a specification without mapping options (add them with
    /// [`add_mapping`](Self::add_mapping)).
    pub fn new(application: Application, architecture: Architecture) -> Self {
        let n = application.num_tasks();
        Specification {
            application,
            architecture,
            mappings: vec![Vec::new(); n],
        }
    }

    /// Adds a mapping option `m = (t, r)`.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range or the option already exists.
    pub fn add_mapping(&mut self, task: TaskId, resource: ResourceId) {
        assert!(
            task.index() < self.application.num_tasks(),
            "unknown {task}"
        );
        assert!(
            resource.index() < self.architecture.num_resources(),
            "unknown {resource}"
        );
        // The application graph is a public field and may have grown since
        // construction; keep the mapping table in sync.
        if self.mappings.len() < self.application.num_tasks() {
            self.mappings
                .resize(self.application.num_tasks(), Vec::new());
        }
        let opts = &mut self.mappings[task.index()];
        assert!(
            !opts.contains(&resource),
            "mapping ({task}, {resource}) already exists"
        );
        opts.push(resource);
    }

    /// Mapping options of a task.
    #[inline]
    pub fn mapping_options(&self, task: TaskId) -> &[ResourceId] {
        self.mappings
            .get(task.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total number of mapping edges `|M|`.
    pub fn num_mappings(&self) -> usize {
        self.mappings.iter().map(Vec::len).sum()
    }

    /// Validates the static structure: every functional task has at least
    /// one mapping option and no option targets a bus.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        for t in self.application.task_ids() {
            let opts = self.mapping_options(t);
            if !self.application.task(t).kind.is_diagnostic() && opts.is_empty() {
                return Err(ValidateError::UnmappableTask(t));
            }
            for &r in opts {
                if !self.architecture.resource(r).kind.is_computational() {
                    return Err(ValidateError::MapToBus(t, r));
                }
            }
        }
        Ok(())
    }

    /// Validates an implementation against this specification:
    /// all functional tasks bound, bindings legal, every message between
    /// bound endpoints routed over a connected path, allocation consistent.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate_implementation(&self, x: &Implementation) -> Result<(), ValidateError> {
        for t in self.application.task_ids() {
            let diag = self.application.task(t).kind.is_diagnostic();
            match x.binding.get(&t) {
                None if !diag => return Err(ValidateError::UnboundTask(t)),
                None => {}
                Some(&r) => {
                    if !self.mapping_options(t).contains(&r) {
                        return Err(ValidateError::IllegalBinding(t, r));
                    }
                    if !x.allocation.contains(&r) {
                        return Err(ValidateError::AllocationMissing(r));
                    }
                }
            }
        }
        for m in self.application.message_ids() {
            let msg = self.application.message(m);
            let sender_bound = x.binding.get(&msg.sender);
            // A message is active iff its sender is bound.
            let Some(&src) = sender_bound else { continue };
            let route = match x.routing.get(&m) {
                Some(r) if !r.is_empty() => r,
                _ => return Err(ValidateError::UnroutedMessage(m)),
            };
            // The route is a resource set (a routing tree for multicast):
            // it must contain the sender's resource, be connected as a
            // subgraph, and contain every bound receiver's resource.
            if !route.contains(&src) {
                return Err(ValidateError::BrokenRoute(m));
            }
            let mut reach: Vec<ResourceId> = vec![src];
            let mut seen: std::collections::BTreeSet<ResourceId> = std::iter::once(src).collect();
            while let Some(r) = reach.pop() {
                for &n in self.architecture.neighbors(r) {
                    if route.contains(&n) && seen.insert(n) {
                        reach.push(n);
                    }
                }
            }
            if seen.len()
                != route
                    .iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .len()
            {
                return Err(ValidateError::BrokenRoute(m));
            }
            for rec in &msg.receivers {
                if let Some(&dst) = x.binding.get(rec) {
                    if !route.contains(&dst) {
                        return Err(ValidateError::BrokenRoute(m));
                    }
                }
            }
            for r in route {
                if !x.allocation.contains(r) {
                    return Err(ValidateError::AllocationMissing(*r));
                }
            }
        }
        Ok(())
    }
}

/// An implementation `x = (A, B, W)`: allocation, binding and routing.
///
/// A route `W_c` is the *set* of resources a message is routed over (the
/// paper's formulation); for multicast it forms a routing tree. Validation
/// checks that the set contains the sender's resource, is connected in the
/// architecture graph, and covers every bound receiver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Implementation {
    /// Allocated resources `A ⊆ R`.
    pub allocation: BTreeSet<ResourceId>,
    /// Task bindings `B ⊆ M` (one resource per bound task).
    pub binding: BTreeMap<TaskId, ResourceId>,
    /// Message routes `W` (resource sequence per active message).
    pub routing: BTreeMap<MessageId, Vec<ResourceId>>,
}

impl Implementation {
    /// Creates an empty implementation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a task, allocating the resource implicitly.
    pub fn bind(&mut self, task: TaskId, resource: ResourceId) {
        self.binding.insert(task, resource);
        self.allocation.insert(resource);
    }

    /// Sets a message route, allocating all hops implicitly.
    pub fn route(&mut self, message: MessageId, path: Vec<ResourceId>) {
        for &r in &path {
            self.allocation.insert(r);
        }
        self.routing.insert(message, path);
    }

    /// The resource a task is bound to, if any.
    pub fn binding_of(&self, task: TaskId) -> Option<ResourceId> {
        self.binding.get(&task).copied()
    }

    /// Tasks bound to `resource`.
    pub fn tasks_on(&self, resource: ResourceId) -> impl Iterator<Item = TaskId> + '_ {
        self.binding
            .iter()
            .filter(move |&(_, &r)| r == resource)
            .map(|(&t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::TaskKind;
    use crate::arch::{resource, ResourceKind};

    fn spec() -> (
        Specification,
        TaskId,
        TaskId,
        MessageId,
        ResourceId,
        ResourceId,
        ResourceId,
    ) {
        let mut app = Application::new();
        let s = app.add_task("send", TaskKind::Functional);
        let t = app.add_task("recv", TaskKind::Functional);
        let m = app.add_message("m", s, &[t], 4, 10_000);
        let mut arch = Architecture::new();
        let e1 = arch.add_resource(resource("e1", ResourceKind::Ecu, 10.0));
        let bus = arch.add_resource(resource("bus", ResourceKind::CanBus, 5.0));
        let e2 = arch.add_resource(resource("e2", ResourceKind::Ecu, 10.0));
        arch.connect(e1, bus);
        arch.connect(bus, e2);
        let mut spec = Specification::new(app, arch);
        spec.add_mapping(s, e1);
        spec.add_mapping(t, e2);
        (spec, s, t, m, e1, bus, e2)
    }

    #[test]
    fn valid_implementation_passes() {
        let (spec, s, t, m, e1, bus, e2) = spec();
        spec.validate().unwrap();
        let mut x = Implementation::new();
        x.bind(s, e1);
        x.bind(t, e2);
        x.route(m, vec![e1, bus, e2]);
        spec.validate_implementation(&x).unwrap();
        assert_eq!(x.binding_of(s), Some(e1));
        assert_eq!(x.tasks_on(e1).count(), 1);
    }

    #[test]
    fn detects_unbound_task() {
        let (spec, s, _, _, e1, ..) = spec();
        let mut x = Implementation::new();
        x.bind(s, e1);
        assert!(matches!(
            spec.validate_implementation(&x),
            Err(ValidateError::UnboundTask(_))
        ));
    }

    #[test]
    fn detects_unrouted_message() {
        let (spec, s, t, _, e1, _, e2) = spec();
        let mut x = Implementation::new();
        x.bind(s, e1);
        x.bind(t, e2);
        assert_eq!(
            spec.validate_implementation(&x),
            Err(ValidateError::UnroutedMessage(MessageId::from_index(0)))
        );
    }

    #[test]
    fn detects_broken_route() {
        let (spec, s, t, m, e1, _, e2) = spec();
        let mut x = Implementation::new();
        x.bind(s, e1);
        x.bind(t, e2);
        x.route(m, vec![e1, e2]); // not adjacent
        assert_eq!(
            spec.validate_implementation(&x),
            Err(ValidateError::BrokenRoute(m))
        );
    }

    #[test]
    fn detects_illegal_binding() {
        let (spec, s, t, m, e1, bus, e2) = spec();
        let mut x = Implementation::new();
        x.bind(s, e2); // e2 is not a mapping option of s
        x.bind(t, e2);
        x.route(m, vec![e2]);
        assert!(matches!(
            spec.validate_implementation(&x),
            Err(ValidateError::IllegalBinding(..))
        ));
        let _ = (e1, bus);
    }

    #[test]
    fn spec_validation_catches_bus_mapping() {
        let (mut spec, s, ..) = spec();
        let bus = spec
            .architecture
            .of_kind(ResourceKind::CanBus)
            .next()
            .unwrap();
        spec.add_mapping(s, bus);
        assert!(matches!(spec.validate(), Err(ValidateError::MapToBus(..))));
    }

    #[test]
    fn num_mappings_counts_edges() {
        let (spec, ..) = spec();
        assert_eq!(spec.num_mappings(), 2);
    }
}
