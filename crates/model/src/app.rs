//! The bipartite application graph `g_T = (T ∪ C, E_T)` of the paper:
//! task vertices and message (data-dependency) vertices.

use std::fmt;

use crate::ids::{MessageId, TaskId};

/// Role of a diagnostic task (Section III-A / Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiagRole {
    /// BIST test task `b^T`: executes the session on its ECU. Carries the
    /// selected profile's characteristics.
    Test {
        /// Fault coverage `c(b)` in `[0, 1]`.
        coverage: f64,
        /// Session runtime `l(b)` in milliseconds.
        runtime_ms: f64,
        /// Encoded deterministic + response data size `s(b)` in bytes.
        data_bytes: u64,
    },
    /// BIST data task `b^D`: owns the permanent memory holding the encoded
    /// deterministic test data and response data.
    Data {
        /// Stored bytes (same as the matching test task's `data_bytes`).
        data_bytes: u64,
    },
    /// Collection task `b^R` on the gateway, gathering the fail data of all
    /// ECUs. Mandatory once diagnosis is deployed.
    Collect,
}

/// Classification of a task vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskKind {
    /// A functional application task — always mapped.
    Functional,
    /// An optional diagnostic task.
    Diagnostic(DiagRole),
}

impl TaskKind {
    /// Whether this is a diagnostic task (`d ∈ D ⊂ T`).
    pub fn is_diagnostic(self) -> bool {
        matches!(self, TaskKind::Diagnostic(_))
    }
}

/// A task vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable name.
    pub name: String,
    /// Functional or diagnostic classification.
    pub kind: TaskKind,
}

/// A message vertex: one sender, one or more receivers, with the
/// communication attributes the CAN layer needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Human-readable name.
    pub name: String,
    /// Sending task.
    pub sender: TaskId,
    /// Receiving tasks (at least one).
    pub receivers: Vec<TaskId>,
    /// Payload size in bytes (1..=8 for a single CAN frame; larger values
    /// model segmented transfers).
    pub size_bytes: u64,
    /// Period in microseconds.
    pub period_us: u64,
}

/// The application graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Application {
    tasks: Vec<Task>,
    messages: Vec<Message>,
}

impl Application {
    /// Creates an empty application graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, name: &str, kind: TaskKind) -> TaskId {
        let id = TaskId::from_index(self.tasks.len());
        self.tasks.push(Task {
            name: name.to_owned(),
            kind,
        });
        id
    }

    /// Adds a message and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `receivers` is empty or an endpoint id is out of range.
    pub fn add_message(
        &mut self,
        name: &str,
        sender: TaskId,
        receivers: &[TaskId],
        size_bytes: u64,
        period_us: u64,
    ) -> MessageId {
        assert!(
            !receivers.is_empty(),
            "a message needs at least one receiver"
        );
        assert!(sender.index() < self.tasks.len(), "unknown sender {sender}");
        for r in receivers {
            assert!(r.index() < self.tasks.len(), "unknown receiver {r}");
        }
        let id = MessageId::from_index(self.messages.len());
        self.messages.push(Message {
            name: name.to_owned(),
            sender,
            receivers: receivers.to_vec(),
            size_bytes,
            period_us,
        });
        id
    }

    /// Task lookup.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Message lookup.
    #[inline]
    pub fn message(&self, id: MessageId) -> &Message {
        &self.messages[id.index()]
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of messages.
    #[inline]
    pub fn num_messages(&self) -> usize {
        self.messages.len()
    }

    /// Iterator over all task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::from_index)
    }

    /// Iterator over all message ids.
    pub fn message_ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        (0..self.messages.len()).map(MessageId::from_index)
    }

    /// Ids of all functional tasks (`F ⊂ T`).
    pub fn functional_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids()
            .filter(|&t| !self.task(t).kind.is_diagnostic())
    }

    /// Ids of all diagnostic tasks (`D ⊂ T`).
    pub fn diagnostic_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids()
            .filter(|&t| self.task(t).kind.is_diagnostic())
    }

    /// Messages sent by `task`.
    pub fn messages_from(&self, task: TaskId) -> impl Iterator<Item = MessageId> + '_ {
        self.message_ids()
            .filter(move |&m| self.message(m).sender == task)
    }

    /// Messages received by `task`.
    pub fn messages_to(&self, task: TaskId) -> impl Iterator<Item = MessageId> + '_ {
        self.message_ids()
            .filter(move |&m| self.message(m).receivers.contains(&task))
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "application: {} tasks ({} diagnostic), {} messages",
            self.num_tasks(),
            self.diagnostic_tasks().count(),
            self.num_messages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut app = Application::new();
        let a = app.add_task("sense", TaskKind::Functional);
        let b = app.add_task("ctl", TaskKind::Functional);
        let d = app.add_task("bist", TaskKind::Diagnostic(DiagRole::Collect));
        let m = app.add_message("m", a, &[b], 4, 10_000);
        assert_eq!(app.num_tasks(), 3);
        assert_eq!(app.message(m).sender, a);
        assert_eq!(app.functional_tasks().count(), 2);
        assert_eq!(app.diagnostic_tasks().collect::<Vec<_>>(), vec![d]);
        assert_eq!(app.messages_from(a).count(), 1);
        assert_eq!(app.messages_to(b).count(), 1);
        assert_eq!(app.messages_to(a).count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one receiver")]
    fn rejects_receiverless_message() {
        let mut app = Application::new();
        let a = app.add_task("a", TaskKind::Functional);
        app.add_message("m", a, &[], 1, 1000);
    }

    #[test]
    fn display_counts() {
        let mut app = Application::new();
        app.add_task("a", TaskKind::Functional);
        assert!(app.to_string().contains("1 tasks"));
    }

    #[test]
    fn diag_role_carries_profile() {
        let role = DiagRole::Test {
            coverage: 0.99,
            runtime_ms: 4.87,
            data_bytes: 2_399_185,
        };
        if let DiagRole::Test { coverage, .. } = role {
            assert!((coverage - 0.99).abs() < 1e-12);
        } else {
            panic!("wrong role");
        }
    }
}
