//! Indexed max-heap over variables, ordered by (static priority, dynamic
//! activity).
//!
//! The static priority implements SAT-decoding: the MOEA genotype assigns
//! one priority per decision variable and the solver branches in that
//! order. The dynamic VSIDS activity breaks ties (and drives the search
//! when no priorities are set). Entries carry their keys inline.

/// Position of a variable that is not in the heap.
const NOT_QUEUED: u32 = u32::MAX;

/// A variable with its keys.
#[derive(Debug, Clone, Copy)]
struct Entry {
    priority: f64,
    activity: f64,
    var: u32,
}

impl Entry {
    fn better(&self, other: &Entry) -> bool {
        (self.priority, self.activity) > (other.priority, other.activity)
    }
}

/// Branching order heap. Keys are compared lexicographically:
/// static priority first, then activity.
#[derive(Debug, Default, Clone)]
pub struct VarHeap {
    heap: Vec<Entry>,
    /// Position of each variable in `heap`, or `NOT_QUEUED`.
    pos: Vec<u32>,
    /// Keys of every variable, queued or not.
    keys: Vec<Entry>,
}

impl VarHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the key arrays to `n` variables and inserts the new ones.
    pub fn grow(&mut self, n: usize) {
        while self.pos.len() < n {
            let var = self.pos.len() as u32;
            self.pos.push(NOT_QUEUED);
            self.keys.push(Entry {
                priority: 0.0,
                activity: 0.0,
                var,
            });
            self.reinsert(var as usize);
        }
    }

    /// Moves `heap[i]` up past every worse ancestor.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !entry.better(&self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Moves `heap[i]` down past every better child.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let (mut best, mut best_entry) = (i, entry);
            if l < self.heap.len() && self.heap[l].better(&best_entry) {
                (best, best_entry) = (l, self.heap[l]);
            }
            if r < self.heap.len() && self.heap[r].better(&best_entry) {
                (best, best_entry) = (r, self.heap[r]);
            }
            if best == i {
                break;
            }
            self.place(i, best_entry);
            i = best;
        }
        self.place(i, entry);
    }

    fn place(&mut self, i: usize, entry: Entry) {
        self.heap[i] = entry;
        self.pos[entry.var as usize] = i as u32;
    }

    /// Sets the static (decode) priority of a variable.
    pub fn set_static_priority(&mut self, v: usize, p: f64) {
        self.keys[v].priority = p;
        self.requeue(v);
    }

    /// Sets the dynamic (VSIDS) activity of a variable.
    pub fn set_dynamic_activity(&mut self, v: usize, a: f64) {
        self.keys[v].activity = a;
        self.requeue(v);
    }

    /// Copies the keys of `v`, if queued, into its entry and resifts it.
    fn requeue(&mut self, v: usize) {
        let i = self.pos[v];
        if i != NOT_QUEUED {
            self.heap[i as usize] = self.keys[v];
            self.sift_up(i as usize);
            self.sift_down(self.pos[v] as usize);
        }
    }

    /// Inserts a variable unless queued (after unassignment during
    /// backtracking).
    pub fn reinsert(&mut self, v: usize) {
        if self.pos[v] == NOT_QUEUED {
            self.heap.push(self.keys[v]);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Reinserts every variable (start of a solve).
    pub fn rebuild(&mut self) {
        for v in 0..self.pos.len() {
            self.reinsert(v);
        }
    }

    /// Removes and returns the best variable, or `None` when empty.
    pub fn pop_max(&mut self) -> Option<usize> {
        let top = self.heap.first()?.var as usize;
        self.pos[top] = NOT_QUEUED;
        let last = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VarHeap {
        fn len(&self) -> usize {
            self.heap.len()
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    #[test]
    fn pops_in_priority_order() {
        let mut h = VarHeap::new();
        h.grow(5);
        for (v, p) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0), (4, 2.0)] {
            h.set_static_priority(v, p);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_max()).collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn activity_breaks_ties() {
        let mut h = VarHeap::new();
        h.grow(3);
        h.set_dynamic_activity(1, 9.0);
        h.set_dynamic_activity(2, 4.0);
        assert_eq!(h.pop_max(), Some(1));
        assert_eq!(h.pop_max(), Some(2));
        assert_eq!(h.pop_max(), Some(0));
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn static_dominates_activity() {
        let mut h = VarHeap::new();
        h.grow(2);
        h.set_dynamic_activity(0, 100.0);
        h.set_static_priority(1, 0.1);
        assert_eq!(h.pop_max(), Some(1));
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut h = VarHeap::new();
        h.grow(2);
        assert_eq!(h.len(), 2);
        h.reinsert(0);
        assert_eq!(h.len(), 2);
        h.pop_max();
        h.pop_max();
        assert!(h.is_empty());
        h.rebuild();
        assert_eq!(h.len(), 2);
    }
}
