//! Vector clocks: the raw integer vectors underlying all timestamps here.

use cts_model::ProcessId;
use std::fmt;
use std::ops::Index;

/// A fixed-width vector clock over `N` processes.
///
/// Component `q` counts how many events of process `q` are in the causal past
/// of the stamped event (inclusive of the event itself on its own process).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VectorClock {
    v: Box<[u32]>,
}

impl VectorClock {
    /// The zero clock of width `n`.
    pub fn zero(n: usize) -> VectorClock {
        VectorClock {
            v: vec![0; n].into_boxed_slice(),
        }
    }

    /// Wrap an existing vector.
    pub fn from_vec(v: Vec<u32>) -> VectorClock {
        VectorClock {
            v: v.into_boxed_slice(),
        }
    }

    /// Clock width (number of processes).
    #[inline]
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Is this the zero-width clock?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Component for process `q`.
    #[inline]
    pub fn get(&self, q: ProcessId) -> u32 {
        self.v[q.idx()]
    }

    /// Set component for process `q`.
    #[inline]
    pub fn set(&mut self, q: ProcessId, val: u32) {
        self.v[q.idx()] = val;
    }

    /// Element-wise maximum: `self = max(self, other)`.
    ///
    /// This is the only O(N) operation on the Fidge/Mattern hot path; it is
    /// written as a plain zipped loop so it auto-vectorizes.
    #[inline]
    pub fn max_assign(&mut self, other: &VectorClock) {
        self.max_assign_slice(&other.v);
    }

    /// [`max_assign`](Self::max_assign) with a clock stored elsewhere (a
    /// full cluster stamp in a stamp arena).
    #[inline]
    pub fn max_assign_slice(&mut self, other: &[u32]) {
        debug_assert_eq!(self.v.len(), other.len());
        for (a, b) in self.v.iter_mut().zip(other.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Does `self <= other` hold component-wise?
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        self.v.iter().zip(other.v.iter()).all(|(a, b)| a <= b)
    }

    /// Raw components.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.v
    }

    /// Project onto an ordered list of processes: the result's `i`-th
    /// component is this clock's component for `members[i]`.
    ///
    /// This is exactly the *projection of the Fidge/Mattern timestamp over
    /// the processes in the cluster* of §2.3.
    pub fn project(&self, members: &[ProcessId]) -> Box<[u32]> {
        members.iter().map(|&q| self.v[q.idx()]).collect()
    }

    /// Sum of components (used by differential-encoding baselines).
    pub fn component_sum(&self) -> u64 {
        self.v.iter().map(|&x| x as u64).sum()
    }
}

impl Index<usize> for VectorClock {
    type Output = u32;
    #[inline]
    fn index(&self, i: usize) -> &u32 {
        &self.v[i]
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, x) in self.v.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn zero_and_set_get() {
        let mut c = VectorClock::zero(3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(p(1)), 0);
        c.set(p(1), 7);
        assert_eq!(c.get(p(1)), 7);
        assert_eq!(c.as_slice(), &[0, 7, 0]);
    }

    #[test]
    fn max_assign_is_componentwise() {
        let mut a = VectorClock::from_vec(vec![1, 5, 0]);
        let b = VectorClock::from_vec(vec![3, 2, 0]);
        a.max_assign(&b);
        assert_eq!(a.as_slice(), &[3, 5, 0]);
    }

    #[test]
    fn domination() {
        let a = VectorClock::from_vec(vec![1, 2]);
        let b = VectorClock::from_vec(vec![1, 3]);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        assert!(a.dominated_by(&a));
    }

    #[test]
    fn projection_follows_member_order() {
        let c = VectorClock::from_vec(vec![10, 20, 30, 40]);
        let proj = c.project(&[p(3), p(1)]);
        assert_eq!(&*proj, &[40, 20]);
    }

    #[test]
    fn debug_format() {
        let c = VectorClock::from_vec(vec![1, 2, 3]);
        assert_eq!(format!("{c:?}"), "(1,2,3)");
    }

    #[test]
    fn component_sum() {
        let c = VectorClock::from_vec(vec![1, 2, 3]);
        assert_eq!(c.component_sum(), 6);
    }
}
