//! Comparison of recorded daemon answers with the offline engine. Answers
//! are recorded during timed phases and checked here, afterwards.

use crate::workload::Comp;
use cts_model::EventId;
use cts_store::queries::{greatest_concurrent, ClusterBackend};

/// A greatest-concurrent answer: one slot per process.
pub type GcSlots = Vec<Option<EventId>>;

/// Precedence answers that differ from the oracle (an unanswered query,
/// `None`, differs).
pub fn precedes_mismatches(
    comp: &Comp,
    pairs: &[(EventId, EventId)],
    answers: &[Option<bool>],
) -> u64 {
    let wrong = pairs
        .iter()
        .zip(answers)
        .filter(|(&(e, f), &got)| got != Some(comp.oracle.precedes(&comp.trace, e, f)))
        .count();
    // Replies that never arrived count as well.
    (wrong + pairs.len().saturating_sub(answers.len())) as u64
}

/// Greatest-concurrent answers over the *complete* trace that differ from
/// the oracle's.
pub fn gc_mismatches(comp: &Comp, events: &[EventId], answers: &[Option<GcSlots>]) -> u64 {
    let mut backend = ClusterBackend(&comp.oracle);
    let wrong = events
        .iter()
        .zip(answers)
        .filter(|(&e, got)| {
            got.as_ref() != Some(&greatest_concurrent(&mut backend, &comp.trace, e))
        })
        .count();
    (wrong + events.len().saturating_sub(answers.len())) as u64
}

/// Is a greatest-concurrent answer given against some *prefix* of the trace
/// consistent with the full trace? The greatest concurrent event within a
/// prefix is not the greatest of the whole trace, but it must be an event
/// of the right process that is concurrent with the probe, and the probe's
/// own process has no slot.
pub fn gc_live_consistent(comp: &Comp, e: EventId, slots: &GcSlots) -> bool {
    slots.len() == comp.num_processes() as usize
        && slots.iter().enumerate().all(|(q, slot)| match slot {
            None => true,
            Some(id) => {
                id.process.idx() == q
                    && q != e.process.idx()
                    && comp.trace.contains(*id)
                    && comp.oracle.concurrent(&comp.trace, e, *id)
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, spec, Sampler};

    fn small() -> Comp {
        generate(spec("long_durable").unwrap(), 1, 1.0)
            .comps
            .pop()
            .unwrap()
    }

    #[test]
    fn correct_answers_pass_and_flipped_or_missing_ones_are_counted() {
        let comp = small();
        let mut s = Sampler::new(3, 0);
        let n = comp.trace.num_events();
        let pairs: Vec<_> = (0..200).map(|_| s.pair(&comp.trace, n)).collect();
        let mut answers: Vec<Option<bool>> = pairs
            .iter()
            .map(|&(e, f)| Some(comp.oracle.precedes(&comp.trace, e, f)))
            .collect();
        assert_eq!(precedes_mismatches(&comp, &pairs, &answers), 0);
        answers[7] = answers[7].map(|v| !v);
        answers[9] = None;
        assert_eq!(precedes_mismatches(&comp, &pairs, &answers), 2);
        answers.truncate(150);
        assert_eq!(precedes_mismatches(&comp, &pairs, &answers), 52);
    }

    #[test]
    fn gc_answers_are_compared_slot_for_slot() {
        let comp = small();
        let mut s = Sampler::new(4, 1);
        let n = comp.trace.num_events();
        let events: Vec<_> = (0..20).map(|_| s.event(&comp.trace, n)).collect();
        let mut backend = ClusterBackend(&comp.oracle);
        let mut answers: Vec<Option<GcSlots>> = events
            .iter()
            .map(|&e| Some(greatest_concurrent(&mut backend, &comp.trace, e)))
            .collect();
        assert_eq!(gc_mismatches(&comp, &events, &answers), 0);
        // Every exact answer is also prefix-consistent.
        for (e, a) in events.iter().zip(&answers) {
            assert!(gc_live_consistent(&comp, *e, a.as_ref().unwrap()));
        }
        let slots = answers[0].as_mut().unwrap();
        let q = (0..slots.len()).find(|&q| slots[q].is_some()).unwrap();
        slots[q] = None;
        assert_eq!(gc_mismatches(&comp, &events, &answers), 1);
    }

    #[test]
    fn a_live_answer_naming_a_causally_related_event_is_rejected() {
        let comp = small();
        let e = comp.trace.at(comp.trace.num_events() / 2).id;
        let n = comp.num_processes() as usize;
        let mut slots: GcSlots = vec![None; n];
        assert!(gc_live_consistent(&comp, e, &slots));
        // The first event of a neighbouring process precedes a mid-trace
        // event of a stencil: not concurrent.
        let q = (e.process.idx() + 1) % n;
        let first = comp
            .trace
            .process_events(cts_model::ProcessId(q as u32))
            .next()
            .unwrap();
        assert!(comp.oracle.precedes(&comp.trace, first, e));
        slots[q] = Some(first);
        assert!(!gc_live_consistent(&comp, e, &slots));
        // A slot for the probe's own process, or a short vector, is malformed.
        let mut own: GcSlots = vec![None; n];
        own[e.process.idx()] = Some(e);
        assert!(!gc_live_consistent(&comp, e, &own));
        assert!(!gc_live_consistent(&comp, e, &vec![None; n - 1]));
    }
}
