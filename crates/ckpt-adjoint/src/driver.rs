//! Adjoint drivers: revolve-with-slots vs store-everything-deduplicated.
//!
//! Two ways to give the backward sweep its forward states:
//!
//! * [`run_revolve`] — the classic: `c` in-memory snapshot slots and
//!   binomial recomputation (forward steps re-executed many times);
//! * [`run_dedup_store`] — the paper's alternative: checkpoint *every* step
//!   into a de-duplicated record and read states back in reverse order with
//!   zero recomputation. Consecutive solver states differ incrementally, so
//!   the record stays near one state in size instead of `l` states.
//!
//! Both produce bit-identical gradients (asserted by tests); they differ in
//! the resources spent, which [`AdjointReport`] captures and the `adjoint`
//! experiment compares.

use crate::revolve::{schedule, validate, Action};
use crate::solver::{HeatModel, State};
use ckpt_dedup::prelude::*;
use gpu_sim::Device;
use std::collections::HashMap;

/// Resource accounting for one adjoint run.
#[derive(Debug, Clone)]
pub struct AdjointReport {
    /// Gradient with respect to the initial state.
    pub gradient: State,
    /// Forward steps executed in total.
    pub forward_steps: u64,
    /// Adjoint steps executed (always `l`).
    pub backward_steps: u64,
    /// Peak bytes held by the state store.
    pub peak_store_bytes: u64,
}

/// Reverse `l` steps with the binomial schedule and `c` snapshot slots.
pub fn run_revolve(model: &HeatModel, u0: &State, l: usize, c: usize) -> Option<AdjointReport> {
    let actions = schedule(l, c)?;
    debug_assert!(validate(l, c, &actions).is_ok());

    let state_bytes = (model.params.n * 8) as u64;
    let mut slots: HashMap<usize, State> = HashMap::new();
    let mut current: State = u0.clone();
    let mut current_idx = 0usize;
    let mut lambda: Option<State> = None;
    let mut forward_steps = 0u64;
    let mut backward_steps = 0u64;
    let mut peak_slots = 0usize;
    // The state before the most recent unit-length Forward: every Backward
    // in a treeverse schedule is fed by exactly such a Forward, and this is
    // the state the adjoint step linearizes around.
    let mut before_last_step: Option<State> = None;

    for action in &actions {
        match *action {
            Action::Store { state } => {
                debug_assert_eq!(state, current_idx);
                slots.insert(state, current.clone());
                peak_slots = peak_slots.max(slots.len());
            }
            Action::Restore { state } => {
                current = slots.get(&state).expect("validated schedule").clone();
                current_idx = state;
            }
            Action::Discard { state } => {
                slots.remove(&state);
            }
            Action::Forward { from, to } => {
                debug_assert_eq!(from, current_idx);
                before_last_step = (to - from == 1).then(|| current.clone());
                current = model.advance(&current, to - from);
                current_idx = to;
                forward_steps += (to - from) as u64;
            }
            Action::Backward { step } => {
                debug_assert_eq!(step + 1, current_idx);
                let lam = match lambda.take() {
                    Some(l) => l,
                    None => model.adjoint_seed(&current),
                };
                // The adjoint of step `step` linearizes around state `step` —
                // exactly what the preceding unit Forward started from.
                let u_before = before_last_step
                    .take()
                    .expect("treeverse feeds every Backward with a unit Forward");
                lambda = Some(model.adjoint_step(&lam, &u_before));
                backward_steps += 1;
                // The sweep continues from state `step`; the next
                // Restore/Forward re-establishes the concrete data.
                current_idx = step;
            }
        }
    }

    Some(AdjointReport {
        gradient: lambda.expect("l >= 1 schedules run at least one adjoint step"),
        forward_steps,
        backward_steps,
        peak_store_bytes: peak_slots as u64 * state_bytes,
    })
}

/// Reverse `l` steps by checkpointing every forward state into a
/// de-duplicated Tree record and reading them back in reverse. No
/// recomputation; the store cost is the (compacted) record.
pub fn run_dedup_store(
    model: &HeatModel,
    u0: &State,
    l: usize,
    chunk_size: usize,
) -> AdjointReport {
    let device = Device::a100();
    let mut ckpt = TreeCheckpointer::new(device.clone(), TreeConfig::new(chunk_size));

    // Forward sweep: checkpoint state 0..=l as versions 0..=l.
    let mut diffs = Vec::with_capacity(l + 1);
    let mut current = u0.clone();
    let mut forward_steps = 0u64;
    diffs.push(ckpt.checkpoint(&HeatModel::state_bytes(&current)).diff);
    for _ in 0..l {
        current = model.step(&current);
        forward_steps += 1;
        diffs.push(ckpt.checkpoint(&HeatModel::state_bytes(&current)).diff);
    }
    let record_bytes: u64 = diffs.iter().map(|d| d.stored_bytes() as u64).sum();

    // Backward sweep: one single-pass restore per state, in reverse order.
    let mut lambda = model.adjoint_seed(&current);
    let mut backward_steps = 0u64;
    for step in (0..l).rev() {
        let (bytes, _) =
            restore_version_single_pass(&device, 0, &diffs, step).expect("well-formed record");
        let u_before = HeatModel::state_from_bytes(&bytes).expect("valid state");
        lambda = model.adjoint_step(&lambda, &u_before);
        backward_steps += 1;
    }

    AdjointReport {
        gradient: lambda,
        forward_steps,
        backward_steps,
        peak_store_bytes: record_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::HeatParams;

    fn model() -> HeatModel {
        // A wide domain keeps the pulse's support — and therefore the dirty
        // chunks — local for the step counts the tests use.
        HeatModel::new(HeatParams::new(512))
    }

    #[test]
    fn revolve_and_dedup_store_agree_exactly() {
        let m = model();
        let u0 = m.initial_state();
        let l = 20;
        let dedup = run_dedup_store(&m, &u0, l, 64);
        for c in [1usize, 2, 4, l] {
            let rev = run_revolve(&m, &u0, l, c).unwrap();
            assert_eq!(rev.gradient, dedup.gradient, "c={c}");
            assert_eq!(rev.backward_steps, l as u64);
        }
    }

    #[test]
    fn revolve_forward_cost_matches_schedule_optimum() {
        let m = model();
        let u0 = m.initial_state();
        let l = 16;
        for c in [1usize, 2, 3, 8] {
            let rev = run_revolve(&m, &u0, l, c).unwrap();
            assert_eq!(
                rev.forward_steps,
                crate::revolve::optimal_cost(l, c).unwrap(),
                "c={c}"
            );
        }
    }

    #[test]
    fn dedup_store_never_recomputes_and_stays_compact() {
        let m = model();
        let u0 = m.initial_state();
        let l = 30;
        let rep = run_dedup_store(&m, &u0, l, 64);
        assert_eq!(rep.forward_steps, l as u64, "no recomputation");
        // The record of l+1 compact-support states must be far smaller than
        // storing them all raw.
        let raw_all = ((l + 1) * m.params.n * 8) as u64;
        assert!(
            rep.peak_store_bytes < raw_all / 2,
            "record {} vs raw {}",
            rep.peak_store_bytes,
            raw_all
        );
    }

    #[test]
    fn gradient_matches_finite_differences_through_the_record() {
        // The full pipeline (checkpoint every state → restore in reverse
        // order → adjoint) must produce the true gradient.
        let m = HeatModel::new(HeatParams::new(20));
        let u0 = m.initial_state();
        let l = 10;
        let rep = run_dedup_store(&m, &u0, l, 32);
        let eps = 1e-6;
        for i in [0usize, 7, 19] {
            let mut up = u0.clone();
            up[i] += eps;
            let mut dn = u0.clone();
            dn[i] -= eps;
            let fd =
                (m.objective(&m.advance(&up, l)) - m.objective(&m.advance(&dn, l))) / (2.0 * eps);
            assert!(
                (fd - rep.gradient[i]).abs() <= 1e-5 * (1.0 + fd.abs()),
                "grad[{i}]: {} vs fd {fd}",
                rep.gradient[i]
            );
        }
    }
}
