//! Output checks, made apart from the machine: every repetition's answer
//! against the independently computed one, the run verdict, and the
//! properties each workload's method must have.

use crate::spec::Spec;
use crate::timed::FullTrace;
use splice_applicative::Value;
use splice_sim::RunReport;

/// Operations attempted and failed, and every check that did not hold.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// Counts one operation; `ok == false` when it did not complete.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// A completed run must not be stalled and must hold the expected
    /// answer. A run that did not complete is a failed operation, counted
    /// by [`Checks::attempt`].
    pub fn report(&mut self, spec: &Spec, report: &RunReport, expected: &Value) {
        if !report.completed {
            return;
        }
        if report.stalled {
            self.fail(format!("{}: completed and stalled at once", spec.name));
        }
        if report.result.as_ref() != Some(expected) {
            self.fail(format!(
                "{}: result {:?} is not the expected {expected:?}",
                spec.name, report.result
            ));
        }
    }

    /// The tree-walking reference evaluator must agree with the answer the
    /// benchmark computed itself.
    pub fn reference(&mut self, spec: &Spec, expected: &Value) {
        match spec.input.workload().reference_result() {
            Ok(v) if &v == expected => {}
            other => self.fail(format!(
                "{}: reference evaluator gave {other:?}, expected {expected:?}",
                spec.name
            )),
        }
    }

    /// Every planned fault landed, the root failed over and work was
    /// reissued — checked on the full-trace repetition of a faulted plan.
    pub fn faults_landed(&mut self, spec: &Spec, full: &FullTrace) {
        let planned = (spec.plan.events.len() + spec.plan.root_events.len()) as u64;
        if planned == 0 {
            return;
        }
        let k = &full.kinds;
        if k.faults_applied != planned || k.faults_ignored != 0 {
            self.fail(format!(
                "{}: {planned} faults planned, {} applied, {} ignored",
                spec.name, k.faults_applied, k.faults_ignored
            ));
        }
        if !spec.plan.root_events.is_empty()
            && (full.report.root_failovers == 0 || k.failovers == 0)
        {
            self.fail(format!(
                "{}: the root replica crash caused no failover",
                spec.name
            ));
        }
        if full.report.stats.reissues == 0 {
            self.fail(format!("{}: crashes caused no reissue", spec.name));
        }
    }
}
