//! The executable two-level memory machines: one processor, or `p` fast
//! memories over one slow level.
//!
//! Both replay through the game's rule kernel ([`pebblyn_core::replay()`]),
//! so a schedule gets the same verdict here as from the validators.  What
//! the machines add is values, kept by an observer of the kernel and
//! checked at the end against a schedule-free reference evaluation.

use crate::energy::{EnergyModel, EnergyReport};
use crate::ops::{eval_reference, OpTable};
use pebblyn_core::{
    replay, Cdag, MachineSpec, Move, MultiMove, MultiSchedule, MultiStats, MultiTally, NodeId,
    Observer, Played, Schedule, ScheduleStats, Uni, ValidityError, Weight,
};
use std::collections::HashMap;
use std::fmt;

/// Why a schedule failed to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The schedule broke a rule of the game (the replay kernel's verdict).
    Invalid(ValidityError),
    /// An output value disagrees with the reference evaluation.
    WrongOutput {
        /// The output node.
        node: NodeId,
        /// Value the machine produced.
        got: f64,
        /// Value reference evaluation produced.
        expected: f64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Invalid(e) => write!(f, "{e}"),
            ExecError::WrongOutput {
                node,
                got,
                expected,
            } => write!(f, "output {node} = {got}, expected {expected}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execution summary: what the machine measured while running a schedule.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Weighted I/O cost incurred (the schedule's replayed cost).
    pub io_bits: Weight,
    /// Peak fast-memory occupancy in bits.
    pub peak_fast_bits: Weight,
    /// Energy breakdown.
    pub energy: EnergyReport,
    /// Final value of every sink node, keyed by node.
    pub outputs: HashMap<NodeId, f64>,
}

/// A two-level memory machine executing WRBPG schedules with real values.
#[derive(Debug, Clone)]
pub struct Machine<'a> {
    graph: &'a Cdag,
    ops: &'a OpTable,
    capacity: Weight,
    energy_model: EnergyModel,
}

impl<'a> Machine<'a> {
    /// Create a machine with `capacity` bits of fast memory.
    pub fn new(graph: &'a Cdag, ops: &'a OpTable, capacity: Weight) -> Self {
        Machine {
            graph,
            ops,
            capacity,
            energy_model: EnergyModel::default(),
        }
    }

    /// Replace the default energy model.
    pub fn with_energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// Execute `schedule` on the input environment (`inputs[v.index()]` for
    /// each source `v`; other slots ignored), checking every game rule and
    /// the weighted capacity at every step (through the replay kernel), then
    /// every output's value against a schedule-free reference evaluation.
    pub fn run(&self, schedule: &Schedule, inputs: &[f64]) -> Result<ExecReport, ExecError> {
        self.run_moves(schedule.iter(), inputs)
    }

    /// Streaming form of [`Machine::run`]: executes any move sequence
    /// without materializing it, over flat value arrays (one slot per node
    /// per memory level) beside the kernel's two residency bitsets, so no
    /// per-move hashing or allocation happens while replaying.
    pub fn run_moves(
        &self,
        moves: impl IntoIterator<Item = Move>,
        inputs: &[f64],
    ) -> Result<ExecReport, ExecError> {
        let mut obs = (
            ScheduleStats::default(),
            Values::new(self.graph, self.ops, inputs, 1),
        );
        replay(self.graph, &Uni(self.capacity), moves, &mut obs).map_err(ExecError::Invalid)?;
        let (stats, values) = obs;
        Ok(ExecReport {
            io_bits: stats.cost,
            peak_fast_bits: stats.peak_red_weight,
            energy: EnergyReport::from_profile(
                &self.energy_model,
                stats.input_cost,
                stats.output_cost,
                stats.computes,
            ),
            outputs: values.outputs(inputs)?,
        })
    }
}

/// Execution summary of a multiprocessor schedule.
#[derive(Debug, Clone)]
pub struct MultiExecReport {
    /// Both objectives and per-processor occupancy, as executed.
    pub stats: MultiStats,
    /// Energy breakdown (communication priced as a store+load of the
    /// transferred bits).
    pub energy: EnergyReport,
    /// Final value of every sink node, keyed by node.
    pub outputs: HashMap<NodeId, f64>,
}

/// A p-processor two-level memory machine executing multiprocessor WRBPG
/// schedules with real values.
#[derive(Debug, Clone)]
pub struct MultiMachine<'a> {
    graph: &'a Cdag,
    ops: &'a OpTable,
    spec: MachineSpec,
    energy_model: EnergyModel,
}

impl<'a> MultiMachine<'a> {
    /// Create a machine from a [`MachineSpec`] (per-processor capacities
    /// plus the communication price).
    pub fn new(graph: &'a Cdag, ops: &'a OpTable, spec: MachineSpec) -> Self {
        MultiMachine {
            graph,
            ops,
            spec,
            energy_model: EnergyModel::default(),
        }
    }

    /// Replace the default energy model.
    pub fn with_energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// [`Machine::run`] for the multiprocessor game: every rule and each
    /// processor's capacity at every step, then every output's value.
    pub fn run(
        &self,
        schedule: &MultiSchedule,
        inputs: &[f64],
    ) -> Result<MultiExecReport, ExecError> {
        let mut obs = (
            MultiTally::new(self.graph, &self.spec),
            Values::new(self.graph, self.ops, inputs, self.spec.num_procs()),
        );
        replay(self.graph, &self.spec, schedule.iter(), &mut obs).map_err(ExecError::Invalid)?;
        let (tally, values) = obs;
        let stats = tally.finish();
        // Comm traffic enters the energy model as a store+load of the raw
        // transferred bits (comm_cost already carries the price factor).
        let comm_raw = stats.comm_cost / self.spec.comm_price().max(1);
        Ok(MultiExecReport {
            energy: EnergyReport::from_profile(
                &self.energy_model,
                stats.input_cost + comm_raw,
                stats.output_cost + comm_raw,
                stats.computes() as usize,
            ),
            outputs: values.outputs(inputs)?,
            stats,
        })
    }
}

/// Values in slow memory and each processor's fast memory, one slot per
/// node per memory, live exactly where the kernel's bitsets hold a pebble.
struct Values<'a> {
    graph: &'a Cdag,
    ops: &'a OpTable,
    slow: Vec<f64>,
    /// Processor `q`'s slot for node `v` is `fast[q * n + v]`.
    fast: Vec<f64>,
    operands: Vec<f64>,
}

impl<'a> Values<'a> {
    /// Slow memory holding the inputs (the starting condition; a
    /// non-source slot is stored before the kernel lets it be read) and
    /// `procs` empty fast memories.
    fn new(graph: &'a Cdag, ops: &'a OpTable, inputs: &[f64], procs: usize) -> Self {
        assert_eq!(inputs.len(), graph.len(), "one input slot per node");
        Values {
            graph,
            ops,
            slow: inputs.to_vec(),
            fast: vec![0.0; procs * graph.len()],
            operands: Vec::new(),
        }
    }

    /// Every sink's final value, checked against the reference evaluation.
    fn outputs(&self, inputs: &[f64]) -> Result<HashMap<NodeId, f64>, ExecError> {
        let reference = eval_reference(self.graph, self.ops, inputs);
        let mut outputs = HashMap::new();
        for &node in self.graph.sinks() {
            let (got, expected) = (self.slow[node.index()], reference[node.index()]);
            // Written so that a NaN output fails the check.
            if (got - expected).abs() <= 1e-9 * got.abs().max(expected.abs()).max(1.0) {
                outputs.insert(node, got);
            } else {
                return Err(ExecError::WrongOutput {
                    node,
                    got,
                    expected,
                });
            }
        }
        Ok(outputs)
    }
}

impl Observer for Values<'_> {
    #[inline]
    fn observe(&mut self, p: Played) -> Option<()> {
        let n = self.graph.len();
        let at = |q: usize, v: NodeId| q * n + v.index();
        match p.mv {
            MultiMove::Load { proc, node } => self.fast[at(proc, node)] = self.slow[node.index()],
            MultiMove::Store { proc, node } => self.slow[node.index()] = self.fast[at(proc, node)],
            MultiMove::Compute { proc, node } => {
                self.operands.clear();
                let fast = &self.fast;
                let preds = self.graph.preds(node).iter();
                self.operands.extend(preds.map(|&u| fast[at(proc, u)]));
                self.fast[at(proc, node)] = self.ops.eval(node, &self.operands);
            }
            MultiMove::Delete { .. } => {}
            MultiMove::Comm { from, to, node } => {
                self.fast[at(to, node)] = self.fast[at(from, node)];
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use pebblyn_core::{validate_multi_schedule, CdagBuilder};

    /// x, y -> s = x + y
    fn add_setup() -> (Cdag, OpTable) {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let y = b.node(16, "y");
        let s = b.node(32, "s");
        b.edge(x, s);
        b.edge(y, s);
        let g = b.build().unwrap();
        let t = OpTable::new(&g, vec![Op::Input, Op::Input, Op::LinCom(vec![1.0, 1.0])]).unwrap();
        (g, t)
    }

    fn add_schedule() -> Schedule {
        Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
            Move::Store(NodeId(2)),
            Move::Delete(NodeId(0)),
            Move::Delete(NodeId(1)),
            Move::Delete(NodeId(2)),
        ])
    }

    #[test]
    fn executes_and_checks_output_values() {
        let (g, t) = add_setup();
        let m = Machine::new(&g, &t, 64);
        let report = m.run(&add_schedule(), &[2.0, 3.0, 0.0]).unwrap();
        assert_eq!(report.io_bits, 64);
        assert_eq!(report.peak_fast_bits, 64);
        assert_eq!(report.outputs[&NodeId(2)], 5.0);
        assert_eq!(report.energy.loaded_bits, 32);
        assert_eq!(report.energy.stored_bits, 32);
        assert_eq!(report.energy.computes, 1);
    }

    #[test]
    fn capacity_overflow_detected() {
        let (g, t) = add_setup();
        let m = Machine::new(&g, &t, 63);
        let err = m.run(&add_schedule(), &[2.0, 3.0, 0.0]).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Invalid(ValidityError::BudgetExceeded { used: 64, .. })
        ));
    }

    #[test]
    fn missing_operand_detected() {
        let (g, t) = add_setup();
        let m = Machine::new(&g, &t, 100);
        let s = Schedule::from_moves(vec![Move::Load(NodeId(0)), Move::Compute(NodeId(2))]);
        assert!(matches!(
            m.run(&s, &[1.0, 1.0, 0.0]).unwrap_err(),
            ExecError::Invalid(ValidityError::ComputeWithoutOperands {
                missing: NodeId(1),
                ..
            })
        ));
    }

    #[test]
    fn unstored_output_detected() {
        let (g, t) = add_setup();
        let m = Machine::new(&g, &t, 100);
        let s = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
        ]);
        assert!(matches!(
            m.run(&s, &[1.0, 1.0, 0.0]).unwrap_err(),
            ExecError::Invalid(ValidityError::StoppingConditionUnmet { sink: NodeId(2) })
        ));
    }

    #[test]
    fn load_requires_slow_residency() {
        let (g, t) = add_setup();
        let m = Machine::new(&g, &t, 100);
        let s = Schedule::from_moves(vec![Move::Load(NodeId(2))]);
        assert!(matches!(
            m.run(&s, &[1.0, 1.0, 0.0]).unwrap_err(),
            ExecError::Invalid(ValidityError::LoadWithoutBlue { step: 0, .. })
        ));
    }

    #[test]
    fn spill_and_reload_preserves_value() {
        let (g, t) = add_setup();
        let m = Machine::new(&g, &t, 64);
        let s = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Store(NodeId(0)), // redundant but legal
            Move::Delete(NodeId(0)),
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
            Move::Store(NodeId(2)),
        ]);
        let report = m.run(&s, &[7.0, -2.0, 0.0]).unwrap();
        assert_eq!(report.outputs[&NodeId(2)], 5.0);
        assert_eq!(report.io_bits, 16 + 16 + 16 + 16 + 32);
    }

    #[test]
    fn double_load_does_not_leak_capacity() {
        let (g, t) = add_setup();
        let m = Machine::new(&g, &t, 64);
        let s = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
            Move::Store(NodeId(2)),
        ]);
        let report = m.run(&s, &[1.0, 1.0, 0.0]).unwrap();
        assert_eq!(report.peak_fast_bits, 64);
    }

    /// x, y -> s = x + y; s -> t = 2s.
    fn chain_setup() -> (Cdag, OpTable) {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let y = b.node(16, "y");
        let s = b.node(32, "s");
        let t = b.node(32, "t");
        b.edge(x, s);
        b.edge(y, s);
        b.edge(s, t);
        let g = b.build().unwrap();
        let tbl = OpTable::new(
            &g,
            vec![
                Op::Input,
                Op::Input,
                Op::LinCom(vec![1.0, 1.0]),
                Op::LinCom(vec![2.0]),
            ],
        )
        .unwrap();
        (g, tbl)
    }

    #[test]
    fn uniprocessor_multi_matches_classic_machine() {
        let (g, tbl) = chain_setup();
        let single = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
            Move::Delete(NodeId(0)),
            Move::Delete(NodeId(1)),
            Move::Compute(NodeId(3)),
            Move::Store(NodeId(3)),
        ]);
        let inputs = [2.0, 3.0, 0.0, 0.0];
        let classic = Machine::new(&g, &tbl, 96).run(&single, &inputs).unwrap();
        let spec = MachineSpec::uniprocessor(96);
        let multi = MultiSchedule::from_single(&single);
        let report = MultiMachine::new(&g, &tbl, spec.clone())
            .run(&multi, &inputs)
            .unwrap();
        assert_eq!(report.stats.io_cost, classic.io_bits);
        assert_eq!(report.stats.comm_cost, 0);
        assert_eq!(report.stats.peak_red, vec![classic.peak_fast_bits]);
        assert_eq!(report.outputs[&NodeId(3)], 10.0);
        // Executed statistics agree with the validator's.
        assert_eq!(
            report.stats,
            validate_multi_schedule(&g, &spec, &multi).unwrap()
        );
    }

    #[test]
    fn comm_transfers_the_actual_value() {
        let (g, tbl) = chain_setup();
        let spec = MachineSpec::symmetric(2, 96);
        // p0 computes s, communicates it to p1, which computes and stores t.
        let sched = MultiSchedule::from_moves(vec![
            MultiMove::Load {
                proc: 0,
                node: NodeId(0),
            },
            MultiMove::Load {
                proc: 0,
                node: NodeId(1),
            },
            MultiMove::Compute {
                proc: 0,
                node: NodeId(2),
            },
            MultiMove::Comm {
                from: 0,
                to: 1,
                node: NodeId(2),
            },
            MultiMove::Compute {
                proc: 1,
                node: NodeId(3),
            },
            MultiMove::Store {
                proc: 1,
                node: NodeId(3),
            },
        ]);
        let inputs = [2.0, 3.0, 0.0, 0.0];
        let report = MultiMachine::new(&g, &tbl, spec.clone())
            .run(&sched, &inputs)
            .unwrap();
        assert_eq!(report.outputs[&NodeId(3)], 10.0);
        assert_eq!(report.stats.comm_cost, 2 * 32);
        assert_eq!(report.stats.io_cost, 16 + 16 + 32);
        assert_eq!(
            report.stats,
            validate_multi_schedule(&g, &spec, &sched).unwrap()
        );
    }

    #[test]
    fn per_processor_overflow_detected() {
        let (g, tbl) = chain_setup();
        let spec = MachineSpec::symmetric(2, 32);
        let sched = MultiSchedule::from_moves(vec![
            MultiMove::Load {
                proc: 1,
                node: NodeId(0),
            },
            MultiMove::Load {
                proc: 1,
                node: NodeId(1),
            },
            MultiMove::Compute {
                proc: 1,
                node: NodeId(2),
            },
        ]);
        let err = MultiMachine::new(&g, &tbl, spec)
            .run(&sched, &[1.0, 1.0, 0.0, 0.0])
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Invalid(ValidityError::BudgetExceeded { proc: 1, .. })
        ));
    }

    #[test]
    fn comm_requires_sender_residency() {
        let (g, tbl) = chain_setup();
        let spec = MachineSpec::symmetric(2, 96);
        let sched = MultiSchedule::from_moves(vec![MultiMove::Comm {
            from: 0,
            to: 1,
            node: NodeId(0),
        }]);
        let err = MultiMachine::new(&g, &tbl, spec)
            .run(&sched, &[1.0, 1.0, 0.0, 0.0])
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Invalid(ValidityError::CommWithoutRed { step: 0, .. })
        ));
    }
}
