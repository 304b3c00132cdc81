//! One verdict per rule, whatever replays the schedule.
//!
//! Each row breaks exactly one rule of the game.  The row goes to every
//! entry point that replays schedules — both validators, both machines and
//! the occupancy trace — and each must return the same [`ValidityError`]:
//! same variant, step, move and node.  Uniprocessor rows reach the
//! multiprocessor entry points as their lift onto processor 0 of a
//! one-processor machine.

use pebblyn_core::{
    occupancy_trace, validate_moves, validate_multi_schedule, Cdag, CdagBuilder, MachineSpec, Move,
    MultiMove, MultiSchedule, NodeId, ProcBudget, Schedule, ValidityError, Weight,
};
use pebblyn_machine::{ExecError, Machine, MultiMachine, Op, OpTable};

/// x, y -> s = x + y, weighted 16/16/32 bits, or with `heavy` 2^62/1/1.
fn add(heavy: bool) -> (Cdag, OpTable) {
    let [wx, wy, ws] = if heavy { [1 << 62, 1, 1] } else { [16, 16, 32] };
    let mut b = CdagBuilder::new();
    let x = b.node(wx, "x");
    let y = b.node(wy, "y");
    let s = b.node(ws, "s");
    b.edge(x, s);
    b.edge(y, s);
    let g = b.build().unwrap();
    let ops = OpTable::new(&g, vec![Op::Input, Op::Input, Op::LinCom(vec![1.0, 1.0])]).unwrap();
    (g, ops)
}

const X: NodeId = NodeId(0);
const Y: NodeId = NodeId(1);
const S: NodeId = NodeId(2);

fn on(proc: usize, mv: Move) -> MultiMove {
    MultiMove::from_single(mv, proc)
}

struct Row {
    rule: &'static str,
    heavy: bool,
    /// One budget per processor.
    budgets: Vec<Weight>,
    moves: Vec<MultiMove>,
    want: ValidityError,
}

fn uni(rule: &'static str, budget: Weight, moves: &[Move], want: ValidityError) -> Row {
    Row {
        rule,
        heavy: false,
        budgets: vec![budget],
        moves: moves.iter().map(|&m| on(0, m)).collect(),
        want,
    }
}

fn dual(rule: &'static str, moves: Vec<MultiMove>, want: ValidityError) -> Row {
    Row {
        rule,
        heavy: false,
        budgets: vec![64, 64],
        moves,
        want,
    }
}

fn rows() -> Vec<Row> {
    use Move::*;
    use ValidityError::*;
    let comm = |from, to, node| MultiMove::Comm { from, to, node };
    vec![
        uni(
            "M1 without blue",
            64,
            &[Load(S)],
            LoadWithoutBlue {
                step: 0,
                mv: on(0, Load(S)),
            },
        ),
        uni(
            "M2 without red",
            64,
            &[Load(X), Store(Y)],
            StoreWithoutRed {
                step: 1,
                mv: on(0, Store(Y)),
            },
        ),
        uni(
            "M4 without red",
            64,
            &[Delete(X)],
            DeleteWithoutRed {
                step: 0,
                mv: on(0, Delete(X)),
            },
        ),
        uni(
            "M3 on a source",
            64,
            &[Compute(Y)],
            ComputeSource {
                step: 0,
                mv: on(0, Compute(Y)),
            },
        ),
        uni(
            "M3 with a missing operand",
            64,
            &[Load(X), Compute(S)],
            ComputeWithoutOperands {
                step: 1,
                mv: on(0, Compute(S)),
                missing: Y,
            },
        ),
        uni(
            "budget exceeded",
            63,
            &[Load(X), Load(Y), Compute(S), Store(S)],
            BudgetExceeded {
                step: 2,
                mv: on(0, Compute(S)),
                proc: 0,
                used: 64,
                budget: 63,
            },
        ),
        uni(
            "sink not blue at the end",
            64,
            &[Load(X), Load(Y), Compute(S), Delete(X)],
            StoppingConditionUnmet { sink: S },
        ),
        Row {
            rule: "cost sum past u64::MAX",
            heavy: true,
            budgets: vec![Weight::MAX],
            // Four loads of the 2^62-bit x already cost 2^64.
            moves: [
                Load(X),
                Load(X),
                Load(X),
                Load(X),
                Load(Y),
                Compute(S),
                Store(S),
            ]
            .map(|m| on(0, m))
            .to_vec(),
            want: WeightOverflow {
                step: 3,
                mv: on(0, Load(X)),
            },
        },
        dual(
            "unknown processor",
            vec![on(0, Load(X)), on(2, Load(Y))],
            UnknownProc {
                step: 1,
                mv: on(2, Load(Y)),
                procs: 2,
            },
        ),
        dual(
            "Comm without red",
            vec![on(0, Load(X)), comm(1, 0, X)],
            CommWithoutRed {
                step: 1,
                mv: comm(1, 0, X),
            },
        ),
        dual(
            "Comm to self",
            vec![on(1, Load(X)), comm(1, 1, X)],
            CommToSelf {
                step: 1,
                mv: comm(1, 1, X),
            },
        ),
    ]
}

fn invalid<T: std::fmt::Debug>(r: Result<T, ExecError>) -> ValidityError {
    match r {
        Err(ExecError::Invalid(e)) => e,
        other => panic!("expected a rule verdict, got {other:?}"),
    }
}

#[test]
fn every_replayer_returns_the_same_verdict_for_each_rule() {
    for row in rows() {
        let (g, ops) = add(row.heavy);
        let inputs = vec![1.0; g.len()];
        let spec = MachineSpec::new(row.budgets.iter().map(|&b| ProcBudget::new(b)).collect());
        let multi = MultiSchedule::from_moves(row.moves.clone());
        let rule = row.rule;

        assert_eq!(
            validate_multi_schedule(&g, &spec, &multi).unwrap_err(),
            row.want,
            "validate_multi_schedule: {rule}"
        );
        assert_eq!(
            invalid(MultiMachine::new(&g, &ops, spec.clone()).run(&multi, &inputs)),
            row.want,
            "MultiMachine::run: {rule}"
        );

        let Some(single) = multi.project_single() else {
            assert!(
                row.budgets.len() > 1,
                "{rule}: only p = 2 rows may not project"
            );
            continue;
        };
        let budget = row.budgets[0];
        assert_eq!(
            validate_moves(&g, budget, single.iter()).unwrap_err(),
            row.want,
            "validate_moves: {rule}"
        );
        assert_eq!(
            invalid(Machine::new(&g, &ops, budget).run_moves(single.iter(), &inputs)),
            row.want,
            "Machine::run_moves: {rule}"
        );
        check_trace(&g, &single, &row.want, rule);
    }
}

/// The occupancy trace replays under an unbounded budget and keeps no
/// cost sums, so it has no budget to exceed and nothing to overflow: on
/// those two rows it must accept the schedule, and on the budget row show
/// the over-budget occupancy as its peak.  Every other row gets the
/// verdict.
fn check_trace(g: &Cdag, single: &Schedule, want: &ValidityError, rule: &str) {
    match *want {
        ValidityError::BudgetExceeded { used, .. } => {
            let trace = occupancy_trace(g, single).expect("no budget to exceed");
            assert_eq!(trace.iter().max(), Some(&used), "occupancy_trace: {rule}");
        }
        ValidityError::WeightOverflow { .. } => {
            assert!(
                occupancy_trace(g, single).is_ok(),
                "occupancy_trace: {rule}"
            );
        }
        _ => assert_eq!(
            occupancy_trace(g, single).unwrap_err(),
            *want,
            "occupancy_trace: {rule}"
        ),
    }
}
