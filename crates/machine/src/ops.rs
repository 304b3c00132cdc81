//! Arithmetic operations bound to CDAG nodes.

use pebblyn_core::{Cdag, NodeId};

/// The operation a node performs on its predecessors' values.
///
/// Operand order follows the CDAG's predecessor order.  `LinCom` covers the
/// DWT's scaled sums/differences and MVM's accumulations; `Prod` covers
/// MVM's elementwise products.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Source node: its value comes from the input environment.
    Input,
    /// Linear combination `Σ coeffs[i] · operand[i]`.
    /// `coeffs.len()` must equal the node's in-degree.
    LinCom(Vec<f64>),
    /// Product of all operands.
    Prod,
}

/// A table binding every node of a CDAG to an [`Op`].
#[derive(Clone, Debug)]
pub struct OpTable {
    ops: Vec<Op>,
}

impl OpTable {
    /// Build a table from one op per node (in node-id order).
    ///
    /// Checks arity: sources must be `Input`, `LinCom` coefficient counts
    /// must match in-degrees, `Prod` needs in-degree ≥ 1.
    pub fn new(graph: &Cdag, ops: Vec<Op>) -> Result<Self, String> {
        if ops.len() != graph.len() {
            return Err(format!(
                "op table has {} entries for {} nodes",
                ops.len(),
                graph.len()
            ));
        }
        for v in graph.nodes() {
            let op = &ops[v.index()];
            let indeg = graph.in_degree(v);
            match op {
                Op::Input => {
                    if indeg != 0 {
                        return Err(format!("non-source node {v} marked Input"));
                    }
                }
                Op::LinCom(c) => {
                    if c.len() != indeg {
                        return Err(format!(
                            "node {v}: LinCom has {} coeffs for in-degree {indeg}",
                            c.len()
                        ));
                    }
                    if indeg == 0 {
                        return Err(format!("source node {v} must be Input"));
                    }
                }
                Op::Prod => {
                    if indeg == 0 {
                        return Err(format!("source node {v} must be Input"));
                    }
                }
            }
        }
        Ok(OpTable { ops })
    }

    /// Evaluate node `v` given its operand values (in predecessor order).
    ///
    /// Panics if called on an `Input` node — inputs have no operands.
    pub fn eval(&self, v: NodeId, operands: &[f64]) -> f64 {
        match &self.ops[v.index()] {
            Op::Input => panic!("eval called on input node {v}"),
            Op::LinCom(coeffs) => coeffs.iter().zip(operands).map(|(c, x)| c * x).sum(),
            Op::Prod => operands.iter().product(),
        }
    }
}

/// Reference (schedule-free) evaluation of the whole CDAG: every node's value
/// in topological order, given the input environment `inputs[v.index()]`
/// (entries for non-source nodes are ignored).
pub fn eval_reference(graph: &Cdag, ops: &OpTable, inputs: &[f64]) -> Vec<f64> {
    assert_eq!(inputs.len(), graph.len(), "one input slot per node");
    let mut vals = vec![0.0; graph.len()];
    for &v in graph.topo_order() {
        if graph.is_source(v) {
            vals[v.index()] = inputs[v.index()];
        } else {
            let operands: Vec<f64> = graph.preds(v).iter().map(|p| vals[p.index()]).collect();
            vals[v.index()] = ops.eval(v, &operands);
        }
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::CdagBuilder;

    fn add_graph() -> Cdag {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let y = b.node(16, "y");
        let s = b.node(16, "s");
        b.edge(x, s);
        b.edge(y, s);
        b.build().unwrap()
    }

    #[test]
    fn lincom_and_prod_evaluate() {
        let g = add_graph();
        let t = OpTable::new(&g, vec![Op::Input, Op::Input, Op::LinCom(vec![1.0, -1.0])]).unwrap();
        let vals = eval_reference(&g, &t, &[5.0, 3.0, 0.0]);
        assert_eq!(vals[2], 2.0);

        let t2 = OpTable::new(&g, vec![Op::Input, Op::Input, Op::Prod]).unwrap();
        let vals2 = eval_reference(&g, &t2, &[5.0, 3.0, 0.0]);
        assert_eq!(vals2[2], 15.0);
    }

    #[test]
    fn arity_checks() {
        let g = add_graph();
        assert!(OpTable::new(&g, vec![Op::Input, Op::Input]).is_err());
        assert!(OpTable::new(&g, vec![Op::Input, Op::Input, Op::LinCom(vec![1.0])]).is_err());
        assert!(OpTable::new(&g, vec![Op::Input, Op::Prod, Op::Prod]).is_err());
        assert!(
            OpTable::new(&g, vec![Op::Input, Op::Input, Op::Input]).is_err(),
            "non-source marked Input"
        );
    }

    #[test]
    fn reference_eval_handles_depth() {
        // x -> a -> b  with a = 2x, b = 3a.
        let mut bld = CdagBuilder::new();
        let x = bld.node(16, "x");
        let a = bld.node(16, "a");
        let b = bld.node(16, "b");
        bld.edge(x, a);
        bld.edge(a, b);
        let g = bld.build().unwrap();
        let t = OpTable::new(
            &g,
            vec![Op::Input, Op::LinCom(vec![2.0]), Op::LinCom(vec![3.0])],
        )
        .unwrap();
        let vals = eval_reference(&g, &t, &[1.5, 0.0, 0.0]);
        assert_eq!(vals, vec![1.5, 3.0, 9.0]);
    }
}
