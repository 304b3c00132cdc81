//! Big-stack helper for deeply recursive dynamic programs.
//!
//! The tree DP and its traceback recurse to the depth of the input tree.
//! DWT trees are logarithmic, but k-ary trees admit degenerate chains
//! (`k = 1`) whose depth equals the node count; running the recursion on a
//! dedicated thread with a large stack makes the schedulers robust to any
//! input shape without rewriting the DP as an explicit worklist.

/// Stack size used for scheduler recursions: 256 MiB.
pub const SCHEDULER_STACK_BYTES: usize = 256 * 1024 * 1024;

/// Run `f` on a thread with [`SCHEDULER_STACK_BYTES`] of stack and return its
/// result.
///
/// Panics propagate to the caller (the join unwraps), preserving test
/// behaviour.
pub fn with_large_stack<T, F>(f: F) -> T
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("pebblyn-scheduler".into())
            .stack_size(SCHEDULER_STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("failed to spawn scheduler thread")
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_value() {
        assert_eq!(with_large_stack(|| 21 * 2), 42);
    }

    #[test]
    fn survives_deep_recursion() {
        fn depth(n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                1 + depth(n - 1)
            }
        }
        // ~1M frames would overflow a default 8 MiB stack.
        let d = with_large_stack(|| depth(1_000_000));
        assert_eq!(d, 1_000_000);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        with_large_stack(|| panic!("boom"));
    }
}
