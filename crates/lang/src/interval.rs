//! Interval analysis of requirements — the wizard's shard-pruning oracle.
//!
//! With the status database sharded by /24 subnet (crate
//! `smartsock-monitor`), each shard carries a summary of per-variable value
//! ranges over its rows. Before descending into a shard the wizard asks:
//! *could any host whose variables lie inside these ranges qualify?* This
//! module answers that question by running the requirement's compiled
//! program — the one [`crate::Evaluator`] runs per host — over intervals
//! instead of numbers.
//!
//! The analysis is a sound over-approximation of [`crate::Evaluator`]:
//!
//! * [`may_qualify`] returning `false` guarantees that **no** host whose
//!   server variables fall within the provided ranges can qualify — either
//!   some logical statement is definitely false for every such host, or
//!   some statement raises an execution error for every such host;
//! * returning `true` promises nothing — the shard must still be scanned
//!   row by row.
//!
//! Soundness rests on a three-point lattice: a sub-expression evaluates to
//! a closed interval (`Num`), to anything at all (`Any`, used for unknown
//! variables and non-monotone builtins), or to a guaranteed execution
//! error (`Fail`, e.g. a network-address literal in a numeric position).
//! Variable correlation is deliberately ignored (`x - x` spans `[-w, w]`,
//! not `[0, 0]`), which only ever widens intervals and therefore only ever
//! *suppresses* pruning, never causes a wrong prune. What the parser folded
//! to a literal — a `^` or a builtin call included — is a point here. The
//! flat-scan equivalence is property-tested in crate `smartsock-wizard`.

use std::collections::BTreeMap;

use crate::eval::{slots, FRAME_STACK, FRAME_TEMPS};
use crate::program::{BinOp, Op, Requirement};
use crate::vars::ServerVar;

/// Supplies per-variable value ranges for a *population* of hosts (one
/// status-database shard, in the wizard).
///
/// The contract: `Some((lo, hi))` asserts that **every** host in the
/// population resolves `name` to a value within `[lo, hi]` (inclusive);
/// `None` means the variable is unknown here — individual hosts may
/// resolve it to any value or fail to resolve it at all.
pub trait RangeProvider {
    fn range(&self, name: &str) -> Option<(f64, f64)>;
}

/// `RangeProvider` backed by a map — for tests and the harness.
#[derive(Clone, Debug, Default)]
pub struct MapRanges {
    pub ranges: BTreeMap<String, (f64, f64)>,
}

impl MapRanges {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with(mut self, name: &str, lo: f64, hi: f64) -> Self {
        self.ranges.insert(name.to_owned(), (lo, hi));
        self
    }
}

impl RangeProvider for MapRanges {
    fn range(&self, name: &str) -> Option<(f64, f64)> {
        self.ranges.get(name).copied()
    }
}

/// Abstract value of a sub-expression over a host population.
#[derive(Clone, Copy, Debug, PartialEq)]
enum IVal {
    /// Every host's value lies in `[lo, hi]` (lo <= hi, both finite or
    /// infinite but never NaN).
    Num(f64, f64),
    /// Nothing is known: any value, or an error, per host.
    Any,
    /// Evaluation raises an execution error for every host.
    Fail,
}

impl IVal {
    fn point(v: f64) -> IVal {
        IVal::num(v, v)
    }

    /// Build a `Num`, demoting NaN bounds (e.g. from `0 * inf`) to `Any`.
    fn num(lo: f64, hi: f64) -> IVal {
        if lo.is_nan() || hi.is_nan() {
            IVal::Any
        } else {
            IVal::Num(lo.min(hi), lo.max(hi))
        }
    }

    /// True when every host's value is nonzero.
    fn definitely_true(self) -> bool {
        matches!(self, IVal::Num(lo, hi) if lo > 0.0 || hi < 0.0)
    }

    /// True when every host's value is exactly zero.
    fn definitely_false(self) -> bool {
        matches!(self, IVal::Num(lo, hi) if lo == 0.0 && hi == 0.0)
    }
}

/// The `[0, 1]` interval: some hosts may pass, some may not.
const MAYBE: IVal = IVal::Num(0.0, 1.0);

fn bool_ival(definitely: bool, impossible: bool) -> IVal {
    if definitely {
        IVal::point(1.0)
    } else if impossible {
        IVal::point(0.0)
    } else {
        MAYBE
    }
}

/// Could any host whose variables satisfy `ranges` qualify under `req`?
///
/// Returns `false` only when the answer is a provable *no* — the caller
/// may then skip the whole population without changing which servers the
/// flat per-host scan would have selected.
pub fn may_qualify(req: &Requirement, ranges: &dyn RangeProvider) -> bool {
    let prog = &req.program;
    let (mut stack, mut temps) = ([IVal::Any; FRAME_STACK], [IVal::Any; FRAME_TEMPS]);
    let (mut big_stack, mut big_temps) = (Vec::new(), Vec::new());
    // One abstract value per temp slot: the constant it shadows, until assigned.
    let temps = slots(&mut temps, &mut big_temps, prog.temps.len(), IVal::Any);
    for (slot, (_, shadowed)) in temps.iter_mut().zip(&prog.temps) {
        *slot = shadowed.map_or(IVal::Any, IVal::point);
    }
    let server =
        |var: ServerVar| ranges.range(var.name()).map_or(IVal::Any, |(lo, hi)| IVal::num(lo, hi));
    for (ops, logical) in prog.statements() {
        let stack = slots(&mut stack, &mut big_stack, ops.len(), IVal::Any);
        // `stack[..sp]` is live, as in the interpreter.
        let mut sp = 0usize;
        let pop = |stack: &[IVal], sp: &mut usize| {
            *sp = sp.saturating_sub(1);
            stack.get(*sp).copied().unwrap_or(IVal::Any)
        };
        for op in ops {
            let value = match op {
                Op::Num(n) => IVal::point(*n),
                // A variable with no range here is `Any`, not `Fail`: the
                // provider may simply not track it (e.g. security/monitor
                // variables) even though per-host lookup resolves it.
                Op::Server(var) => server(*var),
                Op::ServerBin(var, op, c) => binary_ival(*op, server(*var), IVal::point(*c)),
                Op::Temp(slot) => temps.get(usize::from(*slot)).copied().unwrap_or(IVal::Any),
                Op::Store(slot) => {
                    let v = pop(stack, &mut sp);
                    if let Some(t) = temps.get_mut(usize::from(*slot)) {
                        *t = v;
                    }
                    v
                }
                Op::Neg => match pop(stack, &mut sp) {
                    IVal::Num(lo, hi) => IVal::num(-hi, -lo),
                    other => other,
                },
                // Builtins are total over f64; no attempt at monotonicity.
                Op::Call(_) => {
                    pop(stack, &mut sp);
                    IVal::Any
                }
                Op::Bin(op) => {
                    let b = pop(stack, &mut sp);
                    binary_ival(*op, pop(stack, &mut sp), b)
                }
                Op::Fail(_) => IVal::Fail,
            };
            // Concrete evaluation stops at the first error, so a definite
            // error anywhere in a statement errors it for every host — and
            // execerror disqualifies.
            if value == IVal::Fail {
                return false;
            }
            if let Some(top) = stack.get_mut(sp) {
                *top = value;
            }
            sp += 1;
        }
        if logical && pop(stack, &mut sp).definitely_false() {
            return false;
        }
    }
    true
}

fn binary_ival(op: BinOp, a: IVal, b: IVal) -> IVal {
    use BinOp::*;
    // Logical connectives first: they can conclude even when one side is
    // `Any` (false && anything is false; true || anything is true).
    match op {
        And => {
            return bool_ival(
                a.definitely_true() && b.definitely_true(),
                a.definitely_false() || b.definitely_false(),
            );
        }
        Or => {
            return bool_ival(
                a.definitely_true() || b.definitely_true(),
                a.definitely_false() && b.definitely_false(),
            );
        }
        _ => {}
    }
    let (IVal::Num(alo, ahi), IVal::Num(blo, bhi)) = (a, b) else {
        // Arithmetic with an unknown side is unknown; comparisons with an
        // unknown side may go either way.
        return if op.is_logical() { MAYBE } else { IVal::Any };
    };
    match op {
        Lt => bool_ival(ahi < blo, alo >= bhi),
        Le => bool_ival(ahi <= blo, alo > bhi),
        Gt => bool_ival(alo > bhi, ahi <= blo),
        Ge => bool_ival(alo >= bhi, ahi < blo),
        Eq => bool_ival(alo == ahi && blo == bhi && alo == blo, ahi < blo || bhi < alo),
        Ne => bool_ival(ahi < blo || bhi < alo, alo == ahi && blo == bhi && alo == blo),
        Add => IVal::num(alo + blo, ahi + bhi),
        Sub => IVal::num(alo - bhi, ahi - blo),
        Mul => {
            let p = [alo * blo, alo * bhi, ahi * blo, ahi * bhi];
            IVal::num(
                p.iter().copied().fold(f64::INFINITY, f64::min),
                p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        }
        Div => {
            if blo == 0.0 && bhi == 0.0 {
                // Every host divides by zero: execerror.
                IVal::Fail
            } else if blo <= 0.0 && 0.0 <= bhi {
                // Some hosts may error, others may produce huge values.
                IVal::Any
            } else {
                let q = [alo / blo, alo / bhi, ahi / blo, ahi / bhi];
                IVal::num(
                    q.iter().copied().fold(f64::INFINITY, f64::min),
                    q.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            }
        }
        Pow => IVal::Any,
        And | Or => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::eval::{Evaluator, MapVars};

    fn may(src: &str, ranges: &MapRanges) -> bool {
        may_qualify(&compile(src).unwrap(), ranges)
    }

    fn busy_shard() -> MapRanges {
        MapRanges::new()
            .with("host_cpu_free", 0.05, 0.30)
            .with("host_system_load1", 1.5, 4.0)
            .with("host_memory_free", 1e6, 8e6)
            .with("host_cpu_bogomips", 1730.15, 3591.37)
    }

    fn idle_shard() -> MapRanges {
        MapRanges::new()
            .with("host_cpu_free", 0.92, 0.99)
            .with("host_system_load1", 0.0, 0.2)
            .with("host_memory_free", 1e8, 4e8)
            .with("host_cpu_bogomips", 3394.76, 4771.02)
    }

    #[test]
    fn prunes_definitely_false_comparisons() {
        assert!(!may("host_cpu_free > 0.9\n", &busy_shard()));
        assert!(!may("host_system_load1 < 1\n", &busy_shard()));
        assert!(may("host_cpu_free > 0.9\n", &idle_shard()));
    }

    #[test]
    fn overlapping_ranges_never_prune() {
        let straddling = MapRanges::new().with("host_cpu_free", 0.5, 0.95);
        assert!(may("host_cpu_free > 0.9\n", &straddling));
        assert!(may("host_cpu_free < 0.9\n", &straddling));
    }

    #[test]
    fn boundary_comparisons_respect_inclusiveness() {
        let point = MapRanges::new().with("host_cpu_free", 0.9, 0.9);
        assert!(!may("host_cpu_free > 0.9\n", &point));
        assert!(may("host_cpu_free >= 0.9\n", &point));
        assert!(!may("host_cpu_free < 0.9\n", &point));
        assert!(may("host_cpu_free <= 0.9\n", &point));
        assert!(may("host_cpu_free == 0.9\n", &point));
        assert!(!may("host_cpu_free != 0.9\n", &point));
    }

    #[test]
    fn unknown_variables_block_pruning() {
        // Security/monitor variables are not range-tracked; the shard must
        // be scanned because individual hosts may satisfy the statement.
        assert!(may("host_security_level >= 3\n", &busy_shard()));
        assert!(may("monitor_network_bw > 50\n", &busy_shard()));
        assert!(may("host_cpu_free > 0.9 || host_security_level >= 3\n", &busy_shard()));
    }

    #[test]
    fn conjunction_prunes_when_either_side_is_impossible() {
        let r = busy_shard();
        assert!(!may("(host_cpu_free > 0.9) && (host_security_level >= 3)\n", &r));
        assert!(!may("(host_security_level >= 3) && (host_cpu_free > 0.9)\n", &r));
        assert!(may("(host_cpu_bogomips > 2000) && (host_memory_free > 2*1000*1000)\n", &r));
    }

    #[test]
    fn disjunction_requires_both_sides_impossible() {
        let r = busy_shard();
        assert!(may("(host_cpu_free > 0.9) || (host_cpu_bogomips > 3000)\n", &r));
        assert!(!may("(host_cpu_free > 0.9) || (host_system_load1 < 1)\n", &r));
    }

    #[test]
    fn arithmetic_over_intervals_is_sound() {
        let r = MapRanges::new().with("host_memory_free", 4e6, 8e6);
        // 4–8 MB free can never exceed 10 MB…
        assert!(!may("host_memory_free > 10*1024*1024\n", &r));
        // …but spans the 5 MB threshold of Table 5.3.
        assert!(may("host_memory_free > 5*1024*1024\n", &r));
        // Scaling keeps the interval honest: free/2 is 2–4 MB.
        assert!(!may("host_memory_free / 2 > 4*1024*1024\n", &r));
    }

    #[test]
    fn temp_variables_carry_intervals_between_statements() {
        let r = busy_shard();
        assert!(!may("limit = 0.5 + 0.4\nhost_cpu_free > limit\n", &r));
        assert!(may("limit = 0.5 - 0.4\nhost_cpu_free > limit\n", &r));
        // A temp derived from a server variable inherits its range.
        assert!(!may("x = host_cpu_free * 2\nx > 1\n", &r));
    }

    #[test]
    fn definite_errors_prune() {
        let r = idle_shard();
        // Every host hits the same execerror, so none can qualify.
        assert!(!may("x = 137.132.90.182 + 1\n", &r));
        assert!(!may("host_cpu_free = 1\n", &r));
        assert!(!may("frob(1) > 0\n", &r));
        assert!(!may("x = 1 / 0\n", &r));
        assert!(!may("user_denied_host1 + 1 > 0\n", &r));
    }

    #[test]
    fn possible_division_by_zero_blocks_pruning() {
        // load1 spans zero: some hosts error, some produce huge values.
        let r = MapRanges::new().with("host_system_load1", 0.0, 2.0);
        assert!(may("1 / host_system_load1 > 1000\n", &r));
    }

    #[test]
    fn builtins_and_constants_stay_conservative() {
        let r = busy_shard();
        assert!(may("sqrt(host_cpu_free) > 0.9\n", &r)); // builtins → Any
        assert!(!may("PI > 4\n", &r)); // constants are points
        assert!(may("PI > 3.14\n", &r));
    }

    #[test]
    fn pruning_sees_through_folded_literals() {
        // The parser folds a literal `^` or builtin call to a point, so the
        // analysis compares against 1, not against anything at all.
        let r = MapRanges::new().with("host_system_load5", 1.5, 4.0);
        assert!(!may("limit = log10(100) * 0.5\nhost_system_load5 < limit\n", &r));
        assert!(!may("host_system_load5 < 2^0\n", &r));
        assert!(may("host_system_load5 < 2^2\n", &r));
    }

    #[test]
    fn tautologies_and_empty_requirements_pass_everything() {
        let r = busy_shard();
        assert!(may("100 > 0\n", &r));
        assert!(may_qualify(&Requirement::empty(), &r));
        // Host-list statements are request-level and never prune.
        assert!(may("user_denied_host1 = telesto\n", &r));
        // Non-logical zero-valued statements do not disqualify.
        assert!(may("x = 0\nx * 5\n", &r));
    }

    #[test]
    fn negation_flips_intervals() {
        let r = MapRanges::new().with("host_system_load1", 1.0, 2.0);
        assert!(!may("-host_system_load1 > 0\n", &r));
        assert!(may("-host_system_load1 < 0\n", &r));
    }

    #[test]
    fn point_ranges_never_prune_a_qualifying_host() {
        // Soundness spot-check: for a one-host "shard" whose ranges are
        // exact points, a qualified verdict from the concrete evaluator
        // implies may_qualify. (The full flat≡pruned property test lives
        // in crate smartsock-wizard.)
        let cases = [
            "host_cpu_free >= 0.9\nhost_system_load1 < 1\n",
            "(host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)\n",
            "x = host_memory_free / 1024\nx > 100\n",
            "host_cpu_free > 0.9 && host_security_level >= 1\n",
            "log10(host_memory_free) > 5\n",
            "100 > 0\n",
            "limit = log10(100) * 0.5\nhost_system_load5 < limit\n",
            "host_system_load5 < 2^0\n",
        ];
        let vars = MapVars::new()
            .with("host_cpu_free", 0.95)
            .with("host_system_load1", 0.2)
            .with("host_memory_free", 2e8)
            .with("host_cpu_bogomips", 4771.02)
            .with("host_security_level", 3.0)
            .with("host_system_load5", 0.5);
        let mut points = MapRanges::new();
        for (name, v) in &vars.vars {
            points = points.with(name, *v, *v);
        }
        for src in cases {
            let req = compile(src).unwrap();
            if Evaluator::evaluate(&req, &vars).qualified {
                assert!(may_qualify(&req, &points), "wrong prune for {src:?}");
            }
        }
    }
}
