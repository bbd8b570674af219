//! The [`Module`] trait — the unit of composition in the simulation kernel.

use crate::resources::ResourceUsage;

/// A synchronous hardware module.
///
/// # Contract
///
/// * [`Module::eval`] computes combinational outputs from input wires and
///   registered state. The simulator calls it one or more times per cycle
///   (delta passes) until the design settles, so it **must be idempotent**:
///   given unchanged wires and state it must drive the same values and must
///   not mutate architectural state (registers, memories, counters).
/// * [`Module::commit`] latches next state. It runs **exactly once** per
///   cycle, after evaluation has converged; all register ticks, memory
///   writes and statistics updates belong here.
pub trait Module {
    /// Stable instance name, used in error messages and traces.
    fn name(&self) -> &str;

    /// Combinational evaluation (may run several times per cycle).
    fn eval(&mut self, cycle: u64);

    /// State commit (runs once per cycle, after convergence).
    fn commit(&mut self, cycle: u64);

    /// Resources the synthesised equivalent of this module would occupy.
    ///
    /// The default is zero, appropriate for testbench-only components such
    /// as stream sources/sinks that have no hardware counterpart.
    fn resources(&self) -> ResourceUsage {
        ResourceUsage::ZERO
    }

    /// Declares this module's telemetry probes; called once when a
    /// [`ProbeRegistry`](crate::telemetry::ProbeRegistry) is attached to
    /// the simulator (and again for modules added later). The default
    /// registers nothing.
    fn register_probes(&self, _reg: &mut crate::telemetry::ProbeRegistry) {}

    /// Samples this module's probes for `cycle`. Runs once per cycle after
    /// every [`Module::commit`], when all values have settled. Must not
    /// mutate architectural state. The default samples nothing.
    fn sample_probes(&self, _cycle: u64, _reg: &mut crate::telemetry::ProbeRegistry) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        evals: u32,
        commits: u32,
    }

    impl Module for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn eval(&mut self, _cycle: u64) {
            self.evals += 1;
        }
        fn commit(&mut self, _cycle: u64) {
            self.commits += 1;
        }
    }

    #[test]
    fn default_resources_are_zero() {
        let p = Probe {
            evals: 0,
            commits: 0,
        };
        assert!(p.resources().is_zero());
    }

    #[test]
    fn trait_object_dispatch() {
        let mut p: Box<dyn Module> = Box::new(Probe {
            evals: 0,
            commits: 0,
        });
        p.eval(0);
        p.commit(0);
        assert_eq!(p.name(), "probe");
    }
}
