//! The simulation executor: two-phase clock stepping with delta settling.

use crate::error::SimError;
use crate::module::Module;
use crate::resources::ResourceUsage;
use crate::signal::SimCtx;
use crate::telemetry::ProbeRegistry;
use crate::SimResult;

/// Maximum delta passes per cycle before declaring a combinational loop.
/// Real designs here settle in 2–4 passes; 64 leaves generous headroom for
/// deep ready/valid chains while still catching true loops quickly.
const MAX_DELTA_PASSES: u32 = 64;

/// Owns the module list and advances simulated time.
pub struct Simulator {
    ctx: SimCtx,
    modules: Vec<Box<dyn Module>>,
    cycle: u64,
    /// Attached probe registry; `None` costs one branch per cycle.
    telemetry: Option<ProbeRegistry>,
}

impl Simulator {
    /// Creates an empty simulator with a fresh signal context.
    pub fn new() -> Self {
        Simulator {
            ctx: SimCtx::new(),
            modules: Vec::new(),
            cycle: 0,
            telemetry: None,
        }
    }

    /// The signal context; use it to create the design's wires.
    pub fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    /// Registers a module. Modules evaluate in registration order, but
    /// delta passes repeat until nothing changes, so convergence never
    /// depends on that order.
    pub fn add(&mut self, module: Box<dyn Module>) {
        if let Some(reg) = self.telemetry.as_mut() {
            module.register_probes(reg);
        }
        self.modules.push(module);
    }

    /// Attaches a probe registry: every registered module declares its
    /// probes now (late-added modules register on [`Simulator::add`]) and
    /// is sampled once per cycle after the commit phase, so it sees settled
    /// post-commit values. With no registry attached the cost is one branch
    /// per cycle.
    pub fn attach_telemetry(&mut self, mut registry: ProbeRegistry) {
        for m in &self.modules {
            m.register_probes(&mut registry);
        }
        self.telemetry = Some(registry);
    }

    /// The attached probe registry, if any.
    pub fn telemetry(&self) -> Option<&ProbeRegistry> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the attached probe registry (to export or clear).
    pub fn telemetry_mut(&mut self) -> Option<&mut ProbeRegistry> {
        self.telemetry.as_mut()
    }

    /// Detaches and returns the probe registry.
    pub fn take_telemetry(&mut self) -> Option<ProbeRegistry> {
        self.telemetry.take()
    }

    /// Current cycle number (cycles completed so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances simulated time by one clock cycle.
    ///
    /// Every delta pass evaluates every module, until a full pass changes
    /// no wire; then every module commits once.
    pub fn step(&mut self) -> SimResult<()> {
        self.ctx.set_cycle(self.cycle);
        let mut converged = false;
        for _pass in 0..MAX_DELTA_PASSES {
            self.ctx.begin_pass();
            for m in &mut self.modules {
                m.eval(self.cycle);
            }
            if let Some(conflict) = self.ctx.take_conflict() {
                return Err(conflict);
            }
            if self.ctx.changes() == 0 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(SimError::CombinationalLoop {
                cycle: self.cycle,
                passes: MAX_DELTA_PASSES,
            });
        }
        for m in &mut self.modules {
            m.commit(self.cycle);
        }
        // Probe sampling happens here, after every commit, so traces see
        // settled values only.
        if let Some(reg) = self.telemetry.as_mut() {
            if reg.enabled() {
                for m in &self.modules {
                    m.sample_probes(self.cycle, reg);
                }
            }
        }
        self.cycle += 1;
        Ok(())
    }

    /// Steps until `done` returns true, with a watchdog budget.
    pub fn run_until<F>(&mut self, budget: u64, what: &str, mut done: F) -> SimResult<u64>
    where
        F: FnMut(&Self) -> bool,
    {
        let start = self.cycle;
        while !done(self) {
            if self.cycle - start >= budget {
                return Err(SimError::Watchdog {
                    budget,
                    waiting_for: what.to_string(),
                });
            }
            self.step()?;
        }
        Ok(self.cycle - start)
    }

    /// Steps a fixed number of cycles.
    pub fn run(&mut self, cycles: u64) -> SimResult<()> {
        for _ in 0..cycles {
            self.step()?;
        }
        Ok(())
    }

    /// Sums the resource report of every registered module.
    pub fn resources(&self) -> ResourceUsage {
        self.modules.iter().map(|m| m.resources()).sum()
    }

    /// Immutable access to the registered modules (for reporting).
    pub fn modules(&self) -> &[Box<dyn Module>] {
        &self.modules
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{Reg, Wire};

    /// A register stage: out <= in on each clock edge.
    struct Pipe {
        input: Wire<u32>,
        output: Wire<u32>,
        reg: Reg<u32>,
    }

    impl Module for Pipe {
        fn name(&self) -> &str {
            "pipe"
        }
        fn eval(&mut self, _c: u64) {
            self.reg.set(self.input.get());
            self.output.drive(self.reg.q());
        }
        fn commit(&mut self, _c: u64) {
            self.reg.tick();
        }
        fn resources(&self) -> ResourceUsage {
            ResourceUsage::regs(32)
        }
    }

    /// Combinational adder: sum = a + b (no state).
    struct Adder {
        a: Wire<u32>,
        b: Wire<u32>,
        sum: Wire<u32>,
    }

    impl Module for Adder {
        fn name(&self) -> &str {
            "adder"
        }
        fn eval(&mut self, _c: u64) {
            self.sum.drive(self.a.get().wrapping_add(self.b.get()));
        }
        fn commit(&mut self, _c: u64) {}
    }

    #[test]
    fn register_stage_delays_by_one_cycle() {
        let mut sim = Simulator::new();
        let input = sim.ctx().wire("in", 0u32);
        let output = sim.ctx().wire("out", 0u32);
        sim.add(Box::new(Pipe {
            input: input.clone(),
            output: output.clone(),
            reg: Reg::new(0),
        }));

        // Drive 7 before stepping; after one edge the output shows it.
        sim.ctx().begin_pass();
        input.drive(7);
        sim.step().unwrap();
        assert_eq!(
            output.get(),
            0,
            "output reflects pre-edge register value during cycle 0"
        );
        sim.step().unwrap();
        assert_eq!(output.get(), 7);
    }

    #[test]
    fn combinational_chain_settles_regardless_of_order() {
        // adder2 depends on adder1's output; register adder2 *first* so the
        // delta mechanism (not registration order) must produce settling.
        let mut sim = Simulator::new();
        let a = sim.ctx().wire("a", 1u32);
        let b = sim.ctx().wire("b", 2u32);
        let mid = sim.ctx().wire("mid", 0u32);
        let c = sim.ctx().wire("c", 10u32);
        let out = sim.ctx().wire("out", 0u32);
        sim.add(Box::new(Adder {
            a: mid.clone(),
            b: c.clone(),
            sum: out.clone(),
        }));
        sim.add(Box::new(Adder {
            a: a.clone(),
            b: b.clone(),
            sum: mid.clone(),
        }));
        sim.step().unwrap();
        assert_eq!(out.get(), 13);
    }

    /// A deliberately pathological module: out = !in wired back to itself.
    struct Inverter {
        x: Wire<bool>,
    }
    impl Module for Inverter {
        fn name(&self) -> &str {
            "inv"
        }
        fn eval(&mut self, _c: u64) {
            let v = self.x.get();
            self.x.drive(!v);
        }
        fn commit(&mut self, _c: u64) {}
    }

    #[test]
    fn combinational_loop_is_detected() {
        let mut sim = Simulator::new();
        let x = sim.ctx().wire("x", false);
        sim.add(Box::new(Inverter { x }));
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::CombinationalLoop { .. }));
        assert!(err.to_string().to_lowercase().contains("loop"), "{err}");
    }

    #[test]
    fn run_until_with_watchdog() {
        let mut sim = Simulator::new();
        let input = sim.ctx().wire("in", 0u32);
        let output = sim.ctx().wire("out", 0u32);
        sim.add(Box::new(Pipe {
            input: input.clone(),
            output: output.clone(),
            reg: Reg::new(0),
        }));
        sim.ctx().begin_pass();
        input.drive(3);
        let cycles = sim.run_until(10, "out==3", |_| output.get() == 3);
        assert_eq!(cycles.unwrap(), 2);

        // Now an unreachable condition trips the watchdog.
        let err = sim
            .run_until(5, "out==99", |_| output.get() == 99)
            .unwrap_err();
        assert!(matches!(err, SimError::Watchdog { budget: 5, .. }));
    }

    #[test]
    fn resources_sum_over_modules() {
        let mut sim = Simulator::new();
        let w = sim.ctx().wire("w", 0u32);
        for _ in 0..3 {
            sim.add(Box::new(Pipe {
                input: w.clone(),
                output: sim.ctx().wire("o", 0u32),
                reg: Reg::new(0),
            }));
        }
        assert_eq!(sim.resources().registers, 96);
    }

    #[test]
    fn fixed_run_advances_cycle_counter() {
        let mut sim = Simulator::new();
        sim.run(17).unwrap();
        assert_eq!(sim.cycle(), 17);
    }

    /// A counter module that exposes its register through a probe.
    struct Counting {
        reg: Reg<u32>,
    }
    impl Module for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn eval(&mut self, _c: u64) {
            self.reg.set(self.reg.q().wrapping_add(1));
        }
        fn commit(&mut self, _c: u64) {
            self.reg.tick();
        }
        fn register_probes(&self, reg: &mut ProbeRegistry) {
            reg.register("counting.value", crate::telemetry::ProbeKind::Vector(32));
        }
        fn sample_probes(&self, cycle: u64, reg: &mut ProbeRegistry) {
            reg.sample_path(cycle, "counting.value", u64::from(self.reg.q()));
        }
    }

    #[test]
    fn telemetry_sampling_exports_a_valid_vcd() {
        let mut sim = Simulator::new();
        sim.add(Box::new(Counting { reg: Reg::new(0) }));
        sim.attach_telemetry(ProbeRegistry::new(Default::default()));
        sim.run(8).unwrap();
        let reg = sim.telemetry().expect("attached");
        // Post-commit sampling: the counter reads 1..=8 over cycles 0..8.
        let expected: Vec<(u64, u64)> = (0..8).map(|c| (c, c + 1)).collect();
        assert_eq!(reg.events_for("counting.value"), expected);
        crate::telemetry::vcd_self_check(&reg.export_vcd("t")).expect("valid VCD");
    }

    #[test]
    fn late_added_modules_register_probes() {
        let mut sim = Simulator::new();
        sim.attach_telemetry(ProbeRegistry::new(Default::default()));
        sim.add(Box::new(Counting { reg: Reg::new(0) }));
        sim.run(3).unwrap();
        let reg = sim.telemetry().expect("attached");
        assert_eq!(reg.paths(), vec!["counting.value"]);
        // Post-commit sampling sees the committed value: 1 after cycle 0.
        assert_eq!(reg.events_for("counting.value")[0], (0, 1));
    }
}
