//! Ready/valid streaming links (AXI4-Stream style).
//!
//! The paper integrates Smache behind "the index, the work-instance, and a
//! stall signal to allow integration with e.g. the AXI4-Stream protocol".
//! [`StreamLink`] carries exactly that: a data word, its stream index, the
//! work-instance number, `valid`/`last` from the producer, and `ready`
//! (the inverse of *stall*) from the consumer. A transfer occurs on a cycle
//! where both `valid` and `ready` are high.

use std::fmt;

use crate::module::Module;
use crate::signal::{SimCtx, Wire};
use crate::Word;

/// One beat of a data stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Beat {
    /// The payload word.
    pub data: Word,
    /// Index of the element within the stream (the paper's `i` in
    /// `s[i] = m[p(i)]`).
    pub index: u64,
    /// Work-instance (outer iteration) number.
    pub instance: u64,
}

/// A ready/valid stream connection between a producer and a consumer.
///
/// Cloning the link clones the wire *handles*, not the nets: both clones
/// observe and drive the same signals, so the producer and the consumer
/// each hold a clone of the same link.
#[derive(Clone)]
pub struct StreamLink {
    /// Producer asserts when `beat` is meaningful.
    pub valid: Wire<bool>,
    /// The current beat (only meaningful while `valid`).
    pub beat: Wire<Beat>,
    /// Producer asserts on the final beat of a packet (a work-instance).
    pub last: Wire<bool>,
    /// Consumer asserts when it can accept a beat this cycle. `!ready` is
    /// the paper's *stall* signal.
    pub ready: Wire<bool>,
}

impl StreamLink {
    /// Creates an idle link (not valid, consumer ready).
    pub fn new(ctx: &SimCtx, name: &str) -> Self {
        StreamLink {
            valid: ctx.wire(&format!("{name}.valid"), false),
            beat: ctx.wire(&format!("{name}.beat"), Beat::default()),
            last: ctx.wire(&format!("{name}.last"), false),
            ready: ctx.wire(&format!("{name}.ready"), true),
        }
    }

    /// True when a transfer completes this cycle.
    #[inline]
    pub fn fires(&self) -> bool {
        self.valid.get() && self.ready.get()
    }

    /// Producer-side helper: present a beat.
    pub fn offer(&self, beat: Beat, last: bool) {
        self.valid.drive(true);
        self.beat.drive(beat);
        self.last.drive(last);
    }

    /// Producer-side helper: present nothing.
    pub fn idle(&self) {
        self.valid.drive(false);
        self.last.drive(false);
    }
}

impl fmt::Debug for StreamLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StreamLink(valid={}, ready={}, beat={:?})",
            self.valid.get(),
            self.ready.get(),
            self.beat.get()
        )
    }
}

/// Testbench component: produces a fixed sequence of beats on a link,
/// honouring back-pressure.
pub struct StreamSource {
    name: String,
    link: StreamLink,
    items: Vec<Beat>,
    /// Index of the next item to present.
    pos: usize,
    sent: u64,
}

impl StreamSource {
    /// Creates a source that will emit `items` in order.
    pub fn new(name: &str, link: StreamLink, items: Vec<Beat>) -> Self {
        StreamSource {
            name: name.to_string(),
            link,
            items,
            pos: 0,
            sent: 0,
        }
    }

    /// Number of beats accepted by the consumer so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// True when every item has been transferred.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.items.len()
    }
}

impl Module for StreamSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, _cycle: u64) {
        if self.pos < self.items.len() {
            let last = self.pos + 1 == self.items.len();
            self.link.offer(self.items[self.pos], last);
        } else {
            self.link.idle();
        }
    }

    fn commit(&mut self, _cycle: u64) {
        if self.pos < self.items.len() && self.link.fires() {
            self.pos += 1;
            self.sent += 1;
        }
    }
}

/// Testbench component: collects beats from a link into a shared buffer,
/// optionally stalling on a fixed schedule to exercise back-pressure.
pub struct StreamSink {
    name: String,
    link: StreamLink,
    collected: std::rc::Rc<std::cell::RefCell<Vec<Beat>>>,
    /// Stall pattern: sink is ready on cycle `c` iff
    /// `stall_period == 0 || c % stall_period != stall_phase`.
    stall_period: u64,
    stall_phase: u64,
}

/// Shared handle onto a sink's output buffer (usable after the sink has been
/// moved into the simulator).
pub type SinkBuffer = std::rc::Rc<std::cell::RefCell<Vec<Beat>>>;

impl StreamSink {
    /// Creates an always-ready sink; returns the sink and a shared handle to
    /// its collected beats.
    pub fn new(name: &str, link: StreamLink) -> (Self, SinkBuffer) {
        let buf: SinkBuffer = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        (
            StreamSink {
                name: name.to_string(),
                link,
                collected: std::rc::Rc::clone(&buf),
                stall_period: 0,
                stall_phase: 0,
            },
            buf,
        )
    }

    /// Creates a sink that deasserts `ready` once every `period` cycles.
    pub fn with_stalls(
        name: &str,
        link: StreamLink,
        period: u64,
        phase: u64,
    ) -> (Self, SinkBuffer) {
        assert!(period > 0, "stall period must be positive");
        let (mut sink, buf) = Self::new(name, link);
        sink.stall_period = period;
        sink.stall_phase = phase % period;
        (sink, buf)
    }

    fn is_ready(&self, cycle: u64) -> bool {
        self.stall_period == 0 || cycle % self.stall_period != self.stall_phase
    }
}

impl Module for StreamSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, cycle: u64) {
        self.link.ready.drive(self.is_ready(cycle));
    }

    fn commit(&mut self, _cycle: u64) {
        if self.link.fires() {
            self.collected.borrow_mut().push(self.link.beat.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    fn beats(n: u64) -> Vec<Beat> {
        (0..n)
            .map(|i| Beat {
                data: i * 10,
                index: i,
                instance: 0,
            })
            .collect()
    }

    #[test]
    fn source_to_sink_transfers_all_beats_in_order() {
        let mut sim = Simulator::new();
        let link = StreamLink::new(sim.ctx(), "s");
        sim.add(Box::new(StreamSource::new("src", link.clone(), beats(5))));
        let (sink, buf) = StreamSink::new("snk", link);
        sim.add(Box::new(sink));
        sim.run(6).unwrap();
        let got = buf.borrow();
        assert_eq!(got.len(), 5);
        for (i, b) in got.iter().enumerate() {
            assert_eq!(b.data, i as u64 * 10);
            assert_eq!(b.index, i as u64);
        }
    }

    #[test]
    fn back_pressure_slows_but_loses_nothing() {
        let mut sim = Simulator::new();
        let link = StreamLink::new(sim.ctx(), "s");
        sim.add(Box::new(StreamSource::new("src", link.clone(), beats(9))));
        // Stall every 3rd cycle: 9 beats need at least 13 cycles.
        let (sink, buf) = StreamSink::with_stalls("snk", link, 3, 0);
        sim.add(Box::new(sink));
        sim.run(20).unwrap();
        let got = buf.borrow();
        assert_eq!(
            got.len(),
            9,
            "no beat may be dropped or duplicated under stalls"
        );
        let datas: Vec<u64> = got.iter().map(|b| b.data).collect();
        assert_eq!(datas, (0..9).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn stalled_cycle_does_not_transfer() {
        let mut sim = Simulator::new();
        let link = StreamLink::new(sim.ctx(), "s");
        sim.add(Box::new(StreamSource::new("src", link.clone(), beats(4))));
        // Sink stalls on every cycle where c % 2 == 0, i.e. half throughput.
        let (sink, buf) = StreamSink::with_stalls("snk", link, 2, 0);
        sim.add(Box::new(sink));
        sim.run(4).unwrap();
        assert_eq!(buf.borrow().len(), 2, "only odd cycles transfer");
    }

    #[test]
    fn last_is_asserted_on_final_beat_only() {
        let mut sim = Simulator::new();
        let link = StreamLink::new(sim.ctx(), "s");
        let obs = link.clone();
        sim.add(Box::new(StreamSource::new("src", link.clone(), beats(3))));
        let (sink, _buf) = StreamSink::new("snk", link);
        sim.add(Box::new(sink));

        let mut lasts = Vec::new();
        for _ in 0..4 {
            sim.step().unwrap();
            // After step, wires hold the values of the *completed* cycle.
            lasts.push((obs.valid.get(), obs.last.get()));
        }
        // Beats fire on cycles 0,1,2; `last` must be true only on the third.
        assert_eq!(lasts[0], (true, false));
        assert_eq!(lasts[1], (true, false));
        assert_eq!(lasts[2], (true, true));
        assert!(!lasts[3].0, "source goes idle after exhaustion");
    }

    #[test]
    fn source_reports_exhaustion_and_count() {
        let mut sim = Simulator::new();
        let link = StreamLink::new(sim.ctx(), "s");
        let src = StreamSource::new("src", link.clone(), beats(2));
        assert!(!src.exhausted());
        sim.add(Box::new(src));
        let (sink, _buf) = StreamSink::new("snk", link);
        sim.add(Box::new(sink));
        sim.run(3).unwrap();
        // The source was moved into the simulator; its effect is observable
        // through the link going idle.
    }
}
