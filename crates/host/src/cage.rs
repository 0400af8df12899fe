//! The SFP cage: one port's optional FlexSFP bump-in-the-wire.
//!
//! [`CrossbarSwitch`](crate::CrossbarSwitch) puts a cage in every port,
//! crossed once on ingress and once on egress. A frame crossing a cage
//! has more possible fates than "came out the far side or didn't": the module
//! may drop it (its report's [`drops`](flexsfp_core::module::SimReport::drops) say so),
//! reflect it back out the interface it came from, divert it to the
//! control plane, duplicate it (a mirror app), or absorb it into a
//! control-plane exchange. [`ModulePass`] captures every one of those
//! outcomes per pass so the switch can conserve frames exactly
//! instead of inferring "dropped" from a missing output.
//!
//! One frame, one run. A pass is
//! [`StreamSession::run_one`]: what `FlexSfp::run(vec![frame])` does,
//! on run state the seat keeps from pass to pass so that a frame in
//! steady state allocates nothing. The passes of one cage do not form a
//! stream and must not be made into one: an output that fell idle
//! before `now` grants its next parked frame at that earlier instant,
//! so a cage sees egress grants stamped before ingress frames it has
//! already carried, which a stream would drop as unsorted arrivals. So
//! every pass starts from an idle PPE and an empty FIFO, under the
//! module's clocks and FIFO size as they are now
//! ([`CrossbarSwitch::module_mut`](crate::CrossbarSwitch::module_mut)
//! hands out the configuration) and the pipeline depth the module took
//! from the application it last booted; a cage module's FIFO never
//! carries backlog from one frame to the next. Queueing in the switch is
//! the crosspoints' job. Beyond that, a pass does only what changes the
//! module: it zeroes the counters it reports, books its fates through
//! one accounting context, and books its latency straight into the
//! module's lifetime histogram, where a repeat of a latency in the same
//! window waits to be recorded with the others.

use flexsfp_core::module::{FlexSfp, Interface, OutputPacket, SimPacket, StreamSession};
use flexsfp_ppe::Direction;

/// What a port forwards through.
pub(crate) enum Cage {
    /// A plain fixed-function SFP: transparent.
    StandardSfp,
    /// A FlexSFP module.
    FlexSfp(Box<Seat>),
}

/// A seated module and the run state its passes reuse.
pub(crate) struct Seat {
    pub module: FlexSfp,
    /// Made by the first frame through the cage, not at seat time.
    run: Option<StreamSession>,
}

impl Cage {
    /// A cage holding `module`.
    pub(crate) fn seat(module: FlexSfp) -> Cage {
        Cage::FlexSfp(Box::new(Seat { module, run: None }))
    }

    /// The module in the cage, if any.
    pub(crate) fn module_mut(&mut self) -> Option<&mut FlexSfp> {
        match self {
            Cage::FlexSfp(seat) => Some(&mut seat.module),
            Cage::StandardSfp => None,
        }
    }
}

/// The fully-accounted outcome of one frame offered to one cage.
///
/// Conservation per pass: the one offered frame plus any copies the
/// module created equals `matched + diverted + dropped + to_control +
/// absorbed() - gains()` — rearranged, `gains()` counts module-created
/// copies (sources) and `absorbed()` counts frames the module consumed
/// without any other accounted fate (sinks).
#[derive(Default)]
pub(crate) struct ModulePass {
    /// Outputs that emerged on the expected egress interface — all of
    /// them, not just the first; the frames themselves went to the
    /// pass's sink.
    pub matched: u64,
    /// Outputs that emerged on the *other* interface (reflected back
    /// toward where the frame came from).
    pub diverted: u64,
    /// Frames the module itself dropped, from its own per-run
    /// [`drops`](flexsfp_core::module::SimReport::drops) — app verdicts, FIFO
    /// overflow and parse errors alike, not inferred from absence.
    pub dropped: u64,
    /// Frames diverted to the module's control plane.
    pub to_control: u64,
}

impl ModulePass {
    /// Accounted fates of this pass (outputs + drops + control).
    fn outcomes(&self) -> u64 {
        self.matched + self.diverted + self.dropped + self.to_control
    }

    /// Copies the module created beyond the one frame offered — a
    /// mirror app's extra output, or a control-plane reply emitted next
    /// to the diverted request.
    pub fn gains(&self) -> u64 {
        self.outcomes().saturating_sub(1)
    }

    /// Frames the module consumed without any accounted outcome (e.g.
    /// a control exchange that produced no reply).
    pub fn absorbed(&self) -> u64 {
        1u64.saturating_sub(self.outcomes())
    }
}

/// Pass one frame through `cage` in `direction` at `t_ns`: every output
/// that emerges on the expected egress interface goes to `matched`, in
/// the order the module produced it, and every other outcome is
/// accounted in the returned [`ModulePass`].
pub(crate) fn through_cage(
    cage: &mut Cage,
    frame: Vec<u8>,
    direction: Direction,
    t_ns: u64,
    mut matched: impl FnMut(Vec<u8>),
) -> ModulePass {
    let mut pass = ModulePass::default();
    match cage {
        Cage::StandardSfp => {
            pass.matched = 1;
            matched(frame);
        }
        Cage::FlexSfp(seat) => {
            let Seat { module, run } = &mut **seat;
            let run = run.get_or_insert_with(|| module.begin_stream());
            let expect = Interface::egress_for(direction);
            let pkt = SimPacket {
                arrival_ns: t_ns,
                direction,
                frame,
            };
            let report = run.run_one(module, pkt, &mut |_tag, out: OutputPacket| {
                if out.egress == expect {
                    pass.matched += 1;
                    matched(out.frame);
                } else {
                    pass.diverted += 1;
                }
            });
            pass.dropped = report.drops.total();
            pass.to_control = report.to_control;
        }
    }
    pass
}
