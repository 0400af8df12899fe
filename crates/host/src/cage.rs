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

use flexsfp_core::module::{FlexSfp, Interface, SimPacket};
use flexsfp_ppe::Direction;

/// What a port forwards through.
pub(crate) enum Cage {
    /// A plain fixed-function SFP: transparent.
    StandardSfp,
    /// A FlexSFP module.
    FlexSfp(Box<FlexSfp>),
}

impl Cage {
    /// The module in the cage, if any.
    pub(crate) fn module_mut(&mut self) -> Option<&mut FlexSfp> {
        match self {
            Cage::FlexSfp(m) => Some(m),
            Cage::StandardSfp => None,
        }
    }
}

/// The fully-accounted outcome of one frame offered to one cage.
///
/// Conservation per pass: the one offered frame plus any copies the
/// module created equals `matched.len() + diverted + dropped +
/// to_control + absorbed() - gains()` — rearranged, `gains()` counts
/// module-created copies (sources) and `absorbed()` counts frames the
/// module consumed without any other accounted fate (sinks).
pub(crate) struct ModulePass {
    /// Outputs that emerged on the expected egress interface, in
    /// departure order — all of them, not just the first.
    pub matched: Vec<Vec<u8>>,
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
        self.matched.len() as u64 + self.diverted + self.dropped + self.to_control
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

/// Pass one frame through `cage` in `direction` at `t_ns` and account
/// every outcome.
pub(crate) fn through_cage(
    cage: &mut Cage,
    frame: Vec<u8>,
    direction: Direction,
    t_ns: u64,
) -> ModulePass {
    match cage {
        Cage::StandardSfp => ModulePass {
            matched: vec![frame],
            diverted: 0,
            dropped: 0,
            to_control: 0,
        },
        Cage::FlexSfp(m) => {
            let report = m.run(vec![SimPacket {
                arrival_ns: t_ns,
                direction,
                frame,
            }]);
            let expect = Interface::egress_for(direction);
            let mut matched = Vec::new();
            let mut diverted = 0;
            for o in report.outputs {
                if o.egress == expect {
                    matched.push(o.frame);
                } else {
                    diverted += 1;
                }
            }
            ModulePass {
                matched,
                diverted,
                dropped: report.drops.total(),
                to_control: report.to_control,
            }
        }
    }
}
