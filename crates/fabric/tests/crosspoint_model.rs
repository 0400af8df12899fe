//! `CrosspointMatrix` against the obvious model.
//!
//! The model is what the matrix is specified to be and nothing more: one
//! `VecDeque` per (input, output) pair, and an arbiter that walks its
//! column one input at a time from the round-robin pointer,
//! `(start + step) % ports`. Seeded offer/arbitrate sequences run
//! against both, and after every call every observable must agree: the
//! grant or the refusal itself, the telemetry (the counters of every
//! crosspoint that ever held a frame, each output's grant counter and
//! the aggregates), the occupancy and the column length. Port counts sit on
//! both sides of every 64-input boundary, so an implementation that
//! keeps per-column state in machine words is held to the same answers
//! as one that visits the queues.
//!
//! A failure names the case's seed, which reproduces it alone.

use flexsfp_fabric::xbar::CrosspointMatrix;
use flexsfp_obs::{CrosspointCounters, XbarTelemetry};
use flexsfp_traffic::rng::Xoshiro256;
use std::collections::VecDeque;

/// The reference matrix: queues that are visited, never summarised.
struct Model {
    ports: usize,
    depth: usize,
    /// Row-major, `input * ports + output`, each with its counters.
    queues: Vec<VecDeque<u32>>,
    stats: Vec<CrosspointCounters>,
    rr_next: Vec<usize>,
    grants: Vec<u64>,
}

impl Model {
    fn new(ports: usize, depth: usize) -> Model {
        Model {
            ports,
            depth,
            queues: vec![VecDeque::new(); ports * ports],
            stats: (0..ports * ports)
                .map(|i| CrosspointCounters {
                    input: (i / ports) as u64,
                    output: (i % ports) as u64,
                    ..CrosspointCounters::default()
                })
                .collect(),
            rr_next: vec![0; ports],
            grants: vec![0; ports],
        }
    }

    fn offer(&mut self, input: usize, output: usize, item: u32) -> Result<(), u32> {
        let i = input * self.ports + output;
        if self.queues[i].len() >= self.depth {
            self.stats[i].dropped += 1;
            return Err(item);
        }
        self.queues[i].push_back(item);
        self.stats[i].enqueued += 1;
        let len = self.queues[i].len() as u64;
        self.stats[i].high_water = self.stats[i].high_water.max(len);
        Ok(())
    }

    fn arbitrate(&mut self, output: usize) -> Option<(usize, u32)> {
        let start = self.rr_next[output];
        for step in 0..self.ports {
            let input = (start + step) % self.ports;
            let i = input * self.ports + output;
            if let Some(item) = self.queues[i].pop_front() {
                self.stats[i].granted += 1;
                self.rr_next[output] = (input + 1) % self.ports;
                self.grants[output] += 1;
                return Some((input, item));
            }
        }
        None
    }

    fn column_len(&self, output: usize) -> usize {
        (0..self.ports)
            .map(|input| self.queues[input * self.ports + output].len())
            .sum()
    }

    fn occupancy(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// The crosspoints that ever accepted or refused a frame, and what
    /// they add up to.
    fn telemetry(&self) -> XbarTelemetry {
        let crosspoints: Vec<CrosspointCounters> = self
            .stats
            .iter()
            .filter(|c| c.enqueued + c.dropped > 0)
            .copied()
            .collect();
        XbarTelemetry {
            ports: self.ports as u64,
            depth: self.depth as u64,
            enqueued: crosspoints.iter().map(|c| c.enqueued).sum(),
            granted: crosspoints.iter().map(|c| c.granted).sum(),
            dropped: crosspoints.iter().map(|c| c.dropped).sum(),
            high_water: crosspoints.iter().map(|c| c.high_water).max().unwrap_or(0),
            output_grants: self.grants.clone(),
            crosspoints,
        }
    }
}

/// Where a sequence stands, for failure messages only.
#[derive(Clone, Copy)]
struct Ctx {
    seed: u64,
    ports: usize,
    depth: usize,
    /// Calls made so far, the closing drain's included.
    call: usize,
}

impl std::fmt::Display for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Ctx {
            seed,
            ports,
            depth,
            call,
        } = self;
        write!(
            f,
            "seed {seed:#x}, {ports} ports, depth {depth}, call {call}"
        )
    }
}

/// Everything observable after a call that touched `output`'s column.
fn assert_same_view(m: &CrosspointMatrix<u32>, model: &Model, output: usize, ctx: Ctx) {
    assert_eq!(m.telemetry(), model.telemetry(), "{ctx}: telemetry");
    let occupancy = model.occupancy();
    assert_eq!(m.occupancy(), occupancy, "{ctx}: occupancy");
    assert_eq!(
        m.column_len(output),
        model.column_len(output),
        "{ctx}: column_len"
    );
}

/// One seeded sequence over a `ports`×`ports`, `depth`-deep matrix.
/// Traffic converges on two hot outputs from three hot inputs (drawn
/// afresh for every filling phase from the edges of every 64-input
/// word) so columns fill, overflow and hold several contenders at once,
/// while the remaining calls roam the whole matrix and mostly find
/// empty columns. Filling phases alternate with draining ones so
/// queues both build and empty.
fn run_case(ports: usize, depth: usize, steps: usize, seed: u64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut m: CrosspointMatrix<u32> = CrosspointMatrix::new(ports, depth);
    let mut model = Model::new(ports, depth);
    assert_eq!(m.ports(), ports);
    let mut ctx = Ctx {
        seed,
        ports,
        depth,
        call: 0,
    };

    let mut edges: Vec<usize> = [0, 1, 62, 63, 64, 65, 127, 128, ports - 1]
        .into_iter()
        .filter(|&i| i < ports)
        .collect();
    edges.dedup();
    let mut hot_inputs = [0; 3];
    let hot_outputs: Vec<usize> = (0..2).map(|_| rng.range_usize(0, ports)).collect();

    let mut offer_share = 0.0;
    let (mut grants, mut refusals, mut overflows, mut wraps) = (0u64, 0u64, 0u64, 0u64);
    for step in 0..steps {
        ctx.call = step;
        if step % 128 == 0 {
            // A filling phase, from three edges spread over the list
            // (distinct wherever the matrix has three inputs).
            offer_share = 0.9;
            let first = rng.range_usize(0, edges.len());
            hot_inputs = [0, 1, 2].map(|k| edges[(first + k * edges.len() / 3) % edges.len()]);
        } else if step % 64 == 0 {
            offer_share = [0.2, 0.35, 0.5][rng.range_usize(0, 3)];
        }
        let output = if rng.chance(0.8) {
            hot_outputs[rng.range_usize(0, hot_outputs.len())]
        } else {
            rng.range_usize(0, ports)
        };
        if rng.chance(offer_share) {
            let input = if rng.chance(0.7) {
                hot_inputs[rng.range_usize(0, hot_inputs.len())]
            } else {
                rng.range_usize(0, ports)
            };
            let got = m.offer(input, output, step as u32);
            assert_eq!(
                got,
                model.offer(input, output, step as u32),
                "{ctx}: offer({input}, {output})"
            );
            overflows += u64::from(got.is_err());
        } else {
            let before = model.rr_next[output];
            let got = m.arbitrate(output);
            assert_eq!(got, model.arbitrate(output), "{ctx}: arbitrate({output})");
            match got {
                Some((input, _)) => {
                    grants += 1;
                    wraps += u64::from(input < before);
                }
                None => refusals += 1,
            }
        }
        assert_same_view(&m, &model, output, ctx);
    }

    // Drain what is left, column by column, still in lock step.
    for output in 0..ports {
        loop {
            ctx.call += 1;
            let got = m.arbitrate(output);
            assert_eq!(got, model.arbitrate(output), "{ctx}: draining {output}");
            if got.is_none() {
                break;
            }
        }
        assert_same_view(&m, &model, output, ctx);
    }
    assert_eq!(m.occupancy(), 0, "{ctx}");
    assert_eq!(m.telemetry(), model.telemetry(), "{ctx}: final telemetry");

    // The sequence reached what it is there to reach.
    assert!(grants > 0 && refusals > 0, "{ctx}: {grants} / {refusals}");
    assert!(overflows > 0, "{ctx}: no crosspoint ever overflowed");
    if ports > 1 {
        assert!(wraps > 0, "{ctx}: the scan never wrapped past input 0");
    }
}

#[test]
fn matrix_matches_the_obvious_model() {
    for ports in [1usize, 2, 3, 24, 48, 63, 64, 65, 130] {
        // The checks after every call walk the whole matrix on both
        // sides, so the big geometries get the shorter sequences.
        let steps = match ports {
            0..=24 => 4_000,
            25..=65 => 1_000,
            _ => 500,
        };
        for depth in 1..=4usize {
            let seed = 0xc405_5b00 ^ ((ports as u64) << 8) ^ depth as u64;
            run_case(ports, depth, steps, seed);
        }
    }
}

/// Three contenders in one column, on both sides of a word boundary:
/// grants rotate, a pointer past the last contender wraps to the
/// first, and a crosspoint with items left keeps contending.
#[test]
fn grant_order_across_a_word_boundary() {
    let mut m: CrosspointMatrix<u32> = CrosspointMatrix::new(130, 2);
    let mut model = Model::new(130, 2);
    for input in [3usize, 64, 129] {
        for k in 0..2u32 {
            let item = input as u32 * 10 + k;
            assert_eq!(m.offer(input, 7, item), model.offer(input, 7, item));
        }
    }
    let order: Vec<(usize, u32)> = (0..6).map(|_| m.arbitrate(7).unwrap()).collect();
    assert_eq!(
        order,
        [
            (3, 30),
            (64, 640),
            (129, 1290),
            (3, 31),
            (64, 641),
            (129, 1291)
        ]
    );
    for want in order {
        assert_eq!(model.arbitrate(7), Some(want));
    }
    assert_eq!(m.arbitrate(7), None);
    assert_same_view(
        &m,
        &model,
        7,
        Ctx {
            seed: 0,
            ports: 130,
            depth: 2,
            call: 13,
        },
    );
}
