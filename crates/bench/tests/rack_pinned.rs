//! Two rack runs, pinned whole.
//!
//! `rack::run(6_000)` and `rack::run(2_000)` — the two sizes the
//! in-file tests use — with every field of the [`Outcome`] but `host`
//! (the machine) as literals computed once on the code whose `run` held
//! the topology, the hand-off loop and the identities in one function.
//! A change to who owns the event order must leave every counter, the
//! queue p99.9 and the scrape's sample count alone; one that means to
//! change behaviour updates the literals and says why.

use flexsfp_bench::rack::{self, Outcome};

#[test]
fn run_6000_is_pinned_whole() {
    let o = rack::run(6_000);
    let pinned = Outcome {
        packets: 6_166,
        hosts: 94,
        modules: 94,
        link_offered: 6_166,
        link_delivered: 6_128,
        link_dropped: 58,
        link_duplicated: 20,
        link_corrupted: 29,
        uplink_ab: 2_460,
        uplink_ba: 2_528,
        delivered_access: 15_283,
        flooded: 200,
        flood_copies: 9_200,
        module_copies: 0,
        dropped_by_modules: 14,
        diverted_by_modules: 0,
        to_control: 0,
        absorbed_by_modules: 0,
        dropped_malformed: 2,
        filtered_hairpin: 27,
        crosspoint_dropped: 2,
        crosspoint_high_water: 12,
        queue_p999_ns: 99_840,
        p999_bound_ns: 150_000,
        xbar_samples: 13_514,
        conserved: true,
        healthy: true,
        host: o.host.clone(),
    };
    assert_eq!(o, pinned);
}

#[test]
fn run_2000_is_pinned_whole() {
    let o = rack::run(2_000);
    let pinned = Outcome {
        packets: 2_166,
        hosts: 94,
        modules: 94,
        link_offered: 2_166,
        link_delivered: 2_146,
        link_dropped: 26,
        link_duplicated: 6,
        link_corrupted: 9,
        uplink_ab: 869,
        uplink_ba: 898,
        delivered_access: 11_324,
        flooded: 200,
        flood_copies: 9_200,
        module_copies: 0,
        dropped_by_modules: 12,
        diverted_by_modules: 0,
        to_control: 0,
        absorbed_by_modules: 0,
        dropped_malformed: 0,
        filtered_hairpin: 10,
        crosspoint_dropped: 0,
        crosspoint_high_water: 9,
        queue_p999_ns: 81_408,
        p999_bound_ns: 150_000,
        xbar_samples: 13_514,
        conserved: true,
        healthy: true,
        host: o.host.clone(),
    };
    assert_eq!(o, pinned);
}
