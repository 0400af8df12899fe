//! The fleet export, read back.
//!
//! `FleetCollector::to_json` is a wire form: whatever it writes, a
//! reader holding only the text must rebuild exactly what the collector
//! holds. The fixture is shaped like the rack a scrape serves, not like
//! a unit test's module: `bench::rack`'s two ToRs, 94 cage modules and
//! lossy access spans over a few thousand frames, so crosspoints queue,
//! latencies spread over many buckets and drops leave events. It is
//! scraped twice through `Rack::scrape`, so an event log holds more than
//! the last snapshot drained. The text is parsed with `Value::parse` and
//! every module decoded through `from_json`.

use flexsfp_bench::rack;
use flexsfp_host::FleetCollector;
use flexsfp_obs::{DataplaneEvent, FromJson, TelemetrySnapshot, Value};

#[test]
fn a_rack_scrape_decodes_to_what_the_collector_holds() {
    let mut rack = rack::drive(3_000);
    let high_water = rack.tors().iter().map(|t| t.telemetry().high_water);
    assert!(high_water.max() > Some(1), "no crosspoint ever queued");
    let mut collector = FleetCollector::new();
    rack.scrape(&mut collector);
    rack.scrape(&mut collector);

    let doc = Value::parse(&collector.to_json()).expect("the export parses");
    let modules = doc.as_object().expect("an object of modules");
    assert_eq!(modules.len(), 94);
    assert_eq!(modules.len(), collector.len());
    let mut spread = 0;
    for (id, module) in modules {
        let snapshot = TelemetrySnapshot::from_json(&module["snapshot"]);
        assert_eq!(snapshot.as_ref(), collector.module(id), "{id}: snapshot");
        let events = Vec::<DataplaneEvent>::from_json(&module["recent_events"]);
        assert_eq!(
            events.as_deref(),
            collector.recent_events(id),
            "{id}: events"
        );
        let latency = &collector.module(id).expect("ingested").latency;
        spread += usize::from(latency.nonzero_buckets().count() > 1);
    }
    assert!(spread > 0, "every module's latency sat in one bucket");
    let longer = |id: &String| {
        let logged = collector.recent_events(id).map_or(0, <[_]>::len);
        logged > collector.module(id).map_or(0, |s| s.events.len())
    };
    assert!(
        modules.keys().any(longer),
        "no event log outgrew its snapshot"
    );
}
