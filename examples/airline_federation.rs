//! The airline OIS, federated across three brokers (paper §2, scaled
//! out the way §4.4 sketches: capture points feed a hub backbone, and
//! remote sites attach whole *brokers*, not individual subscribers).
//!
//! Topology:
//!
//! ```text
//!   FAA / NOAA capture ──> hub broker ──[federation link]──> site A (display)
//!                          (durable)  ──[federation link]──> site B (late join)
//! ```
//!
//! The hub's flight stream is durable (segment log on disk), so site B
//! can join *after* traffic has flowed and still receive every flight —
//! replayed from the hub's log across its link, in order, with the
//! origin-assigned sequence numbers intact. Weather is left non-durable
//! for contrast: a late joiner only sees observations published after
//! its link came up, the classic live-only feed.
//!
//! Each event crosses each link exactly once no matter how many local
//! subscribers a site has — the link carries the *aggregated*
//! subscription and the site's own broker does the fan-out.
//!
//! Run with: `cargo run --example airline_federation`

use std::sync::Arc;
use std::time::{Duration, Instant};

use backbone::airline::{AirlineGenerator, ASD_SCHEMA, ASD_STREAM, WEATHER_SCHEMA, WEATHER_STREAM};
use backbone::{DurableSpec, FederatedBroker, FederationLink, LinkConfig, NetConfig, StreamConfig};
use openmeta::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The publicly known intranet metadata server; every site's
    // consumers discover formats from here, never from compiled-in
    // knowledge.
    let metadata = MetadataServer::bind("127.0.0.1:0")?;
    metadata.publish("/schemas/asd.xsd", ASD_SCHEMA);
    metadata.publish("/schemas/weather.xsd", WEATHER_SCHEMA);
    let asd_url = metadata.url_for("/schemas/asd.xsd");
    let weather_url = metadata.url_for("/schemas/weather.xsd");

    // ---- Hub broker: durable flight stream, live-only weather. ----
    let log_dir = std::env::temp_dir().join(format!("x2w-fed-example-{}", std::process::id()));
    let hub = Arc::new(Broker::new());
    let recovered = hub.create_stream_durable(
        ASD_STREAM,
        StreamConfig { metadata_locator: Some(asd_url.clone()) },
        DurableSpec::new(log_dir.join("asd")),
    )?;
    println!(
        "hub: durable {ASD_STREAM} (recovered through seq {recovered}), log under {}",
        log_dir.display()
    );

    // Expose the hub to other brokers.
    let fed = FederatedBroker::bind(Arc::clone(&hub), "127.0.0.1:0", NetConfig::default())?;
    println!("hub: federation endpoint at {}", fed.local_addr());

    // Capture points publish at the hub, exactly as in the single-broker
    // example — federation is invisible to producers.
    let faa_session = Arc::new(Xml2Wire::builder().build());
    faa_session.register_schema_str(ASD_SCHEMA)?;
    let faa = CapturePoint::new(
        Arc::clone(&hub),
        faa_session,
        ASD_STREAM,
        "ASDOffEvent",
        Some(asd_url.clone()),
    )?;
    let noaa_session = Arc::new(Xml2Wire::builder().build());
    noaa_session.register_schema_str(WEATHER_SCHEMA)?;
    let noaa = CapturePoint::new(
        Arc::clone(&hub),
        noaa_session,
        WEATHER_STREAM,
        "WeatherObs",
        Some(weather_url.clone()),
    )?;

    // ---- Site A: a display site linked up before traffic flows. ----
    let site_a = Arc::new(Broker::new());
    site_a.create_stream(ASD_STREAM, Some(asd_url.clone()));
    site_a.create_stream(WEATHER_STREAM, Some(weather_url.clone()));
    let display_session = Arc::new(Xml2Wire::builder().source(Box::new(UrlSource::new())).build());
    let display = Consumer::new(Arc::clone(&site_a), display_session);
    let flights_a = display.subscribe(ASD_STREAM)?;
    let weather_a = display.subscribe(WEATHER_STREAM)?;
    let link_a = FederationLink::connect(
        fed.local_addr(),
        Arc::clone(&site_a),
        LinkConfig::new([ASD_STREAM, WEATHER_STREAM]),
    )?;
    // Wait until the hub has registered both of site A's link
    // subscriptions, so the non-durable weather feed misses nothing.
    wait_until(|| fed.forwarder_count() >= 2)?;

    // ---- Traffic flows while site B does not exist yet. ----
    let mut generator = AirlineGenerator::seeded(2026);
    for _ in 0..3 {
        faa.publish(&generator.flight_event())?;
        noaa.publish(&generator.weather_event())?;
    }
    for _ in 0..3 {
        let flight = flights_a.next_record_timeout(Duration::from_secs(5))?;
        let obs = weather_a.next_record_timeout(Duration::from_secs(5))?;
        println!(
            "site A: [ASD] {}{} {}->{}   [WX] {} {:.1}C",
            flight.get("arln").unwrap().as_str().unwrap(),
            flight.get("fltNum").unwrap(),
            flight.get("org").unwrap().as_str().unwrap(),
            flight.get("dest").unwrap().as_str().unwrap(),
            obs.get("station").unwrap().as_str().unwrap(),
            obs.get("tempC").unwrap().as_f64().unwrap(),
        );
    }

    // ---- Site B: a whole broker joins late. ----
    // Its link subscribes the durable flight stream from seq 1; the hub
    // replays the history out of its segment log across the link.
    let site_b = Arc::new(Broker::new());
    site_b.create_stream(ASD_STREAM, Some(asd_url.clone()));
    let ops = site_b.subscribe(ASD_STREAM)?;
    let link_b = FederationLink::connect(
        fed.local_addr(),
        Arc::clone(&site_b),
        LinkConfig::new([ASD_STREAM]),
    )?;

    // More traffic after site B joined: both sites see it live.
    for _ in 0..2 {
        faa.publish(&generator.flight_event())?;
    }
    for _ in 0..2 {
        let _ = flights_a.next_record_timeout(Duration::from_secs(5))?;
    }

    // Site B received the replayed history AND the live tail, in seq
    // order, without the publishers ever knowing it exists.
    print!("site B: flight seqs ");
    for _ in 0..5 {
        let event = ops.recv_timeout(Duration::from_secs(5))?;
        print!("{} ", event.seq);
    }
    println!("(1-3 replayed from the hub's log, 4-5 live)");

    // ---- Accounting: the once-per-link economics. ----
    let stats_a = link_a.stats();
    let stats_b = link_b.stats();
    println!(
        "link A: {} events over 1 connection (2 local subscriptions served)",
        stats_a.events_forwarded,
    );
    println!(
        "link B: {} events over 1 connection ({} replayed)",
        stats_b.events_forwarded, 3,
    );
    println!(
        "hub wrote {} frames total — each event crossed each link once, \
         local fan-out happened at the sites",
        fed.net_stats().frames_written,
    );

    drop(link_a);
    drop(link_b);
    let _ = std::fs::remove_dir_all(&log_dir);
    Ok(())
}

/// Polls `cond` for up to 5 seconds.
fn wait_until(mut cond: impl FnMut() -> bool) -> Result<(), Box<dyn std::error::Error>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err("timed out waiting for federation state".into())
}
